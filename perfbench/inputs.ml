(* Workload inputs.  Per-design cost spans three orders of magnitude
   (a synth --verify pass takes 1 ms on one random 17-block design and
   900 ms on another; canonising a 120-block design takes 10 ms or
   1.2 s), so the set of designs a run works on is fixed by the
   benchmark, and whole rounds of it are run.  The workload seed
   decides everything that does not change the amount of work: the
   order of the requests within each round and fresh, order-preserving
   node ids and network names for every design sent, so no two seeds
   send the same bytes.  See NOTES.md for the measured spread this
   buys. *)

module Graph = Netlist.Graph
module Oneshot = Service.Oneshot

type design = {
  label : string;
  graph : Graph.t;
  table1 : Designs.Design.t option;
}

let of_table1 d =
  { label = d.Designs.Design.name; graph = d.Designs.Design.network;
    table1 = Some d }

let random ~gen_seed ~inner =
  {
    label = Printf.sprintf "random-%d-%d" inner gen_seed;
    graph = Randgen.Generator.generate ~rng:(Prng.create gen_seed) ~inner ();
    table1 = None;
  }

(* Fresh node ids in the same relative order: the program's tie-breaks
   follow id order, so the work and the answer up to renaming are those
   of the original, while every byte of the request text is new. *)
let relabel rng g =
  let ids = List.sort Netlist.Node_id.compare (Graph.node_ids g) in
  let map = Hashtbl.create 64 in
  let next = ref (1000 + Prng.int rng 1_000_000) in
  List.iter
    (fun id ->
      Hashtbl.replace map id !next;
      next := !next + 1 + Prng.int rng 7)
    ids;
  let g' =
    List.fold_left
      (fun acc id ->
        let n = Graph.node g id in
        let label =
          if n.Graph.label = Netlist.Node_id.to_string id then None
          else Some n.Graph.label
        in
        fst (Graph.add ~id:(Hashtbl.find map id) ?label acc n.Graph.descriptor))
      Graph.empty ids
  in
  List.fold_left
    (fun acc (e : Graph.edge) ->
      Graph.connect acc
        ~src:(Hashtbl.find map e.src.node, e.src.port)
        ~dst:(Hashtbl.find map e.dst.node, e.dst.port))
    g' (Graph.edges g)

(* A design as sent: fresh ids and name, rendered to netlist text. *)
type sent = { design : design; text : string }

let send rng ~tag (d : design) =
  let g = relabel rng d.graph in
  let name = Printf.sprintf "%s #%s-%d" d.label tag (Prng.int rng 1_000_000) in
  { design = d; text = Netlist.Textio.to_string ~name g }

(* The generator streams of the workloads; distinct so no workload
   shares a design with another. *)
let synth_base = 2_005_000
let cold_base = 3_000_000
let cold_setup_base = 4_000_000
let warm_base = 5_000_000

(* ---------------- synth_verify ---------------- *)

(* Table 1 plus three random designs per inner-block count 8..32.  The
   spread of per-design cost is wide and lumpy; 90 designs fill it
   densely enough that the median latency does not hop between two
   designs' costs from run to run. *)
let synth_corpus =
  lazy
    (List.map of_table1 Designs.Library.table1
    @ List.init 75 (fun i -> random ~gen_seed:(synth_base + i) ~inner:(8 + (i mod 25))))

(* ---------------- serve ---------------- *)

type request = { backend : Oneshot.backend; design : design }

(* Inner-block counts log-spread over 10..120: [slots] positions,
   visited in a scattered order so neighbouring requests differ. *)
let log_size ~slots j =
  let stride = if slots mod 29 = 0 then 31 else 29 in
  let q = float_of_int (j * stride mod slots) /. float_of_int (slots - 1) in
  int_of_float (Float.round (10. *. (12. ** q)))

(* Backend mix, about 80% paredown, 10% aggregation, 10% exhaustive.
   Exhaustive requests get designs of 8-10 inner blocks: at 12 inner
   blocks a random design takes up to 3.2 s, and Two-Zone Security and
   Timed Passage never finish. *)
let backend_of_slot j =
  match j mod 10 with
  | 3 -> Oneshot.Exhaustive
  | 7 -> Oneshot.Aggregation
  | _ -> Oneshot.Paredown

let random_request ~gen_seed ~slots j =
  match backend_of_slot j with
  | Oneshot.Exhaustive ->
    { backend = Oneshot.Exhaustive;
      design = random ~gen_seed ~inner:(8 + (j / 10 mod 3)) }
  | backend -> { backend; design = random ~gen_seed ~inner:(log_size ~slots j) }

let table1_request j d =
  let backend =
    match backend_of_slot j with
    | Oneshot.Exhaustive when Graph.inner_count d.Designs.Design.network > 10 ->
      Oneshot.Paredown
    | b -> b
  in
  { backend; design = of_table1 d }

let batch_size = 8
let cold_round_requests = 64

(* Round [r] of serve_cold: 64 requests never sent before.  Round 0
   carries the 15 Table 1 designs. *)
let cold_round r =
  List.init cold_round_requests (fun j ->
      let k = (r * cold_round_requests) + j in
      if r = 0 && j < List.length Designs.Library.table1 then
        table1_request j (List.nth Designs.Library.table1 j)
      else random_request ~gen_seed:(cold_base + k) ~slots:cold_round_requests j)

(* Warm-up traffic of serve_cold's set-up, disjoint from every round.
   Every set-up repetition sends the same designs to a fresh server, so
   each repetition does the same work and every request misses. *)
let cold_setup_requests =
  lazy
    (List.init (4 * batch_size) (fun j ->
         random_request ~gen_seed:(cold_setup_base + j) ~slots:(4 * batch_size) j))

(* serve_warm's pool: Table 1 plus 33 random designs, 48 in all, far
   below the cache's 4096 entries. *)
let warm_pool =
  lazy
    (List.mapi table1_request Designs.Library.table1
    @ List.init 33 (fun j ->
          random_request ~gen_seed:(warm_base + j) ~slots:33 (j + 15)))

(* ---------------- reliability_sweep ---------------- *)

type sweep = {
  s_design : Designs.Design.t;
  family : Reliability.Family.t;
  lambda : float;
}

let families =
  lazy
    [
      Result.get_ok (Reliability.Family.of_string "drop:0.2");
      Reliability.Estimator.default_config.Reliability.Estimator.family;
      Result.get_ok (Reliability.Family.of_string "chaos:0.1,0.05,0.05,3");
    ]

let sweep_configs =
  lazy
    (List.concat_map
       (fun d ->
         List.concat_map
           (fun family ->
             List.map (fun lambda -> { s_design = d; family; lambda }) [ 4.; 64. ])
           (Lazy.force families))
       Designs.Library.table1)

(* The estimator's trial count and root seed.  The seed stays fixed:
   Monte-Carlo cost depends on the faults drawn, and the pinned Entry
   Gate Detector dissolve is defined at this seed. *)
let sweep_trials = 32
let sweep_seed = 1
