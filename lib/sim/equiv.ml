module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type mismatch = {
  at_time : int;
  output : Node_id.t;
  reference : Behavior.Ast.value;
  candidate : Behavior.Ast.value;
}

let pp_mismatch ppf { at_time; output; reference; candidate } =
  Format.fprintf ppf
    "at time %d, output %d: reference shows %a but candidate shows %a"
    at_time output Behavior.Ast.pp_value reference Behavior.Ast.pp_value
    candidate

let same_ids a b =
  List.equal Node_id.equal a b

(* A deterministic pseudo-random latency in 1..4 per connection.  Keyed
   on the edge's endpoints, so the "same" perturbation applies to any
   network — including a synthesised rewrite whose edge set differs. *)
let jittered_delay salt (e : Graph.edge) =
  1 + (Hashtbl.hash (salt, e.Graph.src, e.Graph.dst) land 3)

type perturbation = {
  p_label : string;
  tie_order : Engine.tie_order;
  delay_salt : int option;
}

let baseline = { p_label = "fifo"; tie_order = Engine.Fifo; delay_salt = None }

let perturbations n =
  let pool =
    [ { p_label = "lifo"; tie_order = Engine.Lifo; delay_salt = None };
      { p_label = "shuffle1"; tie_order = Engine.Shuffled 1; delay_salt = None };
      { p_label = "jitter1"; tie_order = Engine.Fifo; delay_salt = Some 1 };
      { p_label = "shuffle2"; tie_order = Engine.Shuffled 2; delay_salt = None };
      { p_label = "jitter2"; tie_order = Engine.Fifo; delay_salt = Some 2 };
      { p_label = "shuffle3"; tie_order = Engine.Shuffled 3; delay_salt = None };
      { p_label = "jitter3"; tie_order = Engine.Fifo; delay_salt = Some 3 };
      { p_label = "lifo-jitter4"; tie_order = Engine.Lifo; delay_salt = Some 4 };
    ]
  in
  List.filteri (fun i _ -> i < n) pool

type observations = (int * (Node_id.t * Behavior.Ast.value) list) list

(* An engine setting as data: a same-time event order and a
   per-connection latency assignment.  Equal settings give equal
   observations of one network under one script, which is what lets
   [Memo] simulate each distinct setting once. *)
type delay =
  | Unit_delay
  | Jitter of int  (* [jittered_delay salt] on every connection *)
  | Slow_edge of Graph.edge  (* one connection outlasts every other path *)

type setting = Engine.tie_order * delay

let setting_of p =
  ( p.tie_order,
    match p.delay_salt with None -> Unit_delay | Some salt -> Jitter salt )

let simulate g script ((tie_order, delay) : setting) =
  let edge_delay =
    match delay with
    | Unit_delay -> None
    | Jitter salt -> Some (jittered_delay salt)
    | Slow_edge target ->
      (* slow enough to outlast every alternative path *)
      let slow = Graph.node_count g + 2 in
      Some (fun e -> if e = target then slow else 1)
  in
  Stimulus.settled_outputs (Engine.create ~tie_order ?edge_delay g) script

module Memo = struct
  type t = {
    graph : Graph.t;
    script : Stimulus.script;
    seen : (setting, observations) Hashtbl.t;
    mutable simulations : int;
  }

  let create graph script =
    { graph; script; seen = Hashtbl.create 16; simulations = 0 }

  let simulations t = t.simulations

  let run t setting =
    t.simulations <- t.simulations + 1;
    simulate t.graph t.script setting

  let observe_setting t setting =
    match Hashtbl.find_opt t.seen setting with
    | Some obs -> obs
    | None ->
      let obs = run t setting in
      Hashtbl.add t.seen setting obs;
      obs

  let observe t p = observe_setting t (setting_of p)

  let differs t setting =
    observe_setting t setting <> observe_setting t (setting_of baseline)

  let sensitive_under t perturbs =
    List.exists (fun p -> differs t (setting_of p)) perturbs

  let race_sensitive t =
    List.exists
      (fun order -> differs t (order, Unit_delay))
      [ Engine.Lifo; Engine.Shuffled 1; Engine.Shuffled 2; Engine.Shuffled 3 ]

  let timing_sensitive t =
    (* Slowing any single connection enough to outlast every alternative
       path deterministically flips each two-path hazard ordering at
       least once; the jittered assignments additionally sample combined
       perturbations.  Each slow-edge setting is consulted exactly once,
       so its observations are compared and dropped, not kept. *)
    let reference = observe_setting t (setting_of baseline) in
    List.exists
      (fun target -> run t (Engine.Fifo, Slow_edge target) <> reference)
      (Graph.edges t.graph)
    || List.exists
         (fun salt -> differs t (Engine.Fifo, Jitter salt))
         [ 1; 2; 3; 4 ]
    || race_sensitive t
end

let observe ?(perturbation = baseline) g script =
  simulate g script (setting_of perturbation)

let check_interface ~reference ~candidate =
  if not (same_ids (Graph.sensors reference) (Graph.sensors candidate)) then
    invalid_arg "Equiv.check: sensor sets differ";
  if not
       (same_ids
          (Graph.primary_outputs reference)
          (Graph.primary_outputs candidate))
  then invalid_arg "Equiv.check: primary output sets differ"

let first_mismatch ~reference ~candidate =
  let compare_point acc (time, ref_outputs) (_, cand_outputs) =
    match acc with
    | Error _ -> acc
    | Ok () ->
      let rec compare_outputs ref_outputs cand_outputs =
        match ref_outputs, cand_outputs with
        | [], [] -> Ok ()
        | (id, rv) :: ref_rest, (_, cv) :: cand_rest ->
          if Behavior.Ast.equal_value rv cv
          then compare_outputs ref_rest cand_rest
          else
            Error { at_time = time; output = id; reference = rv;
                    candidate = cv }
        | [], _ :: _ | _ :: _, [] ->
          invalid_arg "Equiv.check: output arity mismatch"
      in
      compare_outputs ref_outputs cand_outputs
  in
  List.fold_left2 compare_point (Ok ()) reference candidate

let check ?perturbation ~reference ~candidate script =
  check_interface ~reference ~candidate;
  let ref_obs = observe ?perturbation reference script in
  let cand_obs = observe ?perturbation candidate script in
  first_mismatch ~reference:ref_obs ~candidate:cand_obs

let random_script g ~seed ~steps =
  let rng = Prng.create seed in
  Stimulus.random ~rng ~sensors:(Graph.sensors g) ~steps ~spacing:20

let check_random ~reference ~candidate ~seed ~steps =
  check ~reference ~candidate (random_script reference ~seed ~steps)

let race_sensitive g script = Memo.race_sensitive (Memo.create g script)

let race_sensitive_random g ~seed ~steps =
  race_sensitive g (random_script g ~seed ~steps)

let sensitive_under g perturbs script =
  Memo.sensitive_under (Memo.create g script) perturbs

let timing_sensitive g script = Memo.timing_sensitive (Memo.create g script)

let timing_sensitive_random g ~seed ~steps =
  timing_sensitive g (random_script g ~seed ~steps)
