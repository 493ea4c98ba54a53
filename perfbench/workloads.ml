(* The four workloads.  Every operation is a call into the program's
   public functions (or a round trip to a [paredown serve] child), timed
   from outside; its outputs are checked afterwards, off the clock. *)

module Graph = Netlist.Graph
module Oneshot = Service.Oneshot
module P = Service.Protocol

type outcome = {
  ok : bool;
  before : int;  (** inner blocks before synthesis *)
  after : int;  (** inner blocks after synthesis *)
  why : string;  (** the failed check, "" when [ok] *)
}

type op = {
  mirror : unit -> unit;
      (** traced runs of mirrored workloads only: the timed call's work
          replayed in-process under spans, off the clock, before it *)
  run : unit -> unit -> outcome;  (** the timed call; returns the check *)
}

type t = {
  setup : int -> unit -> unit -> string list;
      (** set-up number [n] (repeated; the last one stays live) in three
          stages: [setup n] builds its inputs and stops the previous
          set-up's server, the timed [setup n ()] spawns and warms, and
          the check it returns lists the failed checks of the warm-up
          operations *)
  round : int -> op list;  (** round [r]'s operations; builds inputs only *)
  min_rounds : int;  (** rounds that give at least 100 operations *)
  mirrored : bool;
      (** the traced run's spans come from [op.mirror], not from the
          timed call, so its layer times are measured against the timed
          call's time *)
  nominal_round_s : float;  (** calibrated duration of one round *)
  peak_rss_mb : unit -> float;
  finish : unit -> unit;
  counts : unit -> (string * float) list;  (** tallies since [reset] *)
  reset : unit -> unit;  (** zero the tallies (after set-up) *)
}

type ctx = { seed : int; spans : Spans.t option; paredown_exe : string }

let span ctx name f =
  match ctx.spans with None -> f () | Some s -> Spans.with_span s name f

let named_span ctx f =
  match ctx.spans with
  | None -> fst (f ())
  | Some s -> Spans.with_named_span s f

let round_rng ctx r = Prng.create ((ctx.seed * 7919) + r)
let shape = Core.Shape.default
let fail ~before ~after why = { ok = false; before; after; why }
let pass ~before ~after = { ok = true; before; after; why = "" }
let failures = List.filter_map (fun o -> if o.ok then None else Some o.why)

let share num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let own_peak_rss_mb () = Serve_client.peak_rss_mb "self"

(* ------------------------------------------------------------------ *)
(* synth_verify: netlist text to verified C, as [paredown synth --verify]
   does it. *)

let tier = function
  | Codegen.Verify.Proven -> "proven"
  | Codegen.Verify.Bounded_equivalent _ -> "bounded"
  | Codegen.Verify.Cosim_passed _ -> "cosim"
  | Codegen.Verify.Skipped _ -> "skipped"
  | Codegen.Verify.Failed _ -> "failed"

(* Table 1's PareDown totals.  The reconstructions of the two largest
   designs are one block off the paper's topology (EXPERIMENTS.md, note
   (b); pinned in test/test_paredown.ml), so for them the expected total
   is the paper's plus that documented gap. *)
let reconstruction_gap = [ ("Two-Zone Security", 1); ("Timed Passage", 1) ]

let expected_paredown_total name (p : Designs.Design.paper_row) =
  p.Designs.Design.paredown_total
  + Option.value (List.assoc_opt name reconstruction_gap) ~default:0

let synth_verify ctx =
  let race_limited = ref 0 and checked = ref 0 and useful = ref 0 in
  let op (s : Inputs.sent) =
    let run () =
      let g =
        span ctx "netlist.textio" (fun () -> snd (Netlist.Textio.of_string s.text))
      in
      let sol =
        span ctx "core.paredown" (fun () ->
            let config = { Core.Paredown.default_config with shapes = [ shape ] } in
            (Core.Paredown.run ~config g).Core.Paredown.solution)
      in
      let replaced = span ctx "codegen.replace" (fun () -> Codegen.Replace.apply g sol) in
      let g' = replaced.Codegen.Replace.network in
      let c_sources =
        span ctx "codegen.emit" (fun () ->
            List.mapi
              (fun i id ->
                let d = Graph.descriptor g' id in
                Codegen.C_emit.program
                  ~block_name:(Printf.sprintf "partition %d" (i + 1))
                  ~n_inputs:d.Eblock.Descriptor.n_inputs
                  ~n_outputs:d.Eblock.Descriptor.n_outputs
                  d.Eblock.Descriptor.behavior)
              replaced.Codegen.Replace.programmable_ids)
      in
      let equiv =
        span ctx "sim.equiv" (fun () ->
            match
              Sim.Equiv.check_random ~reference:g ~candidate:g' ~seed:99 ~steps:60
            with
            | Ok () -> `Match
            | Error _ ->
              (* the fuzz gate's rule: a reference whose settled outputs
                 depend on same-time packet order cannot be compared *)
              if Sim.Equiv.race_sensitive_random g ~seed:99 ~steps:60 then
                `Race_limited
              else `Mismatch)
      in
      let verdicts =
        List.map
          (fun (p : Core.Partition.t) ->
            named_span ctx (fun () ->
                let st = Codegen.Verify.check_partition g p.Core.Partition.members in
                (st, "codegen.verify." ^ tier st)))
          sol.Core.Solution.partitions
      in
      fun () ->
        let before = Graph.inner_count g in
        let after = Core.Solution.total_inner_after g sol in
        let n = List.length verdicts in
        let skipped =
          List.length
            (List.filter (function Codegen.Verify.Skipped _ -> true | _ -> false) verdicts)
        in
        checked := !checked + n;
        useful := !useful + n - skipped;
        if equiv = `Race_limited then incr race_limited;
        let paper =
          Option.bind s.design.Inputs.table1 (fun d ->
              Option.map (fun p -> (d.Designs.Design.name, p)) d.Designs.Design.paper)
        in
        if equiv = `Mismatch then fail ~before ~after "settled outputs differ"
        else if List.exists (function Codegen.Verify.Failed _ -> true | _ -> false) verdicts
        then fail ~before ~after "a partition failed verification"
        else if List.exists (fun c -> String.length c = 0) c_sources then
          fail ~before ~after "empty C program"
        else
          match paper with
          | Some (name, p) when expected_paredown_total name p <> after ->
            fail ~before ~after
              (Printf.sprintf "%s: %d inner blocks after PareDown, expected %d"
                 name after (expected_paredown_total name p))
          | _ -> pass ~before ~after
    in
    { mirror = ignore; run }
  in
  let corpus = Lazy.force Inputs.synth_corpus in
  let setup_ops rep =
    let rng = Prng.create ((ctx.seed * 31) + rep) in
    List.map (fun d -> op (Inputs.send rng ~tag:"setup" d)) (List.map Inputs.of_table1 Designs.Library.table1)
  in
  {
    setup =
      (fun rep ->
        let ops = setup_ops rep in
        fun () ->
          let checks = List.map (fun o -> o.run ()) ops in
          fun () -> failures (List.map (fun check -> check ()) checks));
    round =
      (fun r ->
        let rng = round_rng ctx r in
        Prng.shuffle rng corpus
        |> List.map (fun d -> op (Inputs.send rng ~tag:(string_of_int r) d)));
    min_rounds = 2;
    mirrored = false;
    nominal_round_s = 10.;
    peak_rss_mb = own_peak_rss_mb;
    finish = ignore;
    counts =
      (fun () ->
        [
          ("codegen.verify.useful_share", share !useful !checked);
          ("sim.equiv.race_limited", float_of_int !race_limited);
        ]);
    reset = (fun () -> List.iter (fun r -> r := 0) [ race_limited; checked; useful ]);
  }

(* ------------------------------------------------------------------ *)
(* serve_cold / serve_warm: batches of 8 partition requests to a
   resident [paredown serve --jobs 1]. *)

let request_of ~id (q : Inputs.request) (s : Inputs.sent) =
  {
    P.id;
    op = P.Partition { backend = q.Inputs.backend; deadline_s = None };
    design = None;
    design_text = Some s.Inputs.text;
    inputs = shape.Core.Shape.inputs;
    outputs = shape.Core.Shape.outputs;
  }

(* The server's per-request work, replayed through the same public
   functions on a client-side cache so each layer can be timed. *)
let mirror_request ctx cache ~exact ~canons (r : P.request) =
  let parsed =
    span ctx "service.protocol" (fun () -> P.parse_request (P.render_request r))
  in
  match parsed with
  | P.Request r ->
    let backend =
      match r.P.op with P.Partition { backend; _ } -> backend | _ -> assert false
    in
    let g =
      span ctx "service.resolve" (fun () ->
          Oneshot.resolve_network ?design_text:r.P.design_text ())
    in
    let canon, key =
      span ctx "service.canon" (fun () ->
          let c = Service.Canon.of_graph g in
          (c, Service.Cache.partition_key ~backend ~shape ~deadline_s:None c))
    in
    incr canons;
    if Service.Canon.exact canon then incr exact;
    let output, work, cache_disposition =
      match span ctx "service.cache.find" (fun () -> Service.Cache.find cache key) with
      | Some payload ->
        span ctx "service.cache.replay" (fun () ->
            let sol = Service.Cache.solution_of_payload canon payload in
            ignore (Core.Solution.check g sol);
            (Oneshot.solution_report g sol, Service.Cache.payload_work payload, P.Hit))
      | None -> (
        match span ctx "core.search" (fun () -> Oneshot.partition ~backend ~shape g) with
        | Oneshot.Done { solution; report; work } ->
          span ctx "service.cache.insert" (fun () ->
              Service.Cache.insert cache key
                (Service.Cache.partition_payload canon solution work));
          (report, work, P.Miss)
        | Oneshot.Expired { report; work; _ } -> (report, work, P.Uncached))
    in
    ignore
      (span ctx "service.protocol" (fun () ->
           P.render_response
             { P.r_id = r.P.id; status = P.Ok_; cache = cache_disposition; output;
               work; elapsed_ns = Obs.Json.Null }))
  | _ -> ()

let inner_line report =
  (* "inner blocks: A -> B (...)" *)
  List.find_map
    (fun l ->
      try Scanf.sscanf l "inner blocks: %d -> %d" (fun a b -> Some (a, b))
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
    (String.split_on_char '\n' report)

let oracle (q : Inputs.request) (s : Inputs.sent) =
  let g = snd (Netlist.Textio.of_string s.Inputs.text) in
  match Oneshot.partition ~backend:q.Inputs.backend ~shape g with
  | Oneshot.Done { report; _ } -> Ok report
  | Oneshot.Expired _ -> Error "one-shot reference ran out of time"

(* Check one served response against the one-shot output on the
   request's own graph. *)
let check_response ~expect_cache ~oracle_report (resp : P.response) =
  let before, after =
    Option.value (inner_line resp.P.output) ~default:(0, 0)
  in
  if resp.P.status <> P.Ok_ then
    fail ~before ~after ("status " ^ P.status_to_string resp.P.status ^ ": " ^ resp.P.output)
  else if resp.P.cache <> expect_cache then
    fail ~before ~after
      (Printf.sprintf "cache %s, expected %s" (P.cache_to_string resp.P.cache)
         (P.cache_to_string expect_cache))
  else
    match oracle_report with
    | Error e -> fail ~before ~after e
    | Ok report when report <> resp.P.output ->
      fail ~before ~after "served report differs from the one-shot output"
    | Ok _ ->
      if inner_line resp.P.output = None then fail ~before ~after "no inner-block line"
      else pass ~before ~after

let combine outcomes =
  let before = List.fold_left (fun a o -> a + o.before) 0 outcomes in
  let after = List.fold_left (fun a o -> a + o.after) 0 outcomes in
  match List.find_opt (fun o -> not o.ok) outcomes with
  | Some o -> fail ~before ~after o.why
  | None -> pass ~before ~after

let serve ctx ~warm =
  let server = ref None in
  let cache = ref (fst (Service.Cache.create ())) in
  let exact = ref 0 and canons = ref 0 and hits = ref 0 and served = ref 0 in
  let expect_cache = if warm then P.Hit else P.Miss in
  let current () = Option.get !server in
  let batch_op ~id_prefix ~expect (items : (Inputs.request * Inputs.sent * (string, string) result Lazy.t) list) =
    let requests =
      List.mapi (fun i (q, s, _) -> request_of ~id:(Printf.sprintf "%s.%d" id_prefix i) q s) items
    in
    let mirror () =
      if ctx.spans <> None then
        List.iter (mirror_request ctx !cache ~exact ~canons) requests
    in
    let run () =
      let responses = Serve_client.batch (current ()) requests in
      fun () ->
        List.iter
          (fun (r : P.response) ->
            incr served;
            if r.P.cache = P.Hit then incr hits)
          responses;
        combine
          (List.map2
             (fun (_, _, oracle_report) resp ->
               check_response ~expect_cache:expect ~oracle_report:(Lazy.force oracle_report) resp)
             items responses)
    in
    { mirror; run }
  in
  let with_oracle rng ~tag q =
    let s = Inputs.send rng ~tag q.Inputs.design in
    (q, s, lazy (oracle q s))
  in
  let batches xs =
    let rec go acc cur n = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
        if n = Inputs.batch_size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
    in
    go [] [] 0 xs
  in
  let run_setup_batch ~tag items =
    let o = batch_op ~id_prefix:tag ~expect:P.Miss items in
    o.mirror ();
    o.run ()
  in
  (* serve_warm's pool as first sent; half of every timed pass resends
     these bytes verbatim *)
  let pool =
    lazy
      (let rng = Prng.create ((ctx.seed * 131) + 7) in
       List.map (with_oracle rng ~tag:"pool") (Lazy.force Inputs.warm_pool))
  in
  let setup rep =
    Option.iter Serve_client.stop !server;
    server := None;
    cache := fst (Service.Cache.create ());
    let items =
      if warm then Lazy.force pool
      else
        let rng = Prng.create ((ctx.seed * 131) + rep) in
        List.map (with_oracle rng ~tag:"setup") (Lazy.force Inputs.cold_setup_requests)
    in
    fun () ->
      server := Some (Serve_client.spawn ~exe:ctx.paredown_exe);
      let checks =
        List.mapi
          (fun b items -> run_setup_batch ~tag:(Printf.sprintf "setup%d.%d" rep b) items)
          (batches items)
      in
      fun () -> failures (List.map (fun check -> check ()) checks)
  in
  (* A batch's latency depends on which designs share it, so the
     batches of each round are fixed sets; the seed orders the batches
     of a round and the requests within each batch, and picks which half
     of a warm batch is resent verbatim. *)
  let round r =
    let rng = round_rng ctx r in
    let ops fixed send =
      Prng.shuffle rng fixed
      |> List.mapi (fun b batch ->
             batch_op ~id_prefix:(Printf.sprintf "r%d.b%d" r b) ~expect:expect_cache
               (List.mapi (send b) (Prng.shuffle rng batch)))
    in
    if warm then
      (* a different grouping each round, the same for every seed, so
         the batch latencies spread out instead of repeating six values *)
      let grouping = Prng.create (Inputs.warm_base + r) in
      ops (batches (Prng.shuffle grouping (Lazy.force pool))) (fun b i ((q, _, _) as verbatim) ->
          if i mod 2 = 0 then verbatim
          else with_oracle rng ~tag:(Printf.sprintf "%d.%d.%d" r b i) q)
    else
      ops (batches (Inputs.cold_round r)) (fun b _ q ->
          with_oracle rng ~tag:(Printf.sprintf "%d.%d" r b) q)
  in
  {
    setup;
    round;
    min_rounds = (if warm then 17 else 13);
    mirrored = true;
    nominal_round_s = (if warm then 0.7 else 0.85);
    peak_rss_mb = (fun () -> Serve_client.server_peak_rss_mb (current ()));
    finish = (fun () -> Option.iter Serve_client.stop !server);
    counts =
      (fun () ->
        [
          ("service.cache.hit_share", share !hits !served);
          ("service.canon.exact_share", share !exact !canons);
        ]);
    reset = (fun () -> List.iter (fun r -> r := 0) [ exact; canons; hits; served ]);
  }

(* ------------------------------------------------------------------ *)
(* reliability_sweep: the reliability-weighted search of the served/CLI
   path, Table 1 x three fault families x two exchange rates. *)

let counter name =
  match Obs.Metrics.find name with
  | Some { Obs.Metrics.value = Obs.Metrics.Count n; _ } -> n
  | _ -> 0

let reliability_sweep ctx =
  let first_report = Hashtbl.create 128 in
  let estimates = ref 0 and est_hits = ref 0 and est_misses = ref 0 and trials = ref 0 in
  let pinned (c : Inputs.sweep) =
    c.Inputs.s_design == Designs.Library.entry_gate_detector
    && c.Inputs.lambda = 64.
    && c.Inputs.family == List.nth (Lazy.force Inputs.families) 1
  in
  let key (c : Inputs.sweep) =
    Printf.sprintf "%s|%s|%g" c.Inputs.s_design.Designs.Design.name
      (Reliability.Family.to_string c.Inputs.family) c.Inputs.lambda
  in
  let oneshot (c : Inputs.sweep) =
    match
      Oneshot.weighted ~lambda:c.Inputs.lambda ~family:c.Inputs.family
        ~trials:Inputs.sweep_trials ~seed:Inputs.sweep_seed ~shape
        c.Inputs.s_design.Designs.Design.network
    with
    | Oneshot.Done { solution; report; work } | Oneshot.Expired { solution; report; work } ->
      let dissolved =
        match List.assoc_opt "dissolved" work with
        | Some (Obs.Json.Num x) -> int_of_float x
        | _ -> -1
      in
      (solution, report, dissolved)
  in
  (* Oneshot.weighted's own steps, with the estimator calls and the
     search around them under spans.  The traced run replays them off the
     clock before each timed Oneshot.weighted call, so trace.coverage
     (this copy's layer time over the real call's time) shows the copy
     drifting from the program. *)
  let traced (c : Inputs.sweep) =
    let g = c.Inputs.s_design.Designs.Design.network in
    let estimator =
      { Reliability.Estimator.default_config with
        seed = Inputs.sweep_seed; trials = Inputs.sweep_trials; family = c.Inputs.family }
    in
    let cache = Reliability.Estimator.cache () in
    let score = Reliability.Estimator.scorer ~cache estimator g in
    let severity s = span ctx "reliability.estimate" (fun () -> score s) in
    let wr =
      span ctx "core.run_weighted" (fun () ->
          Core.Paredown.run_weighted
            ~weighted:{ Core.Paredown.lambda = c.Inputs.lambda; lexicographic = false; severity }
            g)
    in
    let report =
      span ctx "service.render" (fun () -> Oneshot.solution_report g wr.Core.Paredown.solution)
    in
    (wr.Core.Paredown.solution, report, wr.Core.Paredown.dissolved)
  in
  let op (c : Inputs.sweep) =
    let copy = ref None in
    let mirror () = if ctx.spans <> None then copy := Some (traced c) in
    let run () =
      let e0 = counter "reliability.estimates" and h0 = counter "reliability.cache_hits"
      and m0 = counter "reliability.cache_misses" and t0 = counter "reliability.trials" in
      let solution, report, dissolved = oneshot c in
      estimates := !estimates + counter "reliability.estimates" - e0;
      est_hits := !est_hits + counter "reliability.cache_hits" - h0;
      est_misses := !est_misses + counter "reliability.cache_misses" - m0;
      trials := !trials + counter "reliability.trials" - t0;
      fun () ->
        let g = c.Inputs.s_design.Designs.Design.network in
        let before = Graph.inner_count g in
        let after = Core.Solution.total_inner_after g solution in
        let k = key c in
        let copy_agrees =
          match !copy with
          | None -> true
          | Some (_, part, d) -> d = dissolved && String.ends_with ~suffix:part report
        in
        let first =
          match Hashtbl.find_opt first_report k with
          | Some r -> r
          | None ->
            Hashtbl.replace first_report k report;
            report
        in
        match Core.Solution.check g solution with
        | Error e -> fail ~before ~after ("invalid solution: " ^ e)
        | Ok () ->
          if inner_line report <> Some (before, after) then
            fail ~before ~after ("report: " ^ report)
          else if report <> first then fail ~before ~after "report changed between passes"
          else if not copy_agrees then
            fail ~before ~after "traced copy differs from Service.Oneshot.weighted"
          else if pinned c && dissolved <> 1 then
            fail ~before ~after
              (Printf.sprintf "Entry Gate Detector at lambda 64: %d dissolved, pinned 1" dissolved)
          else pass ~before ~after
    in
    { mirror; run }
  in
  let configs = Lazy.force Inputs.sweep_configs in
  {
    setup =
      (fun _ ->
        (* one request per design, the pinned one among them *)
        let ops = List.map op (List.filteri (fun i _ -> i mod 6 = 3) configs) in
        fun () ->
          let checks = List.map (fun o -> o.run ()) ops in
          fun () -> failures (List.map (fun check -> check ()) checks));
    round = (fun r -> List.map op (Prng.shuffle (round_rng ctx r) configs));
    min_rounds = 2;
    mirrored = true;
    nominal_round_s = 0.95;
    peak_rss_mb = own_peak_rss_mb;
    finish = ignore;
    counts =
      (fun () ->
        [
          ("reliability.estimates", float_of_int !estimates);
          ("reliability.cache_hit_share", share !est_hits (!est_hits + !est_misses));
          (* one clean reference run per estimate plus its trials *)
          ("reliability.simulations", float_of_int (!trials + !estimates));
        ]);
    reset =
      (fun () -> List.iter (fun r -> r := 0) [ estimates; est_hits; est_misses; trials ]);
  }

let make ctx = function
  | "synth_verify" -> Some (synth_verify ctx)
  | "serve_cold" -> Some (serve ctx ~warm:false)
  | "serve_warm" -> Some (serve ctx ~warm:true)
  | "reliability_sweep" -> Some (reliability_sweep ctx)
  | _ -> None

let names = [ "synth_verify"; "serve_cold"; "serve_warm"; "reliability_sweep" ]
