(* Tests for Verify v2: the three-tier equivalence subsystem (exhaustive
   proof, bounded sequential proof, differential co-simulation) and the
   counterexample shrinker. *)

module Graph = Netlist.Graph
module Catalog = Eblock.Catalog

let check = Alcotest.check
let set = Testlib.set
let podium = Testlib.podium

(* --- tier 2: bounded sequential proof ----------------------------------- *)

let test_sequential_merge_bounded () =
  (* not -> toggle is stateful but timer-free: the product state space is
     tiny and must close with no divergence *)
  let g, _, inner, _ = Testlib.chain [ Catalog.not_gate; Catalog.toggle ] in
  match Codegen.Verify.check_partition g (Netlist.Node_id.set_of_list inner) with
  | Codegen.Verify.Bounded_equivalent { states; depth } ->
    check Alcotest.bool "explored more than the initial state" true (states >= 2);
    check Alcotest.bool "needed at least one input step" true (depth >= 1)
  | v ->
    Alcotest.failf "expected Bounded_equivalent, got %a"
      Codegen.Verify.pp_status v

let test_toggle_chain_bounded () =
  let g, _, inner, _ = Testlib.chain [ Catalog.toggle; Catalog.not_gate ] in
  match Codegen.Verify.check_partition g (Netlist.Node_id.set_of_list inner) with
  | Codegen.Verify.Bounded_equivalent _ -> ()
  | v ->
    Alcotest.failf "expected Bounded_equivalent, got %a"
      Codegen.Verify.pp_status v

let test_exhausted_budget_falls_back () =
  (* a one-state budget cannot close even the tiny toggle product space,
     so the verdict must degrade to co-simulation, never to a silent skip *)
  let g, _, inner, _ = Testlib.chain [ Catalog.not_gate; Catalog.toggle ] in
  let config =
    { Codegen.Verify.default_config with max_states = 1; max_transitions = 1 }
  in
  match Codegen.Verify.check_partition ~config g (Netlist.Node_id.set_of_list inner) with
  | Codegen.Verify.Cosim_passed _ -> ()
  | v ->
    Alcotest.failf "expected Cosim_passed fallback, got %a"
      Codegen.Verify.pp_status v

let test_input_width_budget () =
  (* force the width budget to zero: even a combinational partition must
     fall back to co-simulation instead of enumerating (guards 1 lsl n) *)
  let g = Designs.Library.any_window_open_alarm.Designs.Design.network in
  let config = { Codegen.Verify.default_config with max_input_bits = 0 } in
  match Codegen.Verify.check_partition ~config g (set [ 5; 6; 7 ]) with
  | Codegen.Verify.Cosim_passed _ | Codegen.Verify.Skipped _ -> ()
  | v ->
    Alcotest.failf "expected a sampled verdict under a zero width budget, \
                    got %a"
      Codegen.Verify.pp_status v

(* --- tier 3: differential co-simulation and the shrinker ----------------- *)

(* Two networks with identical ids and interface but a different inner
   gate: the honest reference computes AND, the corrupted candidate OR. *)
let gate_pair ref_gate bad_gate =
  let build gate =
    let g, s1 = Graph.add Graph.empty Catalog.button in
    let g, s2 = Graph.add g Catalog.contact_switch in
    let g, n = Graph.add g gate in
    let g, l = Graph.add g Catalog.led in
    let g = Graph.connect g ~src:(s1, 0) ~dst:(n, 0) in
    let g = Graph.connect g ~src:(s2, 0) ~dst:(n, 1) in
    Graph.connect g ~src:(n, 0) ~dst:(l, 0)
  in
  (build ref_gate, build bad_gate)

let test_cosim_agrees_on_equal_networks () =
  let reference, candidate = gate_pair Catalog.and2 Catalog.and2 in
  match Codegen.Cosim.run ~reference candidate with
  | Codegen.Cosim.Agreed { scripts; checks } ->
    check Alcotest.bool "at least one usable script" true (scripts >= 1);
    check Alcotest.bool "baseline plus perturbations" true (checks > scripts)
  | Codegen.Cosim.Diverged f ->
    Alcotest.failf "identical networks diverged: %a" Codegen.Cosim.pp_failure f
  | Codegen.Cosim.Inconclusive reason ->
    Alcotest.failf "inconclusive on a race-free design: %s" reason

let test_cosim_finds_and_shrinks_corruption () =
  let reference, candidate = gate_pair Catalog.and2 Catalog.or2 in
  match Codegen.Cosim.run ~reference candidate with
  | Codegen.Cosim.Diverged f ->
    (* AND vs OR differs as soon as exactly one sensor is high, so the
       minimal counterexample is a single step at the earliest time *)
    check Alcotest.int "shrunk to one step" 1 (List.length f.Codegen.Cosim.script);
    (match f.Codegen.Cosim.script with
     | [ step ] -> check Alcotest.int "time lowered" 1 step.Sim.Stimulus.time
     | _ -> ());
    check Alcotest.int "original length recorded"
      Codegen.Cosim.default_config.Codegen.Cosim.steps
      f.Codegen.Cosim.original_steps;
    check Alcotest.bool "shrunk script still fails" true
      (Result.is_error
         (Sim.Equiv.check ~perturbation:f.Codegen.Cosim.perturbation
            ~reference ~candidate f.Codegen.Cosim.script));
    check Alcotest.bool "failure renders" true
      (Testlib.contains
         (Format.asprintf "%a" Codegen.Cosim.pp_failure f)
         "shrunk from")
  | Codegen.Cosim.Agreed _ -> Alcotest.fail "corrupted candidate not caught"
  | Codegen.Cosim.Inconclusive reason ->
    Alcotest.failf "inconclusive on a race-free design: %s" reason

let test_latent_race_checked_at_baseline () =
  (* Regression, fuzz seed 2027: PareDown puts {toggle, delay, or2} in
     one partition.  The flat design carries a latent tie between the
     delay block's timer expiry and a packet delivery which its own event
     schedule happens to resolve consistently — the flat-side
     sensitivity sample passes — while the rewrite's different schedule
     exposes it under shuffled tie orders.  The verifier used to report
     that undefined race as a merge divergence; it must instead check
     such scripts under the baseline engine only and count them. *)
  let g = Randgen.Generator.generate ~rng:(Prng.create 2027) ~inner:6 () in
  let sol = (Core.Paredown.run g).Core.Paredown.solution in
  let part = List.hd sol.Core.Solution.partitions in
  let rewrite = Codegen.Replace.apply g { Core.Solution.partitions = [ part ] } in
  let candidate = rewrite.Codegen.Replace.network in
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 2005) ~sensors:(Graph.sensors g)
      ~steps:40 ~spacing:20
  in
  let pool = Sim.Equiv.perturbations 4 in
  (* pin the scenario's shape: the race shows only on the rewrite *)
  check Alcotest.bool "flat design pool-insensitive" false
    (Sim.Equiv.sensitive_under g pool script);
  check Alcotest.bool "rewrite exposes the race" true
    (Sim.Equiv.sensitive_under candidate pool script);
  let (report, outcome), entries =
    Obs.Metrics.with_scope (fun () ->
        ( Codegen.Verify.check_solution g sol,
          Codegen.Cosim.run ~reference:g candidate ))
  in
  (match outcome with
   | Codegen.Cosim.Agreed { scripts; _ } ->
     check Alcotest.bool "usable scripts" true (scripts >= 1)
   | Codegen.Cosim.Diverged f ->
     Alcotest.failf "undefined race reported as a merge divergence: %a"
       Codegen.Cosim.pp_failure f
   | Codegen.Cosim.Inconclusive reason -> Alcotest.fail reason);
  check Alcotest.bool "whole solution verifies" true
    (Codegen.Verify.ok report);
  let race_limited =
    match
      List.find_opt
        (fun e -> e.Obs.Metrics.name = "codegen.cosim.race_limited_scripts")
        entries
    with
    | Some { Obs.Metrics.value = Obs.Metrics.Count n; _ } -> n
    | Some _ | None -> 0
  in
  check Alcotest.bool "race-limited scripts counted" true (race_limited >= 1)

let test_shrink_synthetic () =
  (* predicate: fails whenever sensor 1 is driven high; everything else
     must be dropped and the surviving step pulled down to time 1 *)
  let mk time sensor value = { Sim.Stimulus.time; sensor; value } in
  let script =
    List.init 12 (fun i -> mk ((i + 1) * 7) (1 + (i mod 3)) (i mod 2 = 0))
  in
  let still_fails s =
    List.exists
      (fun (st : Sim.Stimulus.step) -> st.sensor = 1 && st.value)
      s
  in
  let shrunk = Codegen.Cosim.shrink ~still_fails script in
  check Alcotest.int "one step survives" 1 (List.length shrunk);
  (match shrunk with
   | [ st ] ->
     check Alcotest.int "sensor kept" 1 st.Sim.Stimulus.sensor;
     check Alcotest.bool "value kept" true st.Sim.Stimulus.value;
     check Alcotest.int "time minimised" 1 st.Sim.Stimulus.time
   | _ -> ());
  check Alcotest.bool "shrink never empties a failing script" true
    (still_fails shrunk)

let test_shrink_keeps_dependent_pairs () =
  (* predicate needs two particular steps in order; both must survive *)
  let mk time sensor value = { Sim.Stimulus.time; sensor; value } in
  let script = List.init 10 (fun i -> mk ((i + 1) * 5) (i mod 4) true) in
  let still_fails s =
    let sensors = List.map (fun (st : Sim.Stimulus.step) -> st.sensor) s in
    List.mem 2 sensors && List.mem 3 sensors
  in
  let shrunk = Codegen.Cosim.shrink ~still_fails script in
  check Alcotest.int "two steps survive" 2 (List.length shrunk);
  check Alcotest.bool "still failing" true (still_fails shrunk)

(* --- satellite fixes ----------------------------------------------------- *)

let test_stimulus_spacing_clamped () =
  (* spacing 0 used to crash Prng.int; it now means "a flip every tick" *)
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 3) ~sensors:[ 1; 2 ] ~steps:10
      ~spacing:0
  in
  check Alcotest.int "all steps generated" 10 (List.length script);
  let rec strictly_increasing prev = function
    | [] -> true
    | (st : Sim.Stimulus.step) :: rest ->
      st.time > prev && strictly_increasing st.time rest
  in
  check Alcotest.bool "times strictly increase from 0" true
    (strictly_increasing 0 script)

let test_plan_counters_pinned () =
  (* the endpoint-table rewrite must not change what the counters count:
     one plan per build, one merged node per member *)
  let (), entries =
    Obs.Metrics.with_scope (fun () ->
        ignore (Codegen.Plan.build podium (set [ 2; 3; 4; 5 ]));
        ignore (Codegen.Plan.build podium (set [ 6; 8; 9 ])))
  in
  let count name =
    match
      List.find_opt (fun e -> e.Obs.Metrics.name = name) entries
    with
    | Some { Obs.Metrics.value = Obs.Metrics.Count n; _ } -> n
    | Some _ | None -> -1
  in
  check Alcotest.int "plans built" 2 (count "codegen.plans_built");
  check Alcotest.int "merged nodes" 7 (count "codegen.merged_nodes")

let test_perturbation_pool () =
  let ps = Sim.Equiv.perturbations 4 in
  check Alcotest.int "requested count" 4 (List.length ps);
  check Alcotest.int "pool capped" 8 (List.length (Sim.Equiv.perturbations 100));
  let labels = List.map (fun p -> p.Sim.Equiv.p_label) ps in
  check Alcotest.int "labels distinct" (List.length labels)
    (List.length (List.sort_uniq String.compare labels));
  check Alcotest.bool "deterministic" true (Sim.Equiv.perturbations 4 = ps)

(* --- whole-solution reporting -------------------------------------------- *)

let test_report_no_silent_skips () =
  (* every Table 1 design: each partition must land in exactly one
     bucket, and none may fail *)
  List.iter
    (fun d ->
      let g = d.Designs.Design.network in
      let sol = (Core.Paredown.run g).Core.Paredown.solution in
      let report = Codegen.Verify.check_solution g sol in
      check Alcotest.int
        (d.Designs.Design.name ^ ": one status per partition")
        (Core.Solution.programmable_count sol)
        (List.length report.Codegen.Verify.results);
      let t = Codegen.Verify.tally report in
      check Alcotest.int (d.Designs.Design.name ^ ": buckets sum")
        (Core.Solution.programmable_count sol)
        Codegen.Verify.(
          t.proven + t.bounded + t.cosim_passed + t.failed + t.skipped);
      if not (Codegen.Verify.ok report) then
        Alcotest.failf "%s failed verification: %a" d.Designs.Design.name
          Codegen.Verify.pp_report report)
    Designs.Library.table1

let prop_random_solutions_never_fail =
  (* the fuzz experiment at test scale: whatever tier applies, no
     partition of a PareDown solution may produce a counterexample *)
  QCheck.Test.make ~name:"random PareDown solutions verify without failures"
    ~count:10
    (Testlib.network_arbitrary ~max_inner:10 ()) (fun (_, _, g) ->
      let sol = (Core.Paredown.run g).Core.Paredown.solution in
      Codegen.Verify.ok (Codegen.Verify.check_solution g sol))

(* --- golden reports and the shared reference analysis -------------------- *)

(* Co-simulation analyses the flat reference once per (graph, config)
   and shares it across partitions.  These reports and counter deltas
   were recorded before that sharing existed, so any verdict, detail or
   count it changed shows here.  Designs: Table 1, the four perfbench
   corpus designs with the most tier-3 partitions, two fuzz designs
   with skipped partitions and the latent-race design (race-limited
   scripts). *)

let count entries name =
  match List.find_opt (fun e -> e.Obs.Metrics.name = name) entries with
  | Some { Obs.Metrics.value = Obs.Metrics.Count n; _ } -> n
  | Some _ | None -> 0

let cosim_counts entries =
  let c name = count entries ("codegen.cosim." ^ name) in
  (c "scripts", c "scripts_skipped", c "race_limited_scripts", c "checks")

let random_design seed inner =
  ( Printf.sprintf "randgen %d/%d" seed inner,
    Randgen.Generator.generate ~rng:(Prng.create seed) ~inner () )

let golden_designs () =
  List.map
    (fun d -> (d.Designs.Design.name, d.Designs.Design.network))
    Designs.Library.table1
  @ [ random_design 2005021 29; random_design 2005068 26;
      random_design 2005071 29; random_design 2005072 30;
      random_design 2035 14; random_design 2089 13; random_design 2027 6 ]

(* name, (scripts, scripts_skipped, race_limited_scripts, checks), report *)
let golden_reports =
  [
    ( "Ignition Illuminator",
      (0, 0, 0, 0),
      {|partition 0 {3, 4}: equivalent (proven exhaustively)
1 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped|} );
    ( "Night Lamp Controller",
      (0, 0, 0, 0),
      {|partition 0 {3, 4}: equivalent (proven exhaustively)
1 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped|} );
    ( "Entry Gate Detector",
      (0, 0, 0, 0),
      {|partition 0 {2, 3}: equivalent over the full product state space (3 state(s), input sequences up to length 2)
0 proven, 1 bounded, 0 cosim-passed, 0 failed, 0 skipped|} );
    ( "Carpool Alert",
      (3, 0, 0, 15),
      {|partition 0 {2, 3}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 1 cosim-passed, 0 failed, 0 skipped|} );
    ( "Cafeteria Food Alert",
      (3, 0, 0, 15),
      {|partition 0 {3, 4, 5}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 1 cosim-passed, 0 failed, 0 skipped|} );
    ( "Podium Timer 2",
      (3, 0, 0, 15),
      {|partition 0 {2, 3, 4}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 1 cosim-passed, 0 failed, 0 skipped|} );
    ( "Any Window Open Alarm",
      (0, 0, 0, 0),
      {|0 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped|} );
    ( "Two Button Light",
      (0, 0, 0, 0),
      {|0 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped|} );
    ( "Doorbell Extender 1",
      (0, 0, 0, 0),
      {|0 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped|} );
    ( "Doorbell Extender 2",
      (0, 0, 0, 0),
      {|0 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped|} );
    ( "Podium Timer 3",
      (6, 0, 0, 30),
      {|partition 0 {2, 3, 4, 5}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {6, 8, 9}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 2 cosim-passed, 0 failed, 0 skipped|} );
    ( "Noise At Night Detector",
      (9, 0, 0, 45),
      {|partition 0 {9, 10}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {5, 6}: equivalent (proven exhaustively)
partition 2 {13, 14}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 3 {11, 12}: differential co-simulation agreed (3 script(s), 15 check(s))
1 proven, 0 bounded, 3 cosim-passed, 0 failed, 0 skipped|} );
    ( "Two-Zone Security",
      (9, 0, 0, 45),
      {|partition 0 {13, 14, 15}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {20, 21, 22, 23}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 2 {26, 27, 28, 29}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 3 cosim-passed, 0 failed, 0 skipped|} );
    ( "Motion on Property Alert",
      (0, 0, 0, 0),
      {|0 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped|} );
    ( "Timed Passage",
      (9, 0, 0, 45),
      {|partition 0 {9, 10, 15, 16}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {21, 22, 23, 24}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 2 {25, 26}: equivalent (proven exhaustively)
partition 3 {11, 12}: differential co-simulation agreed (3 script(s), 15 check(s))
1 proven, 0 bounded, 3 cosim-passed, 0 failed, 0 skipped|} );
    ( "randgen 2005021/29",
      (15, 0, 0, 75),
      {|partition 0 {11, 16, 17, 29}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {3, 10}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 2 {15, 23}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 3 {26, 28}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 4 {35, 38}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 5 {40, 46}: equivalent over the full product state space (4 state(s), input sequences up to length 1)
0 proven, 1 bounded, 5 cosim-passed, 0 failed, 0 skipped|} );
    ( "randgen 2005068/26",
      (18, 0, 0, 90),
      {|partition 0 {23, 24, 40}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {2, 18}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 2 {10, 19}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 3 {4, 6}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 4 {30, 32}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 5 {34, 39}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 6 cosim-passed, 0 failed, 0 skipped|} );
    ( "randgen 2005071/29",
      (18, 0, 0, 90),
      {|partition 0 {10, 14, 33, 36}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {7, 8, 26, 37}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 2 {6, 25}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 3 {21, 39}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 4 {32, 41}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 5 {3, 20}: equivalent (proven exhaustively)
partition 6 {23, 35}: differential co-simulation agreed (3 script(s), 15 check(s))
1 proven, 0 bounded, 6 cosim-passed, 0 failed, 0 skipped|} );
    ( "randgen 2005072/30",
      (15, 0, 0, 75),
      {|partition 0 {4, 18, 31}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {41, 47}: equivalent (proven exhaustively)
partition 2 {8, 16}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 3 {5, 23}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 4 {22, 46}: equivalent (proven exhaustively)
partition 5 {9, 29}: equivalent (proven exhaustively)
partition 6 {30, 33}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 7 {37, 39}: differential co-simulation agreed (3 script(s), 15 check(s))
3 proven, 0 bounded, 5 cosim-passed, 0 failed, 0 skipped|} );
    ( "randgen 2035/14",
      (12, 12, 0, 0),
      {|partition 0 {3, 7, 8}: skipped: every stimulus script was timing-sensitive on the flat design
partition 1 {11, 19}: skipped: every stimulus script was timing-sensitive on the flat design
partition 2 {12, 16}: skipped: every stimulus script was timing-sensitive on the flat design
partition 3 {9, 18}: skipped: every stimulus script was timing-sensitive on the flat design
0 proven, 0 bounded, 0 cosim-passed, 0 failed, 4 skipped|} );
    ( "randgen 2089/13",
      (3, 3, 0, 0),
      {|partition 0 {2, 12}: equivalent (proven exhaustively)
partition 1 {19, 21}: equivalent over the full product state space (3 state(s), input sequences up to length 1)
partition 2 {11, 15}: skipped: every stimulus script was timing-sensitive on the flat design
1 proven, 1 bounded, 0 cosim-passed, 0 failed, 1 skipped|} );
    ( "randgen 2027/6",
      (6, 0, 3, 18),
      {|partition 0 {2, 5, 9}: differential co-simulation agreed (3 script(s), 3 check(s))
partition 1 {7, 8}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 2 cosim-passed, 0 failed, 0 skipped|} );
  ]

let solution_report g =
  let sol = (Core.Paredown.run g).Core.Paredown.solution in
  Obs.Metrics.with_scope (fun () -> Codegen.Verify.check_solution g sol)

let test_golden_reports () =
  let designs = golden_designs () in
  check Alcotest.int "one golden report per design" (List.length designs)
    (List.length golden_reports);
  List.iter2
    (fun (name, g) (golden_name, counts, text) ->
      check Alcotest.string "design order" golden_name name;
      let report, entries = solution_report g in
      check Alcotest.string (name ^ ": report") text
        (Format.asprintf "%a" Codegen.Verify.pp_report report);
      check
        Alcotest.(pair (pair int int) (pair int int))
        (name ^ ": cosim counters")
        (let a, b, c, d = counts in ((a, b), (c, d)))
        (let a, b, c, d = cosim_counts entries in ((a, b), (c, d))))
    designs golden_reports

(* Verifying any other graph replaces the one-entry analysis slot, so
   the next verification of [podium] starts cold. *)
let evict_analysis () =
  let reference, candidate = gate_pair Catalog.and2 Catalog.and2 in
  ignore (Codegen.Cosim.run ~reference candidate)

let test_run_counters () =
  (* Podium Timer 3: two tier-3 partitions, 3 usable scripts each.  The
     reference costs |E|+9 engine runs per script once for the whole
     solution; each candidate costs 5 per script (baseline + 4 pool). *)
  evict_analysis ();
  let _, entries = solution_report podium in
  let edges = List.length (Graph.edges podium) in
  check Alcotest.int "reference runs" (3 * (edges + 9))
    (count entries "codegen.cosim.reference_runs");
  check Alcotest.int "candidate runs" (2 * 3 * 5)
    (count entries "codegen.cosim.candidate_runs");
  (* a second pass over the same physical graph reuses the analysis *)
  let _, again = solution_report podium in
  check Alcotest.int "warm reference runs" 0
    (count again "codegen.cosim.reference_runs");
  check Alcotest.int "warm candidate runs" (2 * 3 * 5)
    (count again "codegen.cosim.candidate_runs")

let test_config_change_misses_slot () =
  (* same physical graph, different seed: different scripts, so the
     analysis must be rebuilt, and the verdict must match a cold run *)
  let reference, candidate = gate_pair Catalog.and2 Catalog.and2 in
  let reseeded =
    { Codegen.Cosim.default_config with Codegen.Cosim.seed = 77 }
  in
  let run config =
    Obs.Metrics.with_scope (fun () ->
        Codegen.Cosim.run ~config ~reference candidate)
  in
  let reference_runs entries = count entries "codegen.cosim.reference_runs" in
  evict_analysis ();
  let first, cold_entries = run Codegen.Cosim.default_config in
  check Alcotest.bool "first run analyses the reference" true
    (reference_runs cold_entries > 0);
  let again, hit = run Codegen.Cosim.default_config in
  check Alcotest.int "same config reuses the analysis" 0 (reference_runs hit);
  check Alcotest.bool "reused analysis, same verdict" true (again = first);
  let reseeded_outcome, miss = run reseeded in
  check Alcotest.int "new seed re-analyses the reference"
    (reference_runs cold_entries) (reference_runs miss);
  evict_analysis ();
  let cold, _ = run reseeded in
  check Alcotest.bool "reseeded verdict equals a cold run" true
    (reseeded_outcome = cold)

let test_corruption_after_passing_partition () =
  (* the corrupted candidate's shrunk failure must not depend on whether
     the reference analysis was computed for it or for an earlier,
     passing candidate of the same graph *)
  let reference, candidate = gate_pair Catalog.and2 Catalog.or2 in
  let honest = snd (gate_pair Catalog.and2 Catalog.and2) in
  evict_analysis ();
  let cold = Codegen.Cosim.run ~reference candidate in
  (match Codegen.Cosim.run ~reference honest with
   | Codegen.Cosim.Agreed _ -> ()
   | _ -> Alcotest.fail "honest candidate did not agree");
  let warm = Codegen.Cosim.run ~reference candidate in
  match warm with
  | Codegen.Cosim.Diverged f ->
    check Alcotest.int "shrunk to one step" 1 (List.length f.Codegen.Cosim.script);
    check Alcotest.bool "same failure as a cold run" true (warm = cold)
  | _ -> Alcotest.fail "corrupted candidate not caught after a passing one"

let design_arbitrary =
  QCheck.make
    ~print:(fun (inner, seed) -> Printf.sprintf "inner=%d seed=%d" inner seed)
    QCheck.Gen.(pair (int_range 8 32) (int_range 0 1_000_000))

let rec interleave xs ys =
  match xs with [] -> ys | x :: xs -> x :: interleave ys xs

let prop_verdicts_independent_of_order =
  QCheck.Test.make
    ~name:"partition verdicts independent of order, copy and slot state"
    ~count:10 (QCheck.pair design_arbitrary design_arbitrary)
    (fun ((inner, seed), (other_inner, other_seed)) ->
      let design inner seed =
        let g = Randgen.Generator.generate ~rng:(Prng.create seed) ~inner () in
        (g, ((Core.Paredown.run g).Core.Paredown.solution).Core.Solution.partitions)
      in
      let g, parts = design inner seed in
      let h, other_parts = design other_inner other_seed in
      let verify g (p : Core.Partition.t) =
        Codegen.Verify.check_partition g p.Core.Partition.members
      in
      let expected = List.map (verify g) parts in
      let other_expected = List.map (verify h) other_parts in
      let copy = snd (Netlist.Textio.of_string (Netlist.Textio.to_string g)) in
      let results =
        List.map
          (function
            | `Copy p -> `Copy (verify copy p)
            | `Other p -> `Other (verify h p))
          (interleave
             (List.rev_map (fun p -> `Copy p) parts)
             (List.rev_map (fun p -> `Other p) other_parts))
      in
      let got =
        List.rev (List.filter_map (function `Copy s -> Some s | `Other _ -> None) results)
      and other_got =
        List.rev (List.filter_map (function `Other s -> Some s | `Copy _ -> None) results)
      in
      got = expected && other_got = other_expected)

let () =
  Alcotest.run "verify"
    [
      ( "bounded",
        [
          Alcotest.test_case "sequential merge closes" `Quick
            test_sequential_merge_bounded;
          Alcotest.test_case "toggle chain closes" `Quick
            test_toggle_chain_bounded;
          Alcotest.test_case "budget exhaustion falls back" `Quick
            test_exhausted_budget_falls_back;
          Alcotest.test_case "input width budget" `Quick
            test_input_width_budget;
        ] );
      ( "cosim",
        [
          Alcotest.test_case "equal networks agree" `Quick
            test_cosim_agrees_on_equal_networks;
          Alcotest.test_case "latent race checked at baseline" `Quick
            test_latent_race_checked_at_baseline;
          Alcotest.test_case "corruption caught and shrunk" `Quick
            test_cosim_finds_and_shrinks_corruption;
          Alcotest.test_case "shrink synthetic" `Quick test_shrink_synthetic;
          Alcotest.test_case "shrink keeps dependent pairs" `Quick
            test_shrink_keeps_dependent_pairs;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "stimulus spacing clamped" `Quick
            test_stimulus_spacing_clamped;
          Alcotest.test_case "plan counters pinned" `Quick
            test_plan_counters_pinned;
          Alcotest.test_case "perturbation pool" `Quick test_perturbation_pool;
        ] );
      ( "report",
        [
          Alcotest.test_case "no silent skips on table 1" `Quick
            test_report_no_silent_skips;
          Alcotest.test_case "golden reports and counters" `Quick
            test_golden_reports;
        ] );
      ( "reference",
        [
          Alcotest.test_case "run counters" `Quick test_run_counters;
          Alcotest.test_case "config change misses the slot" `Quick
            test_config_change_misses_slot;
          Alcotest.test_case "corruption after a passing partition" `Quick
            test_corruption_after_passing_partition;
        ] );
      ( "properties",
        Testlib.qtests
          [ prop_random_solutions_never_fail;
            prop_verdicts_independent_of_order ] );
    ]
