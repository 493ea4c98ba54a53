(* One benchmark run: set up a workload several times, then run whole
   rounds of its operations in closed loop from this single client,
   timing each call and checking each output.  The last line of stdout
   is the JSON result; see NOTES.md.

   bench.exe --workload W --seed N --seconds S --trace 0|1
             --paredown PATH_TO_paredown.exe *)

let setup_repetitions = 3

(* Per-layer figures of the traced run, in this order; [_ms] values are
   calibrated milliseconds of self time per operation. *)
let layer_times =
  [
    "codegen.verify.proven"; "codegen.verify.bounded"; "codegen.verify.cosim";
    "codegen.verify.skipped"; "sim.equiv"; "core.paredown"; "codegen.replace";
    "codegen.emit"; "netlist.textio"; "service.canon"; "service.protocol";
    "service.resolve"; "core.search"; "service.cache.insert";
    "service.cache.find"; "service.cache.replay"; "reliability.estimate";
  ]

type sample = {
  raw_ms : float;
  ref_before : float;
  ref_after : float;
  cal_ms : float;
  factor : float;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 --paredown EXE";
  exit 2

let () =
  (* a terminated run still stops its server child (see Serve_client) *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  let workload = ref "" and seed = ref (-1) and seconds = ref 0
  and trace = ref (-1) and paredown = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "");
      ("--seed", Arg.Set_int seed, "");
      ("--seconds", Arg.Set_int seconds, "");
      ("--trace", Arg.Set_int trace, "");
      ("--paredown", Arg.Set_string paredown, "");
    ]
    (fun _ -> usage ())
    "";
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) || !paredown = ""
  then usage ();
  let traced = !trace = 1 in
  let spans = if traced then Some (Perfbench.Spans.create ()) else None in
  let ctx = { Perfbench.Workloads.seed = !seed; spans; paredown_exe = !paredown } in
  let w =
    match Perfbench.Workloads.make ctx !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " Perfbench.Workloads.names);
      exit 2
  in
  let module C = Perfbench.Calib in
  let module S = Perfbench.Stats in
  for _ = 1 to 3 do ignore (C.measure ()) done;
  (* --- set-up, repeated; the last one stays live ------------------- *)
  let setup_failures = ref [] in
  let setup_s =
    List.init setup_repetitions (fun rep ->
        let timed = w.setup rep in
        let r0 = C.measure () in
        let t0 = C.now_ms () in
        let check = timed () in
        let raw = C.now_ms () -. t0 in
        let r1 = C.measure () in
        setup_failures := !setup_failures @ check ();
        C.rescale ~raw ~ref_before:r0 ~ref_after:r1 /. 1000.)
  in
  w.reset ();
  Option.iter Perfbench.Spans.clear spans;
  (* --- timed rounds ----------------------------------------------- *)
  let rounds =
    max w.min_rounds
      (int_of_float (Float.round (float_of_int !seconds /. w.nominal_round_s)))
  in
  let raws = ref [] and outcomes = ref [] and refs = ref [] in
  let mirror_ms = ref 0. in
  let first_round = ref [] in
  let op_index = ref 0 and failures = ref 0 in
  let broken e =
    { Perfbench.Workloads.ok = false; before = 0; after = 0; why = Printexc.to_string e }
  in
  let loop_t0 = C.now_ms () in
  (try
     for r = 0 to rounds - 1 do
       List.iter
         (fun (op : Perfbench.Workloads.op) ->
           Option.iter (fun s -> Perfbench.Spans.set_op s !op_index) spans;
           let m0 = C.now_ms () in
           op.mirror ();
           mirror_ms := !mirror_ms +. (C.now_ms () -. m0);
           refs := C.measure () :: !refs;
           let t0 = C.now_ms () in
           let result = try Ok (op.run ()) with e -> Error e in
           raws := (C.now_ms () -. t0) :: !raws;
           let outcome =
             match result with
             | Ok check -> ( try check () with e -> broken e)
             | Error e -> broken e
           in
           outcomes := outcome :: !outcomes;
           if r = 0 then first_round := outcome :: !first_round;
           incr op_index;
           if not outcome.Perfbench.Workloads.ok then begin
             incr failures;
             (* a broken server or program fails every later operation *)
             if !failures > 20 then raise Exit
           end)
         (w.round r)
     done
   with Exit -> ());
  refs := C.measure () :: !refs;
  let loop_s = (C.now_ms () -. loop_t0) /. 1000. in
  let peak_rss_mb = try w.peak_rss_mb () with _ -> nan in
  let finish_error = try w.finish (); None with e -> Some (Printexc.to_string e) in
  (* --- metrics ----------------------------------------------------- *)
  let outcomes = List.rev !outcomes in
  let ref_array = Array.of_list (List.rev !refs) in
  let samples =
    List.rev !raws
    |> List.mapi (fun i raw ->
           let factor = C.factor ~ref_ms:(C.op_ref ref_array i) in
           { raw_ms = raw; ref_before = ref_array.(i); ref_after = ref_array.(i + 1);
             cal_ms = raw *. factor; factor })
  in
  let n = List.length samples in
  let failed = List.length (List.filter (fun o -> not o.Perfbench.Workloads.ok) outcomes) in
  let cal = List.map (fun s -> s.cal_ms) samples in
  let raw = List.map (fun s -> s.raw_ms) samples in
  let blocks_before, blocks_after =
    List.fold_left
      (fun (b, a) o -> (b + o.Perfbench.Workloads.before, a + o.Perfbench.Workloads.after))
      (0, 0) !first_round
  in
  let problems =
    List.map (fun s -> "set-up: " ^ s) !setup_failures
    @ Option.to_list (Option.map (fun e -> "tear-down: " ^ e) finish_error)
    @ (if S.valid ~n 90. then []
       else [ Printf.sprintf "%d operations: too few for a 90th percentile" n ])
    @ List.filter_map
        (fun o -> if o.Perfbench.Workloads.ok then None else Some o.Perfbench.Workloads.why)
        outcomes
  in
  let correct = problems = [] && n > 0 in
  let sum_cal_s = S.sum cal /. 1000. and sum_raw_s = S.sum raw /. 1000. in
  let pct xs p = if n = 0 then nan else S.percentile xs p in
  let end_to_end =
    [
      ("ops_per_s", float_of_int n /. sum_cal_s, "1/s");
      ("latency_p50_ms", pct cal 50., "ms");
      ("latency_p90_ms", pct cal 90., "ms");
      ("setup_s", Report.Stats.median setup_s, "s");
      ("peak_rss_mb", peak_rss_mb, "MB");
      ("ok_share", float_of_int (n - failed) /. float_of_int (max 1 n), "share");
      ("blocks_after", float_of_int blocks_after /. float_of_int (max 1 blocks_before), "ratio");
    ]
  in
  let host =
    [
      ("host.ref_ms", Report.Stats.median !refs, "ms");
      ("host.raw_ops_per_s", float_of_int n /. sum_raw_s, "1/s");
      ("host.calibration_factor", Report.Stats.median (List.map (fun s -> s.factor) samples),
       "ratio");
    ]
  in
  let counts = w.counts () in
  let per_layer () =
    let sp = Option.get spans in
    let factors = Array.of_list (List.map (fun s -> s.factor) samples) in
    let scale op = if op < Array.length factors then factors.(op) else 1. in
    let self = Perfbench.Spans.self_by_name ~scale sp in
    let get name = Option.value (Hashtbl.find_opt self name) ~default:0. in
    let total = Hashtbl.fold (fun _ v acc -> acc +. v) self 0. in
    let per_op x = x /. float_of_int (max 1 n) in
    let count name = Option.value (List.assoc_opt name counts) ~default:0. in
    let serve = !workload = "serve_cold" || !workload = "serve_warm" in
    (* coverage: layer time over the timed operations' time — the same
       calls, or for mirrored workloads the timed call the spans replay
       (the served round trip, the real Oneshot.weighted) *)
    let coverage = total /. S.sum cal in
    let span_cost_ms =
      let probe = Perfbench.Spans.create () in
      let k = 20_000 in
      let t0 = C.now_ms () in
      for _ = 1 to k do Perfbench.Spans.with_span probe "x" ignore done;
      (C.now_ms () -. t0) /. float_of_int k
    in
    let traced_ms = if w.mirrored then !mirror_ms else S.sum raw in
    let simulations = count "reliability.simulations" in
    List.map (fun l -> (l ^ "_ms", per_op (get l), "ms")) layer_times
    @ [
        ("codegen.verify.useful_share", count "codegen.verify.useful_share", "share");
        ("reliability.replay_us",
         (if simulations = 0. then 0. else get "reliability.estimate" *. 1000. /. simulations),
         "us");
        ("core.run_weighted_self_ms", per_op (get "core.run_weighted"), "ms");
        ("service.cache.hit_share", count "service.cache.hit_share", "share");
        ("service.canon.exact_share", count "service.canon.exact_share", "share");
        ("reliability.estimates", per_op (count "reliability.estimates"), "count");
        ("reliability.cache_hit_share", count "reliability.cache_hit_share", "share");
        ("sim.equiv.race_limited", count "sim.equiv.race_limited", "count");
        ("trace.coverage", coverage, "share");
        ("serve.unaccounted_share", (if serve then 1. -. coverage else 0.), "share");
        ("trace.overhead_share",
         float_of_int (Perfbench.Spans.count sp) *. span_cost_ms /. traced_ms, "share");
      ]
    @ host
  in
  let reported = if traced then per_layer () else end_to_end in
  (* --- report ------------------------------------------------------ *)
  Printf.printf "workload %s  seed %d  trace %d  rounds %d  operations %d  loop %.1f s\n"
    !workload !seed !trace rounds n loop_s;
  Printf.printf "set-up repetitions: %s s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup_s));
  Printf.printf "latency percentile rule: highest valid %s at n=%d\n"
    (match S.highest_valid ~n with Some p -> Printf.sprintf "p%g" p | None -> "none")
    n;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-34s %14.6f %s\n" name v unit)
    (end_to_end @ (if traced then reported else host));
  if problems <> [] then begin
    Printf.printf "%d failed check(s); first: %s\n" (List.length problems)
      (List.hd problems)
  end;
  (* per-operation timings, for the calibration evidence in NOTES.md *)
  (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
  Out_channel.with_open_text
    (Printf.sprintf ".perfbench/samples-%s-%d-%d.tsv" !workload !seed !trace)
    (fun oc ->
      output_string oc "raw_ms\tref_before_ms\tref_after_ms\tcalibrated_ms\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%.6f\t%.6f\t%.6f\t%.6f\n" s.raw_ms s.ref_before
            s.ref_after s.cal_ms)
        samples);
  Option.iter
    (fun sp ->
      let path = Printf.sprintf ".perfbench/spans-%s-%d.json" !workload !seed in
      Perfbench.Spans.write sp path;
      Printf.printf "spans: %d written to %s\n" (Perfbench.Spans.count sp) path)
    spans;
  let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null" in
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      reported
  in
  let correct = correct && List.for_all (fun (_, v, _) -> Float.is_finite v) reported in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 n) failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
