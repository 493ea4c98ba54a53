(* Self-tests of the benchmark's own arithmetic and input generation.
   Run by selftest.py; exits 1 on the first failed check. *)

module C = Perfbench.Calib
module S = Perfbench.Stats
module I = Perfbench.Inputs

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let calibration () =
  let nom = C.nominal_ref_ms in
  check "factor 1 at nominal speed" (close (C.factor ~ref_ms:nom) 1.);
  let e = C.elasticity in
  check "half-speed host" (close (C.factor ~ref_ms:(2. *. nom)) (0.5 ** e));
  check "rescale at nominal" (close (C.rescale ~raw:10. ~ref_before:nom ~ref_after:nom) 10.);
  check "rescale on a 2x faster host"
    (close (C.rescale ~raw:10. ~ref_before:(nom /. 2.) ~ref_after:(nom /. 2.)) (10. *. (2. ** e)));
  check "rescale uses the mean of the bracketing references"
    (close
       (C.rescale ~raw:10. ~ref_before:(nom /. 2.) ~ref_after:(3. *. nom /. 2.))
       10.);
  check "kernel measures a positive time" (C.measure () > 0.);
  (* an operation's reference is the median of the references within
     [C.window] operations of it *)
  let refs = Array.init 40 (fun i -> if i = 20 then 100. else float_of_int (i mod 3)) in
  check "window median ignores a spike" (C.op_ref refs 20 = 1.);
  check "window at the start" (C.op_ref [| 5.; 1.; 3. |] 0 = 3.);
  check "window of an even count"
    (C.op_ref (Array.init (C.window + 2) float_of_int) 0 = float_of_int (C.window + 1) /. 2.)

let percentiles () =
  let xs = List.init 101 (fun i -> float_of_int (i + 1)) in
  let near a b = Float.abs (a -. b) < 1e-6 in
  check "p50 of a symmetric sample is its centre" (near (S.percentile xs 50.) 51.);
  check "p50 of 3" (near (S.percentile [ 3.; 1.; 2. ] 50.) 2.);
  check "constant sample" (near (S.percentile (List.init 50 (fun _ -> 7.)) 90.) 7.);
  (* the Harrell-Davis p90 of 1..101 is 91.40 *)
  check "p90 of 1..101" (Float.abs (S.percentile xs 90. -. 91.4) < 1e-6);
  check "p90 ignores the order of the samples"
    (near (S.percentile xs 90.) (S.percentile (List.rev xs) 90.));
  check "gamma(5) = 24" (near (S.log_gamma 5.) (Float.log 24.));
  check "gamma(0.5) = sqrt pi" (near (S.log_gamma 0.5) (0.5 *. Float.log Float.pi));
  check "I_0.5(2, 2) = 0.5" (near (S.incomplete_beta 2. 2. 0.5) 0.5);
  check "p90 valid at n=100" (S.valid ~n:100 90.);
  check "p90 invalid at n=99" (not (S.valid ~n:99 90.));
  check "ten beyond p90 at n=100" (S.beyond ~n:100 90. = 10);
  check "highest at n=99 is p50" (S.highest_valid ~n:99 = Some 50.);
  check "highest at n=100 is p90" (S.highest_valid ~n:100 = Some 90.);
  check "highest at n=1000 is p99" (S.highest_valid ~n:1000 = Some 99.);
  check "highest at n=10000 is p99.9" (S.highest_valid ~n:10000 = Some 99.9);
  check "none at n=19" (S.highest_valid ~n:19 = None);
  check "p50 at n=20" (S.highest_valid ~n:20 = Some 50.)

let texts seed designs =
  let rng = Prng.create seed in
  List.map (fun d -> (I.send rng ~tag:"t" d).I.text) designs

let inputs () =
  let designs =
    Lazy.force I.synth_corpus @ List.map (fun q -> q.I.design) (I.cold_round 1)
  in
  check "same seed, same bytes" (texts 5 designs = texts 5 designs);
  check "other seed, other bytes"
    (List.for_all2 ( <> ) (texts 5 designs) (texts 6 designs));
  check "rounds are fixed sets"
    (List.map (fun q -> Netlist.Textio.to_string q.I.design.I.graph) (I.cold_round 2)
    = List.map (fun q -> Netlist.Textio.to_string q.I.design.I.graph) (I.cold_round 2));
  check "exhaustive requests only on small designs"
    (List.for_all
       (fun q ->
         q.I.backend <> Service.Oneshot.Exhaustive
         || Netlist.Graph.inner_count q.I.design.I.graph <= 10)
       (I.cold_round 0 @ I.cold_round 3 @ Lazy.force I.warm_pool));
  (* relabelling keeps the work and the answer up to renaming *)
  List.iter
    (fun (d : I.design) ->
      let s = I.send (Prng.create 9) ~tag:"t" d in
      let g' = snd (Netlist.Textio.of_string s.I.text) in
      let blocks g =
        Core.Solution.total_inner_after g (Core.Paredown.run g).Core.Paredown.solution
      in
      check (d.I.label ^ ": relabel keeps PareDown's answer")
        (Netlist.Graph.inner_count g' = Netlist.Graph.inner_count d.I.graph
        && blocks g' = blocks d.I.graph
        && Service.Canon.digest (Service.Canon.of_graph g')
           = Service.Canon.digest (Service.Canon.of_graph d.I.graph)))
    (Lazy.force I.synth_corpus)

let () =
  calibration ();
  percentiles ();
  inputs ();
  if !failures = 0 then print_endline "selftest: all checks passed"
  else begin
    Printf.printf "selftest: %d check(s) failed\n" !failures;
    exit 1
  end
