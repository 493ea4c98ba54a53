(* Host calibration.  This VM's speed drifts by more than 2x within
   minutes, with CPU time equal to wall time, so a fixed piece of
   benchmark-owned work is timed between operations, and every
   operation's wall time is rescaled by (nominal / measured reference
   time) ^ [elasticity].  The kernel never runs while the program under
   test (or the server child) is working: it runs on the client between
   operations, when the server is blocked reading its next batch. *)

(* Reference time of [kernel] on the host the benchmark was written on
   (2-core x86-64 VM); calibrated figures read as "time on that host".
   Only its constancy matters. *)
let nominal_ref_ms = 1.25

let keys = 3000

module M = Map.Make (Int)

(* ALU plus memory walk, in the program's own idiom: [keys] inserts of
   xorshift keys into a balanced tree (comparisons, a pointer walk down
   the tree, a freshly allocated path per insert, so minor collections
   too), then a fold over the result.  A 4 MiB random pointer chase and
   a pure ALU loop were tried first; they tracked the program's speed
   worse (see NOTES.md). *)
let kernel () =
  let x = ref 0x2545F4914F6CDD1D in
  let m = ref M.empty in
  for i = 1 to keys do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    m := M.add (v land 0xFFFFF) i !m
  done;
  M.fold (fun k v acc -> acc + k + v) !m 0

let now_ms () = Int64.to_float (Obs.Clock.now_ns ()) /. 1e6

(* One reference measurement, in ms: the median of three kernel runs,
   so a run that was preempted or interrupted does not skew the
   operations it brackets. *)
let measure () =
  let once () =
    let t0 = now_ms () in
    ignore (Sys.opaque_identity (kernel ()));
    now_ms () -. t0
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* The program slows down a little more than the kernel does when the
   host slows: over ten runs of each workload, log(raw time) against
   log(median reference) had slopes of 1.17 to 1.21 on three workloads;
   the fourth's runs were too calm to tell (NOTES.md).  So times are
   rescaled by that power of the speed ratio. *)
let elasticity = 1.2

(* The calibration arithmetic. *)
let factor ~ref_ms = (nominal_ref_ms /. ref_ms) ** elasticity

(* [ref_before] and [ref_after] bracket the set-up; their mean is the
   host speed "at the same moment". *)
let rescale ~raw ~ref_before ~ref_after =
  raw *. factor ~ref_ms:((ref_before +. ref_after) /. 2.)

(* An operation's reference: the median of the references measured
   within [window] operations of it.  [refs.(i)] is measured just
   before operation [i] and [refs.(i + 1)] just after it.  A single
   reference is noisy (its own timing jitter would be added to every
   latency), and the host's speed drifts over seconds, not
   milliseconds; over the runs in NOTES.md this median of 22
   references cut the run-to-run spread of the tail latencies by 30-45%
   against the mean of the two bracketing ones. *)
let window = 10

let op_ref refs i =
  let lo = max 0 (i - window) and hi = min (Array.length refs - 1) (i + 1 + window) in
  Report.Stats.median (Array.to_list (Array.sub refs lo (hi - lo + 1)))
