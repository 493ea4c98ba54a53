let sum xs = List.fold_left ( +. ) 0. xs

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank of the [p]th percentile among [n] samples (1-based). *)
let rank ~n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

(* Samples strictly beyond the [p]th percentile. *)
let beyond ~n p = n - rank ~n p

(* The percentile rule: a tail percentile is reported only when at
   least ten samples lie beyond it.  [highest_valid ~n] is the highest
   of the candidate percentiles that qualifies. *)
let candidates = [ 99.9; 99.; 90.; 50. ]
let valid ~n p = beyond ~n p >= 10
let highest_valid ~n = List.find_opt (fun p -> valid ~n p) candidates

(* log Γ(x) for x > 0: Lanczos (g = 7, nine terms), shifted up for
   small arguments. *)
let rec log_gamma x =
  if x < 0.5 then log_gamma (x +. 1.) -. Float.log x
  else
    let c =
      [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
         771.32342877765313; -176.61502916214059; 12.507343278686905;
         -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
    in
    let x = x -. 1. in
    let a = ref c.(0) in
    for i = 1 to 8 do
      a := !a +. (c.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. Float.log (2. *. Float.pi)) +. ((x +. 0.5) *. Float.log t) -. t +. Float.log !a

(* Regularized incomplete beta function I_x(a, b), by the continued
   fraction of Numerical Recipes (modified Lentz). *)
let incomplete_beta a b x =
  let tiny = 1e-300 in
  let clamp d = if Float.abs d < tiny then tiny else d in
  let cf a b x =
    let c = ref 1. and d = ref (1. /. clamp (1. -. ((a +. b) *. x /. (a +. 1.)))) in
    let h = ref !d in
    (try
       for m = 1 to 300 do
         let m = float_of_int m in
         let step aa =
           d := 1. /. clamp (1. +. (aa *. !d));
           c := clamp (1. +. (aa /. !c));
           !d *. !c
         in
         h := !h *. step (m *. (b -. m) *. x /. ((a +. (2. *. m) -. 1.) *. (a +. (2. *. m))));
         let delta =
           step (-.(a +. m) *. (a +. b +. m) *. x /. ((a +. (2. *. m)) *. (a +. (2. *. m) +. 1.)))
         in
         h := !h *. delta;
         if Float.abs (delta -. 1.) < 3e-14 then raise Exit
       done
     with Exit -> ());
    !h
  in
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let front =
      Float.exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b
        +. (a *. Float.log x) +. (b *. Float.log (1. -. x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. cf a b x /. a
    else 1. -. (front *. cf b a (1. -. x) /. b)

(* The [p]th percentile as a Harrell–Davis estimate: a weighted mean of
   the order statistics around the rank, with Beta(p(n+1), (1-p)(n+1))
   weights.  Where the samples thin out in a tail, the plain rank
   statistic hops from one sample to the next between runs; this
   estimate moves smoothly. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let q = p /. 100. in
  let alpha = q *. float_of_int (n + 1) and beta = (1. -. q) *. float_of_int (n + 1) in
  let acc = ref 0. and prev = ref 0. in
  for i = 1 to n do
    let cur = incomplete_beta alpha beta (float_of_int i /. float_of_int n) in
    acc := !acc +. ((cur -. !prev) *. a.(i - 1));
    prev := cur
  done;
  !acc
