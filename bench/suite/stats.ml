(* Order statistics for latency samples and run-to-run spreads. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of the [p]th percentile; the epsilon keeps
   decimal percentiles such as 99.9 from rounding up a whole rank. *)
let rank_of ~n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

(* Nearest-rank percentile of a sorted sample: the smallest value with at
   least [p]% of the sample at or below it. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let rank = rank_of ~n p in
  a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = percentile_sorted (sorted xs) p

let median xs = percentile xs 50.

(* Samples strictly above the nearest-rank [p]th percentile. *)
let beyond ~n p = n - rank_of ~n p

let supports ~n p = n > 0 && beyond ~n p >= 10

(* The tail a sample of [n] supports: the highest whole percentile, at
   most 99, that leaves at least ten samples beyond it, so a tail is
   never read off fewer than ten observations ([None] below the median). *)
let tail_percentile n =
  if n <= 10 then None
  else
    let p = min 99 (100 * (n - 10) / n) in
    if p < 50 then None else Some (float_of_int p)

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   computes them (the default "exclusive" method), so spreads quoted
   by this harness and by an external checker agree. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let rel_spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs q2

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)
