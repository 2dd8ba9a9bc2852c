(* Order statistics behind every reported number.

   Quartiles follow Python's [statistics.quantiles(values, n=4)] (its
   default "exclusive" method) and the median is [statistics.median], so
   the spreads printed here are the ones external tooling computes from
   the same samples. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Cut point [i] of [q]: with m = n + 1, j = i*m/q clamped to [1, n-1]
   and delta = i*m - j*q, interpolate between the j-th and (j+1)-th
   order statistics (1-based). One sample is its own every quantile. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0))
  else
    let q = 4 and m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / q)) in
      let delta = (i * m) - (j * q) in
      ((a.(j - 1) *. float_of_int (q - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int q
    in
    (cut 1, cut 3)

(* Interquartile distance as a share of the median: the steadiness figure
   [compare] holds against a metric's bound. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs m

(* A tail percentile is worth printing only with at least ten samples
   beyond it: p99 needs 1000 samples. *)
let tail_supported ~count q = float_of_int count *. (1. -. q) >= 10. -. 1e-9

(* [q]-quantile of a histogram of nanosecond samples, in microseconds;
   [None] when the tail rule above does not hold. *)
let hist_us ?(q = 0.5) h =
  let count = Dhw_util.Hist.count h in
  if count = 0 || (q > 0.5 && not (tail_supported ~count q)) then None
  else Some (float_of_int (Dhw_util.Hist.quantile h q) /. 1000.)
