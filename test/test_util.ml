(* Unit and property tests for Dhw_util: the PRNG, integer math and table
   rendering. *)

module Prng = Dhw_util.Prng
module Intmath = Dhw_util.Intmath
module Table = Dhw_util.Table

let test_prng_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_distinct_seeds () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_copy () =
  let a = Prng.create 7L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_prng_bounds () =
  let g = Prng.create 9L in
  for _ = 1 to 1000 do
    let v = Prng.int g 7 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 7);
    let w = Prng.int_in g 3 5 in
    Alcotest.(check bool) "int_in in range" true (w >= 3 && w <= 5);
    let f = Prng.float g 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_int_uniformish () =
  let g = Prng.create 123L in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Prng.int g 5 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (abs (c - (n / 5)) < n / 25))
    counts

let test_sample_without_replacement () =
  let g = Prng.create 55L in
  for _ = 1 to 200 do
    let k = Prng.int g 10 and bound = 10 + Prng.int g 20 in
    let sample = Prng.sample_without_replacement g k bound in
    Alcotest.(check int) "size" k (List.length sample);
    Alcotest.(check bool) "sorted distinct in range" true
      (let rec ok = function
         | [] -> true
         | [ x ] -> x >= 0 && x < bound
         | x :: (y :: _ as rest) -> x >= 0 && x < y && ok rest
       in
       ok sample)
  done

(* The stream itself, pinned: fixed seeds give these samples, and the
   generator is left where these draws put it. *)
let test_sample_without_replacement_pinned () =
  List.iter
    (fun (seed, k, bound, sample, next) ->
      let g = Prng.create seed in
      let name = Printf.sprintf "seed %Ld, %d of %d" seed k bound in
      Alcotest.(check (list int)) name sample (Prng.sample_without_replacement g k bound);
      Alcotest.(check int) (name ^ ": next draw") next (Prng.int g 1000))
    [
      (1L, 5, 100, [ 16; 56; 83; 89; 90 ], 512);
      (42L, 8, 8, [ 0; 1; 2; 3; 4; 5; 6; 7 ], 501);
      (7L, 3, 1_000_000, [ 85171; 159522; 902336 ], 50);
      (2024L, 10, 40, [ 4; 13; 19; 20; 21; 22; 26; 28; 34; 36 ], 886);
    ]

let test_shuffle_permutation () =
  let g = Prng.create 77L in
  let a = Array.init 30 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 30 Fun.id) sorted

let prop_isqrt =
  Helpers.qcheck_case ~count:500 ~name:"isqrt: r*r <= n < (r+1)^2"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun n ->
      let r = Intmath.isqrt n in
      (r * r <= n) && (r + 1) * (r + 1) > n)

let prop_isqrt_up =
  Helpers.qcheck_case ~count:500 ~name:"isqrt_up: smallest r with r*r >= n"
    QCheck2.Gen.(1 -- 1_000_000)
    (fun n ->
      let r = Intmath.isqrt_up n in
      r * r >= n && (r - 1) * (r - 1) < n)

let prop_ilog2 =
  Helpers.qcheck_case ~count:500 ~name:"ilog2: 2^l <= n < 2^(l+1)"
    QCheck2.Gen.(1 -- 1_000_000_000)
    (fun n ->
      let l = Intmath.ilog2 n in
      (1 lsl l) <= n && n < 1 lsl (l + 1))

let prop_next_pow2 =
  Helpers.qcheck_case ~count:500 ~name:"next_power_of_two: tight"
    QCheck2.Gen.(1 -- 1_000_000)
    (fun n ->
      let p = Intmath.next_power_of_two n in
      Intmath.is_power_of_two p && p >= n && p / 2 < n)

let prop_ceil_div =
  Helpers.qcheck_case ~count:500 ~name:"ceil_div: smallest q with q*b >= a"
    QCheck2.Gen.(pair (0 -- 1_000_000) (1 -- 1000))
    (fun (a, b) ->
      let q = Intmath.ceil_div a b in
      q * b >= a && (q - 1) * b < a)

let test_pow () =
  Alcotest.(check int) "2^10" 1024 (Intmath.pow 2 10);
  Alcotest.(check int) "3^0" 1 (Intmath.pow 3 0);
  Alcotest.(check int) "7^5" 16807 (Intmath.pow 7 5);
  Alcotest.check_raises "overflow" (Failure "Intmath: overflow") (fun () ->
      ignore (Intmath.pow 2 63))

let test_checked () =
  Alcotest.(check int) "mul ok" 35 (Intmath.checked_mul 5 7);
  Alcotest.check_raises "mul overflow" (Failure "Intmath: overflow") (fun () ->
      ignore (Intmath.checked_mul max_int 2));
  Alcotest.check_raises "add overflow" (Failure "Intmath: overflow") (fun () ->
      ignore (Intmath.checked_add max_int 1))

let test_table_render () =
  let t = Table.create ~title:"T" [ ("a", Table.Left); ("bb", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "long-cell"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains cells" true
    (let contains needle =
       let n = String.length needle and h = String.length s in
       let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
       go 0
     in
     contains "long-cell" && contains "22" && contains "| a")

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_fmt_int () =
  Alcotest.(check string) "thousands" "1,234,567" (Table.fmt_int 1234567);
  Alcotest.(check string) "small" "42" (Table.fmt_int 42);
  Alcotest.(check string) "negative" "-1,000" (Table.fmt_int (-1000));
  Alcotest.(check string) "zero" "0" (Table.fmt_int 0)

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng distinct seeds" `Quick test_prng_distinct_seeds;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng uniformity" `Quick test_prng_int_uniformish;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "sample without replacement: pinned stream" `Quick
      test_sample_without_replacement_pinned;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    prop_isqrt;
    prop_isqrt_up;
    prop_ilog2;
    prop_next_pow2;
    prop_ceil_div;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "checked arithmetic" `Quick test_checked;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity;
    Alcotest.test_case "fmt_int" `Quick test_fmt_int;
  ]
