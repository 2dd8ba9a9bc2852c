(* The benchmark's own arithmetic: quartiles as Python computes them, the
   tail-percentile support rule, compare's bound logic, and span self-time
   aggregation on a synthetic begin/end stream. *)

open Perfbench

let close = Alcotest.float 1e-9

let quartiles () =
  (* statistics.quantiles(data, n=4) -> [q1, q2, q3] *)
  let check name data (q1, q3) =
    let a, b = Stats.quartiles data in
    Alcotest.check close (name ^ " q1") q1 a;
    Alcotest.check close (name ^ " q3") q3 b
  in
  check "1..4" [ 4.; 2.; 1.; 3. ] (1.25, 3.75);
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 8.25);
  check "two samples extrapolate" [ 5.; 1. ] (0., 6.);
  check "one sample" [ 7. ] (7., 7.);
  Alcotest.check close "median even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.check close "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "spread" (2.5 /. 2.5) (Stats.spread [ 4.; 2.; 1.; 3. ])

let tail_rule () =
  Alcotest.(check bool) "p99 of 1000" true (Stats.tail_supported ~count:1000 0.99);
  Alcotest.(check bool) "p99 of 999" false (Stats.tail_supported ~count:999 0.99);
  Alcotest.(check bool) "p50 of 20" true (Stats.tail_supported ~count:20 0.5);
  let h = Dhw_util.Hist.create () in
  for i = 1 to 999 do
    Dhw_util.Hist.record h (i * 1000)
  done;
  Alcotest.(check (option (float 0.))) "p99 withheld" None (Stats.hist_us ~q:0.99 h);
  Alcotest.(check bool) "p50 printed" true (Stats.hist_us ~q:0.5 h <> None);
  Dhw_util.Hist.record h 1_000_000;
  Alcotest.(check bool) "p99 printed at 1000" true (Stats.hist_us ~q:0.99 h <> None)

let verdicts () =
  let lower = { Verdict.name = "x"; unit_ = "s"; better = Lower; bound = Some 0.1 } in
  let higher = { lower with better = Higher } in
  let side ?(exact = false) samples = { Verdict.samples; exact } in
  let base = side [ 100.; 101.; 99.; 100.; 100. ] in
  let is name expect v =
    Alcotest.(check string) name (Verdict.to_string expect) (Verdict.to_string v)
  in
  is "5% slower is within" (Verdict.Within 0.05)
    (Verdict.judge lower ~base ~cand:(side [ 105.; 105.; 105. ]));
  is "15% slower regresses" (Verdict.Regressed 0.15)
    (Verdict.judge lower ~base ~cand:(side [ 115.; 115.; 115. ]));
  is "15% lower rate regresses" (Verdict.Regressed 0.15)
    (Verdict.judge higher ~base ~cand:(side [ 85.; 85.; 85. ]));
  is "faster is within" (Verdict.Within (-0.2))
    (Verdict.judge lower ~base ~cand:(side [ 80.; 80.; 80. ]));
  let wide = side [ 50.; 100.; 150.; 200. ] in
  is "wide spread is unresolved" (Verdict.Unresolved (Stats.spread wide.samples))
    (Verdict.judge lower ~base ~cand:wide);
  is "wide but better everywhere" Verdict.Better_everywhere
    (Verdict.judge lower ~base ~cand:(side [ 10.; 40.; 60.; 90. ]));
  is "exact counts match" Verdict.Exact_match
    (Verdict.judge lower ~base:(side ~exact:true [ 7. ]) ~cand:(side ~exact:true [ 7. ]));
  is "exact counts differ" (Verdict.Exact_mismatch (7., 8.))
    (Verdict.judge lower ~base:(side ~exact:true [ 7. ]) ~cand:(side ~exact:true [ 8. ]));
  Alcotest.(check bool) "regression fails" true (Verdict.failing (Verdict.Regressed 0.2));
  Alcotest.(check bool) "unresolved does not" false
    (Verdict.failing (Verdict.Unresolved 0.2))

let self_time () =
  let agg = Span_agg.create ~keep:3 () in
  let sink = Span_agg.sink agg in
  let b name ts = sink (Simkit.Obs.Span_begin { name; pid = -1; at = 0; inc = 0; ts_us = ts }) in
  let e name ts = sink (Simkit.Obs.Span_end { name; pid = -1; at = 0; inc = 0; ts_us = ts }) in
  b "round" 0.;
  b "step" 1.;
  e "step" 3.;
  b "step" 4.;
  b "persist" 4.5;  (* never closed: dropped when its step ends *)
  e "step" 5.;
  b "deliver" 6.;
  e "deliver" 9.;
  e "round" 10.;
  b "round" 20.;
  e "round" 25.;
  e "stray" 30.;
  Alcotest.check close "round self" ((10. -. 2. -. 1. -. 3.) +. 5.)
    (Span_agg.self_us agg "round");
  Alcotest.check close "round total" 15. (Span_agg.total_us agg "round");
  Alcotest.check close "step self" 3. (Span_agg.self_us agg "step");
  Alcotest.check close "deliver self" 3. (Span_agg.self_us agg "deliver");
  Alcotest.(check int) "rounds" 2 (Span_agg.count agg "round");
  Alcotest.(check int) "steps" 2 (Span_agg.count agg "step");
  Alcotest.(check int) "unclosed dropped" 0 (Span_agg.count agg "persist");
  Alcotest.check close "self times add up to the round spans"
    (Span_agg.total_us agg "round")
    (List.fold_left
       (fun a n -> a +. Span_agg.self_us agg n)
       0. [ "round"; "step"; "deliver" ]);
  Alcotest.(check int) "kept spans capped" 3 (List.length (Span_agg.kept agg))

let () =
  Alcotest.run "perfbench"
    [
      ( "perf",
        [
          Alcotest.test_case "quartiles follow statistics.quantiles" `Quick quartiles;
          Alcotest.test_case "p99 needs ten samples beyond it" `Quick tail_rule;
          Alcotest.test_case "compare bound logic" `Quick verdicts;
          Alcotest.test_case "span self-time aggregation" `Quick self_time;
        ] );
    ]
