(* Observability stack: the Jsonw writer, Obs event sinks, timeline
   invariants (sync and async), and the golden run-report fixture. *)

module J = Dhw_util.Jsonw
module Obs = Simkit.Obs
module Metrics = Simkit.Metrics
module Gen = QCheck2.Gen

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Jsonw *)

let test_jsonw_scalars () =
  check_s "null" "null" (J.to_string J.Null);
  check_s "true" "true" (J.to_string (J.Bool true));
  check_s "int" "-42" (J.to_string (J.Int (-42)));
  check_s "integral float" "2.0" (J.to_string (J.Float 2.0));
  check_s "fraction" "0.5" (J.to_string (J.Float 0.5));
  check_s "nan -> null" "null" (J.to_string (J.Float Float.nan));
  check_s "inf -> null" "null" (J.to_string (J.Float Float.infinity))

let test_jsonw_escaping () =
  check_s "specials" {|"a\"b\\c"|} (J.to_string (J.Str "a\"b\\c"));
  check_s "whitespace" {|"x\n\r\ty"|} (J.to_string (J.Str "x\n\r\ty"));
  check_s "control" {|"\u0001"|} (J.to_string (J.Str "\001"))

let test_jsonw_structure () =
  check_s "empties" {|{"a":[],"b":{}}|}
    (J.to_string (J.Obj [ ("a", J.Arr []); ("b", J.Obj []) ]));
  check_s "field order preserved" {|{"b":1,"a":[true,null]}|}
    (J.to_string (J.Obj [ ("b", J.Int 1); ("a", J.Arr [ J.Bool true; J.Null ]) ]));
  check_s "pretty" "{\n  \"x\": 1,\n  \"y\": [\n    2\n  ]\n}"
    (J.pretty (J.Obj [ ("x", J.Int 1); ("y", J.Arr [ J.Int 2 ]) ]))

let test_table_to_json () =
  let tbl = Dhw_util.Table.create ~title:"T" [ ("a", Dhw_util.Table.Left); ("b", Right) ] in
  Dhw_util.Table.add_row tbl [ "x"; "1" ];
  Dhw_util.Table.add_rule tbl;
  Dhw_util.Table.add_row tbl [ "y"; "2" ];
  check_s "rules dropped, rows kept"
    {|{"id":"E0","title":"T","headers":["a","b"],"rows":[["x","1"],["y","2"]]}|}
    (J.to_string (Dhw_util.Table.to_json ~id:"E0" tbl))

(* ------------------------------------------------------------------ *)
(* Obs events and sinks *)

let test_event_json () =
  check_s "work"
    {|{"ev":"work","at":3,"pid":1,"unit":7}|}
    (J.to_string (Obs.event_to_json (Obs.Work { pid = 1; at = 3; unit_id = 7 })));
  check_s "send"
    {|{"ev":"send","at":2,"src":0,"dst":4,"tag":"ckpt"}|}
    (J.to_string
       (Obs.event_to_json (Obs.Send { src = 0; dst = 4; at = 2; tag = "ckpt" })));
  check_s "crash" {|{"ev":"crash","at":9,"pid":5}|}
    (J.to_string (Obs.event_to_json (Obs.Crash { pid = 5; at = 9 })));
  check_i "at" 9 (Obs.at (Obs.Crash { pid = 5; at = 9 }))

let test_memory_tee_printer () =
  let spec = Helpers.spec ~n:24 ~t:6 in
  let sink, captured = Obs.memory () in
  let fault = Simkit.Fault.crash_silently_at [ (0, 3); (2, 7) ] in
  let _r = Doall.Runner.run ~fault ~obs:sink spec Doall.Protocol_a.protocol in
  let live = captured () in
  check_b "stream is non-empty" true (live <> []);
  (* tee duplicates the stream in order *)
  let s3, c3 = Obs.memory () and s4, c4 = Obs.memory () in
  List.iter (Obs.tee [ s3; s4 ]) live;
  check_b "tee fans out" true (c3 () = live && c4 () = live);
  (* the printer: one line per event, a truncated tail announced *)
  let line = Format.asprintf "%a" Obs.pp_event in
  List.iter
    (fun (want, e) -> check_s want want (line e))
    [
      ("[r2] p1 steps", Obs.Step { pid = 1; at = 2 });
      ("[r2] p1 -> p3 : (1)", Obs.Send { src = 1; dst = 3; at = 2; tag = "(1)" });
      ("[r2] p1 -/-> p3 : (1) (crash)", Obs.Drop { src = 1; dst = 3; at = 2; tag = "(1)" });
      ("[r2] p1 performs unit 7", Obs.Work { pid = 1; at = 2; unit_id = 7 });
      ("[r2] p1 CRASHES", Obs.Crash { pid = 1; at = 2 });
      ("[r2] p1 RESTARTS", Obs.Restart { pid = 1; at = 2 });
      ("[r2] p1 persists", Obs.Persist { pid = 1; at = 2 });
      ("[r2] p1 payload TAMPERED", Obs.Tamper { pid = 1; at = 2 });
      ("[r2] p1 rejects a message", Obs.Reject { pid = 1; at = 2 });
      ("[r2] p1 terminates", Obs.Terminate { pid = 1; at = 2 });
      ( "[r2] p1 begins step (inc 1)",
        Obs.Span_begin { name = "step"; pid = 1; at = 2; inc = 1; ts_us = 5. } );
      ( "[r2] p1 ends step (inc 1)",
        Obs.Span_end { name = "step"; pid = 1; at = 2; inc = 1; ts_us = 6. } );
    ];
  let first, second =
    match live with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "short stream"
  in
  check_s "limit"
    (Printf.sprintf "%s\n%s\n... (+%d more events)\n" (line first) (line second)
       (List.length live - 2))
    (Format.asprintf "%a" (Obs.pp ~limit:2) live);
  check_s "no limit" (String.concat "" (List.map (fun e -> line e ^ "\n") live))
    (Format.asprintf "%a" (Obs.pp ?limit:None) live)

let test_spark () =
  check_s "ramp" ".:@" (Obs.Timeline.spark [ 0; 1; 100 ]);
  check_s "scaled" ":@" (Obs.Timeline.spark ~max:8 [ 1; 8 ]);
  check_s "all zero" "..." (Obs.Timeline.spark [ 0; 0; 0 ])

(* ------------------------------------------------------------------ *)
(* Timeline invariants: per-round rows are consistent and the final row
   reproduces the Metrics totals, on both substrates. *)

let check_rows_invariants ~np (rows : Obs.Timeline.row list) =
  let ok = ref true in
  let prev = ref None in
  List.iter
    (fun (r : Obs.Timeline.row) ->
      if r.effort <> r.work + r.msgs then ok := false;
      if r.alive <> np - r.crashes + r.restarts - r.terminated then ok := false;
      (match !prev with
      | Some (p : Obs.Timeline.row) ->
          if p.at >= r.at then ok := false;
          if p.work > r.work || p.msgs > r.msgs || p.effort > r.effort then
            ok := false;
          if p.covered > r.covered then ok := false;
          if p.crashes > r.crashes || p.terminated > r.terminated then
            ok := false;
          if p.restarts > r.restarts || p.persists > r.persists then
            ok := false;
          (* alive only rises when a restart committed *)
          if p.alive < r.alive && p.restarts = r.restarts then ok := false
      | None -> ());
      prev := Some r)
    rows;
  !ok

let final_matches_metrics (tl : Obs.Timeline.t) (m : Metrics.t) =
  match Obs.Timeline.final tl with
  | None -> Metrics.work m = 0 && Metrics.messages m = 0
  | Some f ->
      f.Obs.Timeline.work = Metrics.work m
      && f.Obs.Timeline.msgs = Metrics.messages m
      && f.Obs.Timeline.effort = Metrics.effort m
      && f.Obs.Timeline.covered = Metrics.units_covered m
      && f.Obs.Timeline.crashes = Metrics.crashes m
      && f.Obs.Timeline.terminated = Metrics.terminated m
      && f.Obs.Timeline.restarts = Metrics.restarts m
      && f.Obs.Timeline.persists = Metrics.persists m

(* instance + silent-crash schedule (as in Test_properties) *)
let gen_case ~max_n ~max_t =
  let open Gen in
  pair (1 -- max_n) (1 -- max_t) >>= fun (n, t) ->
  let* victims = 0 -- (t - 1) in
  let* pids = Gen.shuffle_l (List.init t Fun.id) in
  let victims = List.filteri (fun i _ -> i < victims) pids in
  let* schedule =
    Gen.flatten_l
      (List.map
         (fun pid -> Gen.map (fun r -> (pid, r)) (0 -- (4 * max_n * max_t)))
         victims)
  in
  return (n, t, schedule)

let fail_case what (n, t, schedule) =
  QCheck2.Test.fail_reportf "%s: n=%d t=%d crashes=[%s]" what n t
    (String.concat "; "
       (List.map (fun (p, r) -> Printf.sprintf "%d@%d" p r) schedule))

let sync_timeline_law proto ((n, t, schedule) as case) =
  let spec = Doall.Spec.make ~n ~t in
  let tl = Obs.Timeline.create ~n_processes:t ~n_units:n in
  let fault = Simkit.Fault.crash_silently_at schedule in
  let r = Doall.Runner.run ~fault ~obs:(Obs.Timeline.sink tl) spec proto in
  if not (check_rows_invariants ~np:t (Obs.Timeline.rows tl)) then
    fail_case "rows invariant" case;
  if not (final_matches_metrics tl r.Doall.Runner.metrics) then
    fail_case "final row <> metrics" case;
  true

let prop_timeline_a =
  Helpers.qcheck_case ~count:80 ~name:"timeline == metrics (sync A)"
    (gen_case ~max_n:60 ~max_t:10)
    (sync_timeline_law Doall.Protocol_a.protocol)

let prop_timeline_d =
  Helpers.qcheck_case ~count:80 ~name:"timeline == metrics (sync D)"
    (gen_case ~max_n:60 ~max_t:10)
    (sync_timeline_law Doall.Protocol_d.protocol)

let prop_timeline_async =
  Helpers.qcheck_case ~count:60 ~name:"timeline == metrics (async A)"
    (Gen.pair (gen_case ~max_n:40 ~max_t:8) (Gen.int_range 1 1000))
    (fun (((n, t, schedule) as case), seed) ->
      let spec = Doall.Spec.make ~n ~t in
      let tl = Obs.Timeline.create ~n_processes:t ~n_units:n in
      let r =
        Asim.Async_protocol_a.run ~crash_at:schedule
          ~seed:(Int64.of_int seed) ~obs:(Obs.Timeline.sink tl) spec
      in
      if not (check_rows_invariants ~np:t (Obs.Timeline.rows tl)) then
        fail_case "rows invariant (async)" case;
      if not (final_matches_metrics tl r.Asim.Event_sim.metrics) then
        fail_case "final row <> metrics (async)" case;
      true)

let test_timeline_recovery () =
  (* under crash + restart, alive dips and comes back, restart/persist
     columns accumulate, and the final row still reproduces the metrics *)
  let spec = Helpers.spec ~n:40 ~t:8 in
  let sched =
    Simkit.Campaign.Schedule.make
      [
        { Simkit.Campaign.Schedule.victim = 0; at = 2;
          mode = Simkit.Campaign.Schedule.Silent };
        { Simkit.Campaign.Schedule.victim = 0; at = 10;
          mode = Simkit.Campaign.Schedule.Restart };
      ]
  in
  let fault = Simkit.Campaign.Schedule.to_fault sched in
  let tl = Obs.Timeline.create ~n_processes:8 ~n_units:40 in
  let r =
    Doall.Recovery.run ~fault ~obs:(Obs.Timeline.sink tl) spec Doall.Recovery.A
  in
  check_b "rows invariant (recovery)" true
    (check_rows_invariants ~np:8 (Obs.Timeline.rows tl));
  check_b "final row = metrics (recovery)" true
    (final_matches_metrics tl r.Doall.Runner.metrics);
  match Obs.Timeline.final tl with
  | None -> Alcotest.fail "no timeline rows"
  | Some f ->
      check_i "one restart committed" 1 f.Obs.Timeline.restarts;
      check_b "persists recorded" true (f.Obs.Timeline.persists > 0);
      check_i "everyone terminated alive again" 8
        (8 - f.Obs.Timeline.crashes + f.Obs.Timeline.restarts)

let test_timeline_json () =
  let spec = Helpers.spec ~n:8 ~t:2 in
  let tl = Obs.Timeline.create ~n_processes:2 ~n_units:8 in
  let _r = Doall.Runner.run ~obs:(Obs.Timeline.sink tl) spec Doall.Protocol_a.protocol in
  match J.to_string (Obs.Timeline.to_json tl) with
  | s ->
      check_b "schema present" true
        (String.length s > 0
        && String.sub s 0 25 = {|{"schema":"dhw-timeline/v|});
      (* deterministic kernel => byte-identical on a second run *)
      let tl2 = Obs.Timeline.create ~n_processes:2 ~n_units:8 in
      let _r2 =
        Doall.Runner.run ~obs:(Obs.Timeline.sink tl2) spec Doall.Protocol_a.protocol
      in
      check_s "deterministic" s (J.to_string (Obs.Timeline.to_json tl2))

(* ------------------------------------------------------------------ *)
(* Golden report: the CLI's `run -p a -n 24 -t 6 --crash 0@3 --crash 2@7
   --report json` output is pinned byte-for-byte by a checked-in fixture. *)

(* `dune runtest` runs in the test directory; `dune exec test/test_main.exe`
   runs wherever it was invoked — accept both. *)
let read_file path =
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let test_golden_report () =
  let spec = Helpers.spec ~n:24 ~t:6 in
  let fault = Simkit.Fault.crash_silently_at [ (0, 3); (2, 7) ] in
  let r = Doall.Runner.run ~fault spec Doall.Protocol_a.protocol in
  let rendered =
    Doall.Report.to_string (Doall.Report.of_run ~fault:"crash 0@3, 2@7" r) ^ "\n"
  in
  check_s "golden report fixture" (read_file "fixtures/report_golden.json") rendered

let test_bound_checks () =
  let spec = Helpers.spec ~n:24 ~t:6 in
  let r = Doall.Runner.run spec Doall.Protocol_a.protocol in
  let checks = Doall.Report.bound_checks spec ~protocol:"A" r.Doall.Runner.metrics in
  check_i "three Thm 2.3 checks" 3 (List.length checks);
  check_b "all hold" true (List.for_all (fun c -> c.Doall.Report.ok) checks);
  check_b "unknown protocol has none" true
    (Doall.Report.bound_checks spec ~protocol:"trivial" r.Doall.Runner.metrics = [])

let suite =
  [
    Alcotest.test_case "jsonw: scalars" `Quick test_jsonw_scalars;
    Alcotest.test_case "jsonw: escaping" `Quick test_jsonw_escaping;
    Alcotest.test_case "jsonw: structure + pretty" `Quick test_jsonw_structure;
    Alcotest.test_case "table: to_json" `Quick test_table_to_json;
    Alcotest.test_case "obs: event json" `Quick test_event_json;
    Alcotest.test_case "obs: memory sink, tee and printer" `Quick
      test_memory_tee_printer;
    Alcotest.test_case "timeline: sparkline ramp" `Quick test_spark;
    prop_timeline_a;
    prop_timeline_d;
    prop_timeline_async;
    Alcotest.test_case "timeline: crash + restart columns" `Quick
      test_timeline_recovery;
    Alcotest.test_case "timeline: json deterministic" `Quick test_timeline_json;
    Alcotest.test_case "report: golden fixture" `Quick test_golden_report;
    Alcotest.test_case "report: bound checks" `Quick test_bound_checks;
  ]
