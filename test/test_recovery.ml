(* The crash–recovery substrate: stable storage, kernel restart semantics,
   the Doall.Recovery state-transfer wrapper, and the recovery fuzz
   campaigns. *)

open Doall
module C = Simkit.Campaign
module Metrics = Simkit.Metrics

let spec = Helpers.spec

let sched entries = C.Schedule.make entries

let crash ?(mode = C.Schedule.Silent) victim at =
  { C.Schedule.victim; at; mode }

let restart victim at = { C.Schedule.victim; at; mode = C.Schedule.Restart }

let run_rec ?rejoin_rounds s which entries =
  Fuzz.run_recovery_schedule ?rejoin_rounds s which (sched entries)

let check_recovered name (sub : Fuzz.subject) ~restarts =
  let r = sub.report in
  Alcotest.(check bool) (name ^ ": completed") true
    (r.Runner.outcome = Simkit.Kernel.Completed);
  Alcotest.(check bool) (name ^ ": correct") true (Runner.correct r);
  Alcotest.(check int)
    (name ^ ": committed restarts")
    restarts
    (Metrics.restarts r.Runner.metrics)

(* ------------------------------------------------------------------ *)
(* Stable storage *)

let test_stable_basics () =
  let hits = ref [] in
  let st =
    Simkit.Stable.create
      ~on_write:(fun pid at -> hits := (pid, at) :: !hits)
      ~n_processes:3 ()
  in
  Alcotest.(check (option int)) "empty cell" None (Simkit.Stable.read st 1);
  Simkit.Stable.write st 1 ~at:4 10;
  Simkit.Stable.write st 1 ~at:9 20;
  Simkit.Stable.write st 2 ~at:5 30;
  Alcotest.(check (option int)) "last write wins" (Some 20)
    (Simkit.Stable.read st 1);
  Alcotest.(check (option int)) "other cell" (Some 30) (Simkit.Stable.read st 2);
  Alcotest.(check int) "total writes" 3 (Simkit.Stable.writes st);
  Alcotest.(check int) "per-pid writes" 2 (Simkit.Stable.writes_by st 1);
  Alcotest.(check (option int)) "last write round" (Some 9)
    (Simkit.Stable.last_write_at st 1);
  Alcotest.(check (option int)) "never wrote" None
    (Simkit.Stable.last_write_at st 0);
  Alcotest.(check (list (pair int int)))
    "on_write hook saw every commit"
    [ (2, 5); (1, 9); (1, 4) ]
    !hits

(* ------------------------------------------------------------------ *)
(* View ranking *)

let test_view_rank () =
  let open Ckpt_script in
  let v_no = No_msg in
  let p c = Last_ord { ord = Partial c; src = 0 } in
  let f c g = Last_ord { ord = Full (c, g); src = 0 } in
  let ( << ) a b = Recovery.view_rank a < Recovery.view_rank b in
  Alcotest.(check bool) "No_msg weakest" true (v_no << p 0);
  Alcotest.(check bool) "higher subchunk wins" true (p 3 << p 4);
  Alcotest.(check bool) "full beats partial at equal c" true (p 3 << f 3 1);
  Alcotest.(check bool) "further-informed full wins" true (f 3 1 << f 3 2);
  Alcotest.(check bool) "subchunk dominates fullness" true (f 3 9 << p 4);
  Alcotest.(check bool) "src does not affect rank" true
    (Recovery.view_rank (Last_ord { ord = Partial 2; src = 1 })
    = Recovery.view_rank (Last_ord { ord = Partial 2; src = 7 }))

(* ------------------------------------------------------------------ *)
(* Kernel restart semantics *)

(* A one-shot protocol: each process performs unit [pid] at round [pid] and
   terminates; recovery re-performs it. Lets us pin kernel-level rules
   without protocol machinery. *)
let one_shot n =
  {
    Simkit.Types.ahead = Simkit.Types.no_ahead;
    init = (fun pid -> ((), Some pid));
    step =
      (fun pid _r () _inbox ->
        {
          Simkit.Types.state = ();
          sends = [];
          work = [ pid mod n ];
          terminate = true;
          wakeup = None;
        });
  }

let run_one_shot ?recover ~t entries =
  let fault = C.Schedule.to_fault (sched entries) in
  let cfg =
    Simkit.Kernel.config ~fault ~n_processes:t ~n_units:t ()
  in
  Simkit.Kernel.run ?recover cfg (one_shot t)

let test_kernel_restart_revives () =
  let res = run_one_shot ~t:3 [ crash 1 1; restart 1 5 ] in
  Alcotest.(check bool) "completed" true
    (res.Simkit.Kernel.outcome = Simkit.Kernel.Completed);
  Alcotest.(check string) "rejoiner terminated" "terminated@5"
    (Simkit.Types.status_to_string res.Simkit.Kernel.statuses.(1));
  Alcotest.(check int) "restart counted" 1
    (Metrics.restarts res.Simkit.Kernel.metrics)

let test_kernel_restart_requires_down () =
  (* Restart at/before the crash round, or with no crash at all: dropped. *)
  let res = run_one_shot ~t:3 [ crash 1 1; restart 1 1 ] in
  Alcotest.(check int) "restart at crash round dropped" 0
    (Metrics.restarts res.Simkit.Kernel.metrics);
  Alcotest.(check string) "victim stays crashed" "crashed@1"
    (Simkit.Types.status_to_string res.Simkit.Kernel.statuses.(1));
  let res = run_one_shot ~t:3 [ restart 2 4 ] in
  Alcotest.(check int) "restart of a live pid dropped" 0
    (Metrics.restarts res.Simkit.Kernel.metrics)

let test_kernel_restart_not_completed_while_pending () =
  (* With every process down but a restart pending, the run must keep going
     until the rejoiner comes back and retires — not report Completed at the
     moment everyone is down. *)
  let res = run_one_shot ~t:2 [ crash 0 0; crash 1 0; restart 1 40 ] in
  Alcotest.(check bool) "completed (after revival)" true
    (res.Simkit.Kernel.outcome = Simkit.Kernel.Completed);
  Alcotest.(check string) "rejoiner terminated at its restart round"
    "terminated@40"
    (Simkit.Types.status_to_string res.Simkit.Kernel.statuses.(1))

let test_kernel_default_recover_is_amnesiac () =
  (* Without a recover hook the kernel re-runs init: the rejoiner redoes its
     unit, so the unit's multiplicity is 2. *)
  let res = run_one_shot ~t:3 [ crash 1 1; restart 1 7 ] in
  Alcotest.(check int) "unit redone by amnesiac rejoin" 1
    (Metrics.unit_multiplicity res.Simkit.Kernel.metrics 1)

(* ------------------------------------------------------------------ *)
(* Fault-plan plumbing pinned (satellite: crash_silently_at rule) *)

let test_crash_silently_at_earliest_duplicate () =
  (* Duplicate pids in crash_silently_at: the earliest round wins. *)
  let fault = Simkit.Fault.crash_silently_at [ (1, 9); (1, 3); (1, 6) ] in
  let s = spec ~n:20 ~t:4 in
  let report = Runner.run ~fault s Protocol_a.protocol in
  Alcotest.(check string) "earliest crash round wins" "crashed@3"
    (Simkit.Types.status_to_string report.Runner.statuses.(1))

let test_keep_work_forced_when_delivery_escapes () =
  (* An acting crash with keep_work = false but a delivery cut that lets a
     message out: the kernel must still count the round's work (within a
     round work precedes sends in program order, so an escaping delivery
     proves the work happened). A purpose-built process that works and
     broadcasts in the same round makes the forcing observable. *)
  let work_and_tell =
    {
      Simkit.Types.ahead = Simkit.Types.no_ahead;
    init = (fun pid -> ((), if pid = 0 then Some 0 else None));
      step =
        (fun _pid _r () _inbox ->
          {
            Simkit.Types.state = ();
            sends = [ { Simkit.Types.dst = 1; payload = () } ];
            work = [ 0 ];
            terminate = true;
            wakeup = None;
          });
    }
  in
  let run_with delivery =
    let entries =
      [ crash 0 0 ~mode:(C.Schedule.Acting { keep_work = false; delivery }) ]
    in
    let fault = C.Schedule.to_fault (sched entries) in
    let obs, recorded = Simkit.Obs.memory () in
    let cfg =
      Simkit.Kernel.config ~fault ~obs ~n_processes:2 ~n_units:1 ()
    in
    let res = Simkit.Kernel.run cfg work_and_tell in
    let events = recorded () in
    let sent =
      List.exists (function Simkit.Obs.Send { src = 0; _ } -> true | _ -> false) events
    in
    (res, sent, events)
  in
  (* Delivery escapes: work is forced despite keep_work = false. *)
  let res, sent, events = run_with (Simkit.Fault.Prefix 1) in
  Alcotest.(check bool) "a delivery escaped" true sent;
  Alcotest.(check int) "work forced despite keep_work=false" 1
    (Metrics.work_by res.Simkit.Kernel.metrics 0);
  Helpers.assert_clean_audit [ Simkit.Audit.well_formed ] "keep-work" events;
  (* Nothing escapes: the dropped work stays dropped. *)
  let res, sent, _ = run_with (Simkit.Fault.Prefix 0) in
  Alcotest.(check bool) "nothing escaped" false sent;
  Alcotest.(check int) "work not counted when no delivery escapes" 0
    (Metrics.work_by res.Simkit.Kernel.metrics 0)

(* ------------------------------------------------------------------ *)
(* Recovery-hardened protocols *)

let which_name = Recovery.name

let test_failure_free_matches_base which base () =
  let s = spec ~n:40 ~t:9 in
  let rec_report = Recovery.run s which in
  let base_report = Runner.run s base in
  Alcotest.(check bool) "correct" true (Runner.correct rec_report);
  Alcotest.(check int)
    (which_name which ^ ": failure-free work matches the base protocol")
    (Metrics.work base_report.Runner.metrics)
    (Metrics.work rec_report.Runner.metrics);
  Alcotest.(check int)
    (which_name which ^ ": failure-free messages match the base protocol")
    (Metrics.messages base_report.Runner.metrics)
    (Metrics.messages rec_report.Runner.metrics);
  Alcotest.(check bool) "views were persisted" true
    (Metrics.persists rec_report.Runner.metrics > 0)

let test_single_restart which () =
  let s = spec ~n:40 ~t:9 in
  let sub = run_rec s which [ crash 0 2; restart 0 10 ] in
  check_recovered (which_name which ^ " single restart") sub ~restarts:1;
  Alcotest.(check string) "rejoiner eventually terminated" "terminated"
    (match sub.report.Runner.statuses.(0) with
    | Simkit.Types.Terminated _ -> "terminated"
    | st -> Simkit.Types.status_to_string st)

let test_restart_storm which () =
  let s = spec ~n:40 ~t:9 in
  (* pid 0 is re-crashed at round 7, mid-rejoin, so even its second revival
     applies. Some scheduled restarts may legitimately not commit: a silent
     crash of a quiescent waiter is only observed at its next scheduling
     point, which can postdate the scheduled revival (deterministic
     degradation to crash-stop, pinned in the kernel tests above). *)
  let sub =
    run_rec s which
      [
        crash 0 1; restart 0 6;
        crash 0 7; restart 0 21;
        crash 2 3; restart 2 9;
        crash 5 4;
      ]
  in
  let r = sub.report in
  Alcotest.(check bool)
    (which_name which ^ " storm: completed")
    true
    (r.Runner.outcome = Simkit.Kernel.Completed);
  Alcotest.(check bool)
    (which_name which ^ " storm: correct")
    true (Runner.correct r);
  let committed = Metrics.restarts r.Runner.metrics in
  Alcotest.(check bool)
    (Printf.sprintf "%s storm: >= 2 restarts committed (got %d)"
       (which_name which) committed)
    true (committed >= 2)

let test_everyone_down_then_back which () =
  (* All t processes crash; one returns much later with nothing but its
     stable cell and no live peer to answer the handshake. It must finish
     the job alone. *)
  let s = spec ~n:24 ~t:4 in
  let sub =
    run_rec s which
      [ crash 0 3; crash 1 0; crash 2 0; crash 3 0; restart 0 30 ]
  in
  check_recovered (which_name which ^ " lone rejoiner") sub ~restarts:1;
  Alcotest.(check bool) "all units done" true
    (Metrics.all_units_done sub.report.Runner.metrics)

let test_state_transfer_bounds_redo () =
  (* pid 0 works a while, crashes, rejoins: with live peers answering the
     state transfer, total work must stay well below a from-scratch redo. *)
  let s = spec ~n:60 ~t:9 in
  let sub = run_rec s Recovery.A [ crash 0 20; restart 0 26 ] in
  check_recovered "state transfer" sub ~restarts:1;
  let work = Metrics.work sub.report.Runner.metrics in
  Alcotest.(check bool)
    (Printf.sprintf "state transfer keeps redo bounded (work=%d < 2n)" work)
    true (work < 2 * 60)

let test_recovery_oracles_pass which () =
  let s = spec ~n:40 ~t:9 in
  let horizon = 60 in
  let oracles = Fuzz.recovery_oracles s which ~horizon in
  let sub = run_rec s which [ crash 1 2; restart 1 8; crash 4 5 ] in
  match C.first_failure oracles sub with
  | None -> ()
  | Some (name, detail) ->
      Alcotest.failf "oracle %s failed on a healthy run: %s" name detail

(* ------------------------------------------------------------------ *)
(* Campaigns: seeded storms with zero expected counterexamples *)

let test_recovery_campaign which seed () =
  let s = spec ~n:40 ~t:8 in
  let stats =
    Fuzz.recovery_campaign ~seed ~executions:120 s which
  in
  Alcotest.(check int)
    (which_name which ^ ": campaign schedules")
    120 stats.C.schedules;
  (match stats.C.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "campaign found a counterexample (%s: %s):@.%s"
        f.C.oracle f.C.detail
        (C.Schedule.print f.C.shrunk));
  (* storms must actually commit restarts for the campaign to mean much *)
  Alcotest.(check bool) "margins recorded" true (stats.C.margins <> [])

let suite =
  [
    Alcotest.test_case "stable: cells, counting, hook" `Quick
      test_stable_basics;
    Alcotest.test_case "recovery: view ranking" `Quick test_view_rank;
    Alcotest.test_case "kernel: restart revives a crashed pid" `Quick
      test_kernel_restart_revives;
    Alcotest.test_case "kernel: restarts need a down victim" `Quick
      test_kernel_restart_requires_down;
    Alcotest.test_case "kernel: pending restart blocks completion" `Quick
      test_kernel_restart_not_completed_while_pending;
    Alcotest.test_case "kernel: default recover re-inits" `Quick
      test_kernel_default_recover_is_amnesiac;
    Alcotest.test_case "fault: crash_silently_at earliest duplicate wins"
      `Quick test_crash_silently_at_earliest_duplicate;
    Alcotest.test_case "kernel: escaping delivery forces keep_work" `Quick
      test_keep_work_forced_when_delivery_escapes;
    Alcotest.test_case "A+rec: failure-free = A" `Quick
      (test_failure_free_matches_base Recovery.A Protocol_a.protocol);
    Alcotest.test_case "B+rec: failure-free = B" `Quick
      (test_failure_free_matches_base Recovery.B Protocol_b.protocol);
    Alcotest.test_case "A+rec: crash + restart completes" `Quick
      (test_single_restart Recovery.A);
    Alcotest.test_case "B+rec: crash + restart completes" `Quick
      (test_single_restart Recovery.B);
    Alcotest.test_case "A+rec: restart storm" `Quick
      (test_restart_storm Recovery.A);
    Alcotest.test_case "B+rec: restart storm" `Quick
      (test_restart_storm Recovery.B);
    Alcotest.test_case "A+rec: lone rejoiner finishes alone" `Quick
      (test_everyone_down_then_back Recovery.A);
    Alcotest.test_case "B+rec: lone rejoiner finishes alone" `Quick
      (test_everyone_down_then_back Recovery.B);
    Alcotest.test_case "A+rec: state transfer bounds redo" `Quick
      test_state_transfer_bounds_redo;
    Alcotest.test_case "recovery oracles pass on a healthy A run" `Quick
      (test_recovery_oracles_pass Recovery.A);
    Alcotest.test_case "recovery oracles pass on a healthy B run" `Quick
      (test_recovery_oracles_pass Recovery.B);
    Alcotest.test_case "A+rec: 120-storm campaign, no counterexamples" `Slow
      (test_recovery_campaign Recovery.A 11L);
    Alcotest.test_case "B+rec: 120-storm campaign, no counterexamples" `Slow
      (test_recovery_campaign Recovery.B 12L);
  ]
