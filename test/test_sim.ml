(* Semantics tests for the synchronous kernel: delivery timing, crash
   delivery filters, round skipping, stall detection, accounting. *)

open Simkit.Types

let outcome ?(sends = []) ?(work = []) ?(terminate = false) ?wakeup state =
  { state; sends; work; terminate; wakeup }

let config ?fault ?max_rounds ?obs ~t ~n () =
  Simkit.Kernel.config ?fault ?max_rounds ?obs ~n_processes:t ~n_units:n ()

let quad =
  Alcotest.testable
    (fun ppf (w, x, y, z) -> Format.fprintf ppf "(%d,%d,%d,%d)" w x y z)
    ( = )

let test_delivery_next_round () =
  (* p0 sends at round 0; p1 must receive exactly at round 1. *)
  let received = ref [] in
  let proc =
    {
      ahead = no_ahead;
      init = (fun pid -> ((), if pid = 0 then Some 0 else None));
      step =
        (fun pid r () inbox ->
          List.iter (fun e -> received := (pid, r, e.src, e.sent_at) :: !received) inbox;
          if pid = 0 then outcome () ~sends:[ { dst = 1; payload = "hi" } ] ~terminate:true
          else outcome () ~terminate:true);
    }
  in
  let res = Simkit.Kernel.run (config ~t:2 ~n:1 ()) proc in
  Alcotest.(check bool) "completed" true (res.outcome = Simkit.Kernel.Completed);
  Alcotest.(check (list quad)) "delivery at r+1" [ (1, 1, 0, 0) ] !received

let test_non_future_wakeup_rejected () =
  let proc =
    {
      ahead = no_ahead;
      init = (fun _ -> ((), Some 0));
      step = (fun _ r () _ -> outcome () ~wakeup:r);
    }
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Simkit.Kernel.run (config ~t:1 ~n:1 ()) proc);
       false
     with Invalid_argument _ -> true)

let test_round_skipping () =
  (* one process, wakes at round 5_000_000 then terminates: the kernel must
     jump there without iterating (this test would time out otherwise) *)
  let far = 5_000_000 in
  let proc =
    {
      ahead = no_ahead;
      init = (fun _ -> (false, Some 0));
      step =
        (fun _ r started _ ->
          if not started then outcome true ~wakeup:far
          else begin
            Alcotest.(check int) "woke exactly at far" far r;
            outcome true ~terminate:true
          end);
    }
  in
  let res = Simkit.Kernel.run (config ~t:1 ~n:1 ()) proc in
  Alcotest.(check bool) "completed" true (res.outcome = Simkit.Kernel.Completed);
  Alcotest.(check int) "rounds metric" far (Simkit.Metrics.rounds res.metrics)

let broadcaster ~fanout =
  {
    ahead = no_ahead;
    init = (fun pid -> ((), if pid = 0 then Some 0 else None));
    step =
      (fun pid _ () inbox ->
        if pid = 0 then
          outcome ()
            ~sends:(List.init fanout (fun i -> { dst = i + 1; payload = i }))
            ~terminate:true
        else outcome () ~terminate:(inbox <> []));
  }

let count_received res = Simkit.Metrics.messages res.Simkit.Kernel.metrics

let test_crash_prefix_delivery () =
  let fault =
    Simkit.Fault.crash_acting_at
      [ (0, 0, Simkit.Fault.Crash { keep_work = false; delivery = Prefix 2 }) ]
  in
  let obs, recorded = Simkit.Obs.memory () in
  let res = Simkit.Kernel.run (config ~fault ~obs ~t:6 ~n:1 ()) (broadcaster ~fanout:5) in
  Alcotest.(check int) "2 messages escaped" 2 (count_received res);
  let dropped =
    List.length
      (List.filter (function Simkit.Obs.Drop _ -> true | _ -> false) (recorded ()))
  in
  Alcotest.(check int) "3 dropped" 3 dropped;
  Alcotest.(check bool) "p0 crashed" true
    (match res.statuses.(0) with Crashed 0 -> true | _ -> false)

let test_crash_indices_delivery () =
  let fault =
    Simkit.Fault.crash_acting_at
      [ (0, 0, Simkit.Fault.Crash { keep_work = false; delivery = Indices [ 1; 3 ] }) ]
  in
  let res = Simkit.Kernel.run (config ~fault ~t:6 ~n:1 ()) (broadcaster ~fanout:5) in
  Alcotest.(check int) "2 messages escaped" 2 (count_received res)

let test_silent_crash_no_action () =
  let fault = Simkit.Fault.crash_silently_at [ (0, 0) ] in
  let res = Simkit.Kernel.run (config ~fault ~t:6 ~n:1 ()) (broadcaster ~fanout:5) in
  Alcotest.(check int) "no messages" 0 (count_received res);
  (* recipients never hear anything and never terminate: stalled *)
  Alcotest.(check bool) "stalled" true
    (match res.outcome with Simkit.Kernel.Stalled _ -> true | _ -> false)

let test_messages_to_dead_count () =
  (* recipient dead from round 0: the send still counts, and the sender's
     termination completes the run *)
  let fault = Simkit.Fault.crash_silently_at [ (1, 0) ] in
  let proc =
    {
      ahead = no_ahead;
      init = (fun pid -> ((), if pid = 0 then Some 0 else None));
      step =
        (fun pid _ () _ ->
          if pid = 0 then
            outcome () ~sends:[ { dst = 1; payload = () } ] ~terminate:true
          else Alcotest.fail "dead process stepped");
    }
  in
  let res = Simkit.Kernel.run (config ~fault ~t:2 ~n:1 ()) proc in
  Alcotest.(check int) "message counted" 1 (count_received res);
  Alcotest.(check bool) "completed" true (res.outcome = Simkit.Kernel.Completed)

let test_keep_work_forced_with_delivery () =
  (* a crash that lets a message out must also keep the round's work *)
  let fault =
    Simkit.Fault.crash_acting_at
      [ (0, 0, Simkit.Fault.Crash { keep_work = false; delivery = Prefix 1 }) ]
  in
  let proc =
    {
      ahead = no_ahead;
      init = (fun pid -> ((), if pid = 0 then Some 0 else None));
      step =
        (fun pid _ () inbox ->
          if pid = 0 then
            outcome () ~work:[ 0 ] ~sends:[ { dst = 1; payload = () } ]
          else outcome () ~terminate:(inbox <> []));
    }
  in
  let res = Simkit.Kernel.run (config ~fault ~t:2 ~n:1 ()) proc in
  Alcotest.(check int) "work kept" 1 (Simkit.Metrics.work res.metrics);
  Alcotest.(check int) "message out" 1 (count_received res)

let test_keep_work_dropped_without_delivery () =
  let fault =
    Simkit.Fault.crash_acting_at
      [ (0, 0, Simkit.Fault.Crash { keep_work = false; delivery = Prefix 0 }) ]
  in
  let proc =
    {
      ahead = no_ahead;
      init = (fun pid -> ((), if pid = 0 then Some 0 else None));
      step =
        (fun pid _ () inbox ->
          ignore inbox;
          if pid = 0 then outcome () ~work:[ 0 ] ~sends:[ { dst = 1; payload = () } ]
          else outcome () ~terminate:true);
    }
  in
  (* p1 never gets a message and never wakes: give it an initial wakeup so
     the run completes *)
  let proc = { proc with init = (fun pid -> ((), Some (if pid = 0 then 0 else 3))) } in
  let res = Simkit.Kernel.run (config ~fault ~t:2 ~n:1 ()) proc in
  Alcotest.(check int) "work dropped" 0 (Simkit.Metrics.work res.metrics);
  Alcotest.(check int) "no message" 0 (count_received res)

let test_work_multiplicity () =
  let proc =
    {
      ahead = no_ahead;
      init = (fun _ -> (0, Some 0));
      step =
        (fun _ r k _ ->
          if k < 3 then outcome (k + 1) ~work:[ 1 ] ~wakeup:(r + 1)
          else outcome k ~terminate:true);
    }
  in
  let res = Simkit.Kernel.run (config ~t:1 ~n:3 ()) proc in
  Alcotest.(check int) "total work 3" 3 (Simkit.Metrics.work res.metrics);
  Alcotest.(check int) "unit 1 thrice" 3 (Simkit.Metrics.unit_multiplicity res.metrics 1);
  Alcotest.(check int) "unit 0 never" 0 (Simkit.Metrics.unit_multiplicity res.metrics 0);
  Alcotest.(check int) "covered 1" 1 (Simkit.Metrics.units_covered res.metrics);
  Alcotest.(check bool) "not all done" false (Simkit.Metrics.all_units_done res.metrics)

let test_round_limit () =
  let proc =
    {
      ahead = no_ahead;
      init = (fun _ -> ((), Some 0));
      step = (fun _ r () _ -> outcome () ~wakeup:(r + 1));
    }
  in
  let res = Simkit.Kernel.run (config ~max_rounds:100 ~t:1 ~n:1 ()) proc in
  Alcotest.(check bool) "round limit" true
    (match res.outcome with Simkit.Kernel.Round_limit _ -> true | _ -> false)

let test_determinism () =
  let go () =
    let spec = Doall.Spec.make ~n:60 ~t:12 in
    let fault = Simkit.Fault.random ~seed:99L ~t:12 ~victims:11 ~window:300 in
    let r = Doall.Runner.run ~fault spec Doall.Protocol_b.protocol in
    ( Simkit.Metrics.work r.metrics,
      Simkit.Metrics.messages r.metrics,
      Simkit.Metrics.rounds r.metrics )
  in
  let a = go () and b = go () in
  Alcotest.(check (triple int int int)) "identical reruns" a b

let test_fault_random_spares_one () =
  Alcotest.check_raises "victims = t rejected"
    (Invalid_argument "Fault.random: victims must be < t") (fun () ->
      ignore (Simkit.Fault.random ~seed:1L ~t:4 ~victims:4 ~window:10))

let test_crash_active_counts () =
  let spec = Doall.Spec.make ~n:50 ~t:8 in
  let fault = Simkit.Fault.crash_active_after_work ~units_between_crashes:5 ~max_crashes:3 in
  let r = Doall.Runner.run ~fault spec Doall.Protocol_a.protocol in
  Alcotest.(check int) "exactly 3 crashes" 3 (Doall.Runner.crashed r)

let suite =
  [
    Alcotest.test_case "delivery at r+1" `Quick test_delivery_next_round;
    Alcotest.test_case "non-future wakeup rejected" `Quick test_non_future_wakeup_rejected;
    Alcotest.test_case "round skipping is O(1)" `Quick test_round_skipping;
    Alcotest.test_case "crash: prefix delivery" `Quick test_crash_prefix_delivery;
    Alcotest.test_case "crash: indices delivery" `Quick test_crash_indices_delivery;
    Alcotest.test_case "silent crash acts not" `Quick test_silent_crash_no_action;
    Alcotest.test_case "sends to dead still count" `Quick test_messages_to_dead_count;
    Alcotest.test_case "delivered send forces work kept" `Quick test_keep_work_forced_with_delivery;
    Alcotest.test_case "prefix-0 crash drops work" `Quick test_keep_work_dropped_without_delivery;
    Alcotest.test_case "work multiplicity accounting" `Quick test_work_multiplicity;
    Alcotest.test_case "round limit guard" `Quick test_round_limit;
    Alcotest.test_case "kernel determinism" `Quick test_determinism;
    Alcotest.test_case "random fault spares a survivor" `Quick test_fault_random_spares_one;
    Alcotest.test_case "crash-active adversary counts" `Quick test_crash_active_counts;
  ]
