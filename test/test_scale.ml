(* Larger instances: the theorem bounds must hold as n and t grow, and the
   event-driven kernel must stay fast enough for these to run as ordinary
   test cases. *)

let test_a_at_scale () =
  let spec = Helpers.spec ~n:10_000 ~t:100 in
  let grid = Doall.Grid.make spec in
  let fault =
    Simkit.Fault.crash_active_after_work ~units_between_crashes:101 ~max_crashes:99
  in
  let r = Helpers.run ~fault spec Doall.Protocol_a.protocol in
  Helpers.check_correct "A 10k/100" r;
  let m = Helpers.metrics r in
  Alcotest.(check bool) "work bound" true
    (Simkit.Metrics.work m <= Doall.Bounds.a_work grid);
  Alcotest.(check bool) "msg bound" true
    (Simkit.Metrics.messages m <= Doall.Bounds.a_msgs grid);
  Alcotest.(check bool) "round bound" true
    (Simkit.Metrics.rounds m <= Doall.Bounds.a_rounds grid)

let test_b_at_scale () =
  let spec = Helpers.spec ~n:10_000 ~t:100 in
  let grid = Doall.Grid.make spec in
  let fault =
    Simkit.Fault.crash_active_after_work ~units_between_crashes:1 ~max_crashes:99
  in
  let r = Helpers.run ~fault spec Doall.Protocol_b.protocol in
  Helpers.check_correct "B 10k/100" r;
  Alcotest.(check bool) "linear-time bound at scale" true
    (Simkit.Metrics.rounds (Helpers.metrics r) <= Doall.Bounds.b_rounds grid)

let test_d_at_scale () =
  let spec = Helpers.spec ~n:8_000 ~t:100 in
  let fault =
    Simkit.Fault.crash_silently_at (List.init 30 (fun i -> (i, 2 * i)))
  in
  let r = Helpers.run ~fault spec Doall.Protocol_d.protocol in
  Helpers.check_correct "D 8k/100" r;
  let f = Doall.Runner.crashed r in
  Alcotest.(check bool) "round bound at scale" true
    (Simkit.Metrics.rounds (Helpers.metrics r) <= Doall.Bounds.d_rounds spec ~f)

let test_async_at_scale () =
  let spec = Helpers.spec ~n:5_000 ~t:50 in
  let crash_at = List.init 49 (fun i -> (i, 40 * i)) in
  let r = Asim.Async_protocol_a.run ~crash_at ~max_delay:12 ~max_lag:30 spec in
  Alcotest.(check bool) "completed" true (Asim.Event_sim.completed r);
  Alcotest.(check bool) "all done" true (Simkit.Metrics.all_units_done r.metrics);
  Alcotest.(check bool) "work bound" true
    (Simkit.Metrics.work r.metrics
    <= Doall.Bounds.a_work (Doall.Grid.make spec))

let test_kernel_long_idle_spans () =
  (* a single deadline 10^15 rounds out must still run instantly *)
  let far = 1_000_000_000_000_000 in
  let proc =
    {
      Simkit.Types.ahead = Simkit.Types.no_ahead;
      init = (fun _ -> (false, Some 0));
      step =
        (fun _ _ started _ ->
          if started then
            { Simkit.Types.state = true; sends = []; work = []; terminate = true;
              wakeup = None }
          else
            { Simkit.Types.state = true; sends = []; work = []; terminate = false;
              wakeup = Some far });
    }
  in
  let cfg = Simkit.Kernel.config ~n_processes:1 ~n_units:1 () in
  let res = Simkit.Kernel.run cfg proc in
  Alcotest.(check int) "round counter exact" far (Simkit.Metrics.rounds res.metrics)

let suite =
  [
    Alcotest.test_case "A at n=10k t=100" `Quick test_a_at_scale;
    Alcotest.test_case "B at n=10k t=100, worst adversary" `Quick test_b_at_scale;
    Alcotest.test_case "D at n=8k t=100" `Quick test_d_at_scale;
    Alcotest.test_case "async A at n=5k t=50" `Quick test_async_at_scale;
    Alcotest.test_case "kernel: 10^15-round idle span" `Quick test_kernel_long_idle_spans;
  ]
