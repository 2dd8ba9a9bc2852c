(* The asynchronous substrate: event-sim semantics, failure-detector
   soundness/completeness, and the asynchronous Protocol A. *)

module Prng = Dhw_util.Prng
module E = Asim.Event_sim

let unit_proc handle = { E.a_init = (fun _ -> ()); a_handle = handle }

let outcome ?(sends = []) ?(work = []) ?(terminate = false) ?continue_after () =
  { E.state = (); sends; work; terminate; continue_after }

let test_message_delay_bounds () =
  (* every delivery happens within [1, max_delay] of the send *)
  let sent_at = ref (-1) and got_at = ref (-1) in
  let proc =
    unit_proc (fun pid now () ev ->
        match ev with
        | E.Started ->
            if pid = 0 then begin
              sent_at := now;
              outcome ~sends:[ (1, "x") ] ~terminate:true ()
            end
            else outcome ()
        | E.Got _ ->
            got_at := now;
            outcome ~terminate:true ()
        | E.Retired_notice _ | E.Continue -> outcome ())
  in
  let cfg = E.config ~max_delay:7 ~seed:3L ~n_processes:2 ~n_units:1 () in
  let r = E.run cfg proc in
  Alcotest.(check bool) "completed" true (E.completed r);
  let d = !got_at - !sent_at in
  Alcotest.(check bool) (Printf.sprintf "delay %d in [1,7]" d) true (d >= 1 && d <= 7)

let test_fd_soundness_and_completeness () =
  (* observers record notifications; the detector must never report a
     process that is still running, and must eventually report every crash
     to every survivor *)
  let notices = Array.make 4 [] in
  let proc =
    unit_proc (fun pid now () ev ->
        match ev with
        | E.Retired_notice who ->
            notices.(pid) <- (who, now) :: notices.(pid);
            outcome ()
        | E.Started | E.Got _ | E.Continue -> outcome ())
  in
  let crash_at = [ (1, 10); (2, 25) ] in
  let cfg = E.config ~crash_at ~max_lag:6 ~seed:9L ~n_processes:4 ~n_units:1 () in
  let r = E.run cfg proc in
  ignore r;
  List.iter
    (fun obs ->
      let got = notices.(obs) in
      (* soundness: notification strictly after the true crash *)
      List.iter
        (fun (who, at) ->
          let true_crash = List.assoc who crash_at in
          if at <= true_crash then
            Alcotest.failf "observer %d notified of %d at %d <= crash %d" obs who
              at true_crash)
        got;
      (* completeness: both crashes reported to live observers *)
      Alcotest.(check bool)
        (Printf.sprintf "observer %d saw both" obs)
        true
        (List.mem_assoc 1 got && List.mem_assoc 2 got))
    [ 0; 3 ]

let test_termination_also_notified () =
  let saw = ref false in
  let proc =
    unit_proc (fun pid _ () ev ->
        match ev with
        | E.Started -> if pid = 0 then outcome ~terminate:true () else outcome ()
        | E.Retired_notice 0 ->
            saw := true;
            outcome ~terminate:true ()
        | E.Retired_notice _ | E.Got _ | E.Continue -> outcome ())
  in
  let cfg = E.config ~seed:4L ~n_processes:2 ~n_units:1 () in
  let r = E.run cfg proc in
  Alcotest.(check bool) "completed" true (E.completed r);
  Alcotest.(check bool) "termination notified" true !saw

let test_continue_scheduling () =
  let ticks = ref [] in
  let proc =
    {
      E.a_init = (fun _ -> 0);
      a_handle =
        (fun _ now k ev ->
          match ev with
          | E.Started -> { E.state = 0; sends = []; work = []; terminate = false; continue_after = Some 3 }
          | E.Continue ->
              ticks := now :: !ticks;
              {
                E.state = k + 1;
                sends = [];
                work = [];
                terminate = k >= 2;
                continue_after = (if k >= 2 then None else Some 3);
              }
          | E.Got _ | E.Retired_notice _ ->
              { E.state = k; sends = []; work = []; terminate = false; continue_after = None });
    }
  in
  let cfg = E.config ~seed:5L ~n_processes:1 ~n_units:1 () in
  let r = E.run cfg proc in
  Alcotest.(check bool) "completed" true (E.completed r);
  Alcotest.(check (list int)) "continues every 3 ticks" [ 9; 6; 3 ] !ticks

(* --- asynchronous Protocol A --- *)

let check_async name (r : E.result) =
  Alcotest.(check bool) (name ^ ": completed") true (E.completed r);
  let survivors =
    Array.fold_left
      (fun acc s -> match s with Simkit.Types.Terminated _ -> acc + 1 | _ -> acc)
      0 r.statuses
  in
  if survivors > 0 then
    Alcotest.(check bool)
      (name ^ ": all units done")
      true
      (Simkit.Metrics.all_units_done r.metrics)

let test_async_a_failure_free () =
  let spec = Helpers.spec ~n:80 ~t:16 in
  let r = Asim.Async_protocol_a.run spec in
  check_async "ff" r;
  Alcotest.(check int) "exactly n work" 80 (Simkit.Metrics.work r.metrics)

let test_async_a_failover_chain () =
  let spec = Helpers.spec ~n:60 ~t:8 in
  let crash_at = List.init 7 (fun i -> (i, 12 * (i + 1))) in
  let r = Asim.Async_protocol_a.run ~crash_at ~max_delay:9 ~max_lag:20 spec in
  check_async "chain" r;
  (* Theorem 2.3's work bound carries over *)
  let grid = Doall.Grid.make spec in
  Alcotest.(check bool) "work bound" true
    (Simkit.Metrics.work r.metrics <= Doall.Bounds.a_work grid)

let test_async_a_random () =
  let g = Prng.create 17L in
  let spec = Helpers.spec ~n:50 ~t:10 in
  for i = 1 to 25 do
    let crash_at = Helpers.random_schedule g ~t:10 ~window:600 in
    let r =
      Asim.Async_protocol_a.run ~crash_at
        ~max_delay:(Prng.int_in g 1 15)
        ~max_lag:(Prng.int_in g 1 40)
        ~seed:(Prng.next_int64 g) spec
    in
    check_async (Printf.sprintf "random #%d" i) r
  done

let test_async_a_unsound_detector_duplicates_but_completes () =
  (* Section 2.1 requires a *sound* detector. Violate it: convince process 3
     early on that 0, 1 and 2 are all gone. Two actives then run
     concurrently; idempotence keeps the execution correct, only the work
     count inflates. *)
  let spec = Helpers.spec ~n:40 ~t:6 in
  let false_suspicions = [ (3, 0, 5); (3, 1, 5); (3, 2, 5) ] in
  let sound = Asim.Async_protocol_a.run ~seed:2L spec in
  let unsound = Asim.Async_protocol_a.run ~seed:2L ~false_suspicions spec in
  check_async "unsound detector" unsound;
  Alcotest.(check bool)
    (Printf.sprintf "duplicated work: %d > %d"
       (Simkit.Metrics.work unsound.metrics)
       (Simkit.Metrics.work sound.metrics))
    true
    (Simkit.Metrics.work unsound.metrics > Simkit.Metrics.work sound.metrics)

let test_async_a_slow_detector_still_correct () =
  let spec = Helpers.spec ~n:30 ~t:6 in
  let crash_at = [ (0, 5); (1, 9); (2, 13) ] in
  let r = Asim.Async_protocol_a.run ~crash_at ~max_lag:500 spec in
  check_async "slow detector" r

(* --- outcome variants --- *)

let test_outcome_stalled () =
  (* a process that never terminates and never schedules anything leaves the
     queue dry: Stalled, not a hang and not Completed *)
  let proc = unit_proc (fun _ _ () _ -> outcome ()) in
  let cfg = E.config ~seed:1L ~n_processes:2 ~n_units:1 () in
  let r = E.run cfg proc in
  (match r.outcome with
  | E.Stalled _ -> ()
  | o -> Alcotest.failf "expected Stalled, got %s" (Format.asprintf "%a" E.pp_outcome o));
  Alcotest.(check bool) "not completed" false (E.completed r)

let test_outcome_tick_limit () =
  let proc =
    unit_proc (fun _ _ () ev ->
        match ev with
        | E.Started | E.Continue -> outcome ~continue_after:1 ()
        | E.Got _ | E.Retired_notice _ -> outcome ())
  in
  let cfg = E.config ~seed:1L ~max_ticks:50 ~n_processes:1 ~n_units:1 () in
  let r = E.run cfg proc in
  Alcotest.(check bool) "tick limit" true (r.outcome = E.Tick_limit 50)

(* --- config validation --- *)

let test_config_validation () =
  let contains_sub hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let expect_invalid name needle f =
    match f () with
    | exception Invalid_argument msg ->
        if not (contains_sub msg needle) then
          Alcotest.failf "%s: message %S lacks %S" name msg needle
    | _ -> Alcotest.failf "%s: accepted" name
  in
  let base ?crash_at ?max_delay ?max_lag ?false_suspicions ?link () =
    E.config ?crash_at ?max_delay ?max_lag ?false_suspicions ?link
      ~n_processes:4 ~n_units:10 ()
  in
  expect_invalid "max_delay 0" "max_delay" (fun () -> base ~max_delay:0 ());
  expect_invalid "max_lag 0" "max_lag" (fun () -> base ~max_lag:0 ());
  expect_invalid "crash pid range" "crash_at" (fun () ->
      base ~crash_at:[ (7, 3) ] ());
  expect_invalid "suspicion observer range" "observer" (fun () ->
      base ~false_suspicions:[ (9, 0, 3) ] ());
  expect_invalid "suspicion suspect range" "suspect" (fun () ->
      base ~false_suspicions:[ (0, -1, 3) ] ());
  expect_invalid "suspicion negative time" "negative" (fun () ->
      base ~false_suspicions:[ (0, 1, -2) ] ());
  expect_invalid "drop_bp 10000" "drop_bp" (fun () ->
      base ~link:{ E.perfect_link with drop_bp = 10_000 } ());
  expect_invalid "dup_bp negative" "dup_bp" (fun () ->
      base ~link:{ E.perfect_link with dup_bp = -1 } ());
  expect_invalid "slow_factor 0" "slow_factor" (fun () ->
      base ~link:{ E.perfect_link with slow_factor = 0 } ());
  expect_invalid "slow pid range" "slow_set" (fun () ->
      base ~link:{ E.perfect_link with slow_set = [ 4 ] } ())

(* --- link adversary --- *)

let sender_receiver ~on_got =
  unit_proc (fun pid _ () ev ->
      match ev with
      | E.Started ->
          if pid = 0 then outcome ~sends:[ (1, "x") ] ~terminate:true ()
          else outcome ()
      | E.Got _ -> on_got ()
      | E.Retired_notice _ | E.Continue -> outcome ())

let test_link_drop () =
  (* with a 99.99% loss rate the single message dies: the receiver is left
     stranded and the loss is counted *)
  let proc = sender_receiver ~on_got:(fun () -> outcome ~terminate:true ()) in
  let link = { E.perfect_link with drop_bp = 9_999 } in
  let cfg = E.config ~link ~seed:1L ~n_processes:2 ~n_units:1 () in
  let r = E.run cfg proc in
  Alcotest.(check int) "dropped" 1 r.net.dropped;
  Alcotest.(check int) "sent" 1 r.net.sent;
  match r.outcome with
  | E.Stalled _ -> ()
  | _ -> Alcotest.fail "expected a stall after the loss"

let test_link_duplication () =
  let arrivals = ref 0 in
  let proc =
    sender_receiver ~on_got:(fun () ->
        incr arrivals;
        outcome ())
  in
  let link = { E.perfect_link with dup_bp = 10_000 } in
  let cfg = E.config ~link ~seed:1L ~n_processes:2 ~n_units:1 () in
  let r = E.run cfg proc in
  Alcotest.(check int) "delivered twice" 2 !arrivals;
  Alcotest.(check int) "duplication counted" 1 r.net.duplicated

let test_link_slow_set_stretches_delays () =
  (* messages touching the slow set may exceed max_delay (up to the
     factored bound); fast-path messages never do *)
  let deliveries = ref [] in
  let proc =
    unit_proc (fun pid now () ev ->
        match ev with
        | E.Started ->
            if pid = 0 then
              outcome ~sends:(List.init 30 (fun _ -> (1, "s"))) ()
            else if pid = 2 then
              outcome ~sends:(List.init 30 (fun _ -> (3, "f"))) ()
            else outcome ()
        | E.Got { payload; _ } ->
            deliveries := (payload, now) :: !deliveries;
            outcome ()
        | E.Retired_notice _ | E.Continue -> outcome ())
  in
  let link = { E.perfect_link with slow_set = [ 1 ]; slow_factor = 10 } in
  let cfg = E.config ~link ~max_delay:2 ~seed:3L ~n_processes:4 ~n_units:1 () in
  ignore (E.run cfg proc);
  let slow = List.filter (fun (p, _) -> p = "s") !deliveries in
  let fast = List.filter (fun (p, _) -> p = "f") !deliveries in
  Alcotest.(check int) "all slow messages arrive" 30 (List.length slow);
  List.iter
    (fun (_, at) ->
      if at < 1 || at > 20 then Alcotest.failf "slow delay %d outside [1,20]" at)
    slow;
  if not (List.exists (fun (_, at) -> at > 2) slow) then
    Alcotest.fail "slow set never exceeded max_delay - factor inert?";
  List.iter
    (fun (_, at) ->
      if at < 1 || at > 2 then
        Alcotest.failf "fast delay %d outside [1,%d]" at 2)
    fast

(* --- seeded determinism under the full adversary --- *)

let logging log (p : ('s, 'm) E.aproc) =
  {
    E.a_init = p.E.a_init;
    a_handle =
      (fun pid now st ev ->
        (match ev with
        | E.Got { src; _ } -> log := (pid, now, src) :: !log
        | _ -> ());
        p.E.a_handle pid now st ev);
  }

let prop_seed_determinism =
  Helpers.qcheck_case ~count:25
    ~name:"event sim: same seed, same delivery order and metrics"
    QCheck2.Gen.(map Int64.of_int int)
    (fun seed ->
      let spec = Helpers.spec ~n:30 ~t:5 in
      let go () =
        let log = ref [] in
        let link =
          { E.drop_bp = 1_500; dup_bp = 800; corrupt_bp = 0; slow_set = [ 1 ]; slow_factor = 3; severs = [] }
        in
        let cfg =
          E.config ~crash_at:[ (0, 25) ] ~max_delay:4 ~seed ~link
            ~n_processes:5 ~n_units:30 ()
        in
        let r = E.run cfg (logging log (Asim.Async_protocol_a.aproc spec)) in
        let fingerprint =
          Format.asprintf "%a|%a|%d/%d/%d" Simkit.Metrics.pp_summary r.metrics
            E.pp_outcome r.outcome r.net.sent r.net.dropped r.net.duplicated
        in
        (!log, fingerprint)
      in
      let log1, fp1 = go () and log2, fp2 = go () in
      if fp1 <> fp2 then
        QCheck2.Test.fail_reportf "metrics diverged:@.%s@.%s" fp1 fp2
      else if log1 <> log2 then
        QCheck2.Test.fail_reportf "delivery order diverged (%d vs %d events)"
          (List.length log1) (List.length log2)
      else true)

(* --- heartbeat detector --- *)

module H = Asim.Heartbeat

let test_heartbeat_suspects_silent_peer () =
  let cfg = H.config ~period:4 ~timeout:12 () in
  let hb = H.create ~config:cfg ~me:0 ~n:3 ~now:0 () in
  Alcotest.(check int) "first deadline is the beat" 0 (H.next_deadline hb);
  let newly, beat = H.tick hb ~now:0 in
  Alcotest.(check (list int)) "nobody suspected yet" [] newly;
  Alcotest.(check bool) "beat due" true beat;
  let newly, _ = H.tick hb ~now:11 in
  Alcotest.(check (list int)) "still within timeout" [] newly;
  let newly, _ = H.tick hb ~now:12 in
  Alcotest.(check (list int)) "silent peers suspected" [ 1; 2 ] newly;
  Alcotest.(check bool) "suspected" true (H.suspected hb 1);
  Alcotest.(check (list int)) "suspects" [ 1; 2 ] (H.suspects hb)

let test_heartbeat_evidence_retracts_and_backs_off () =
  let cfg = H.config ~period:4 ~timeout:12 ~backoff:2 () in
  let hb = H.create ~config:cfg ~me:0 ~n:2 ~now:0 () in
  ignore (H.tick hb ~now:12);
  Alcotest.(check bool) "suspected after silence" true (H.suspected hb 1);
  Alcotest.(check bool) "evidence retracts" true
    (H.alive_evidence hb ~src:1 ~now:12);
  Alcotest.(check bool) "no longer suspected" false (H.suspected hb 1);
  (* timeout doubled: silence of 12 no longer suffices, 24 does *)
  let newly, _ = H.tick hb ~now:24 in
  Alcotest.(check (list int)) "within backed-off timeout" [] newly;
  let newly, _ = H.tick hb ~now:36 in
  Alcotest.(check (list int)) "suspected at doubled timeout" [ 1 ] newly;
  (* evidence about self or out-of-range pids is a no-op *)
  Alcotest.(check bool) "self" false (H.alive_evidence hb ~src:0 ~now:1);
  Alcotest.(check bool) "out of range" false (H.alive_evidence hb ~src:9 ~now:1)

let test_heartbeat_stop_is_permanent () =
  let hb = H.create ~me:0 ~n:2 ~now:0 () in
  H.stop hb 1;
  let newly, _ = H.tick hb ~now:1_000_000 in
  Alcotest.(check (list int)) "stopped peer never suspected" [] newly;
  Alcotest.(check bool) "evidence ignored after stop" false
    (H.alive_evidence hb ~src:1 ~now:5)

let check_hb_stats name hb (suspicions, false_suspicions, unsuspects) =
  let s = H.stats hb in
  Alcotest.(check int) (name ^ ": suspicions") suspicions s.H.suspicions;
  Alcotest.(check int)
    (name ^ ": false suspicions")
    false_suspicions s.H.false_suspicions;
  Alcotest.(check int) (name ^ ": unsuspects") unsuspects s.H.unsuspects

let test_heartbeat_stats_and_rejoin () =
  let cfg = H.config ~period:4 ~timeout:12 ~backoff:2 () in
  let hb = H.create ~config:cfg ~me:0 ~n:3 ~now:0 () in
  check_hb_stats "fresh" hb (0, 0, 0);
  ignore (H.tick hb ~now:12);
  check_hb_stats "both peers timed out" hb (2, 0, 0);
  (* peer 1 was merely slow: its retraction is a false suspicion *)
  Alcotest.(check bool) "retracted" true (H.alive_evidence hb ~src:1 ~now:12);
  check_hb_stats "retraction" hb (2, 1, 1);
  (* peer 2 genuinely retired... then comes back: an un-suspect that is
     not a false suspicion *)
  H.stop hb 2;
  H.rejoin hb 2 ~now:13;
  check_hb_stats "rejoin" hb (2, 1, 2);
  Alcotest.(check bool) "rejoiner trusted again" false (H.suspected hb 2);
  (* the rejoiner is monitored again, with the initial timeout *)
  let newly, _ = H.tick hb ~now:25 in
  Alcotest.(check (list int)) "rejoiner monitored" [ 2 ] newly;
  check_hb_stats "rejoiner re-suspected" hb (3, 1, 2);
  Alcotest.(check bool) "evidence works after rejoin" true
    (H.alive_evidence hb ~src:2 ~now:26)

(* The real fleet's rejoin path is organic: a respawned incarnation simply
   beats again, and {!H.alive_evidence} retracts the standing suspicion.
   Under an arbitrary churn of long crashes and revivals the detector must
   stay ◇P-shaped: every sufficiently long silence is suspected
   (completeness), and a peer whose beats resume is promptly trusted again
   and never re-suspected while it keeps beating (eventual accuracy). The
   generator keeps [timeout >= 2 * period] so a live beating peer can
   never expire between beats, and makes every down phase outlast the
   backed-off timeout cap so suspicion provably fires. *)
let gen_churn =
  let open QCheck2.Gen in
  let* period = int_range 2 8 in
  let* timeout = int_range (2 * period) (4 * period) in
  let* episodes =
    list_size (int_range 1 4)
      (pair
         (int_range ((4 * timeout) + period + 2) (6 * timeout))
         (int_range (3 * period) (6 * period)))
  in
  return (period, timeout, episodes)

let prop_heartbeat_restart_churn =
  Helpers.qcheck_case ~count:60
    ~name:"heartbeat: under restart churn every rejoiner is trusted again"
    gen_churn
    (fun (period, timeout, episodes) ->
      let cfg =
        H.config ~period ~timeout ~backoff:2 ~max_timeout:(4 * timeout) ()
      in
      let hb = H.create ~config:cfg ~me:0 ~n:2 ~now:0 () in
      let now = ref 0 in
      let fail = ref None in
      let flunk fmt = Printf.ksprintf (fun m -> if !fail = None then fail := Some m) fmt in
      let run_down len =
        for _ = 1 to len do
          incr now;
          ignore (H.tick hb ~now:!now)
        done;
        (* completeness: the silence outlasted even the capped timeout *)
        if not (H.suspected hb 1) then
          flunk "down %d ticks (cap %d) yet never suspected" len (4 * timeout)
      in
      let run_up len =
        let start = !now in
        for _ = 1 to len do
          incr now;
          ignore (H.tick hb ~now:!now);
          (* the revived peer beats every period, starting one period in *)
          if (!now - start) mod period = 0 then
            ignore (H.alive_evidence hb ~src:1 ~now:!now)
        done;
        (* eventual accuracy: beats resumed, so the suspicion must have
           been retracted — and with timeout >= 2 * period it cannot have
           been re-raised between beats *)
        if H.suspected hb 1 then flunk "still suspected after beats resumed"
      in
      List.iter
        (fun (down, up) ->
          run_down down;
          run_up up)
        episodes;
      let s = H.stats hb in
      if s.H.suspicions < List.length episodes then
        flunk "only %d suspicions over %d crash episodes" s.H.suspicions
          (List.length episodes);
      if s.H.unsuspects <> s.H.false_suspicions then
        flunk "evidence-path retractions must count as false suspicions";
      match !fail with
      | Some m -> QCheck2.Test.fail_report m
      | None -> true)

(* --- the per-process engine (caller-clocked driver) --- *)

module Eng = Asim.Engine

let test_engine_event_contract () =
  (* a proc that sends on Started, schedules a wakeup chain, does one unit
     per Continue, and terminates on a Got *)
  let events = ref [] in
  let proc =
    unit_proc (fun _ now () ev ->
        events := (now, ev) :: !events;
        match ev with
        | E.Started -> outcome ~sends:[ (1, "hello") ] ~continue_after:4 ()
        | E.Continue -> outcome ~work:[ 7 ] ~continue_after:4 ()
        | E.Got _ -> outcome ~terminate:true ()
        | E.Retired_notice _ -> outcome ())
  in
  let eng = Eng.create proc ~pid:0 in
  Alcotest.(check (option int)) "no wakeup before start" None
    (Eng.next_wakeup eng);
  let fx = Eng.start eng ~now:10 in
  Alcotest.(check bool) "started send surfaces" true
    (fx.Eng.sends = [ (1, "hello") ]);
  Alcotest.(check (option int)) "wakeup scheduled" (Some 14)
    (Eng.next_wakeup eng);
  (match Eng.start eng ~now:11 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "second start accepted");
  (* a due wakeup fires at the caller's (possibly late) now; the handler's
     re-arm is measured from that now, so it lands beyond this call — one
     handler call per scheduled wakeup, exactly the simulator's contract *)
  let fx = Eng.advance eng ~now:18 in
  Alcotest.(check (list int)) "one unit for the one due continue" [ 7 ]
    fx.Eng.work;
  Alcotest.(check (option int)) "re-armed from the late now" (Some 22)
    (Eng.next_wakeup eng);
  let fx = Eng.advance eng ~now:22 in
  Alcotest.(check (list int)) "second continue fires when due" [ 7 ]
    fx.Eng.work;
  Alcotest.(check bool) "not terminated yet" false (Eng.terminated eng);
  let fx = Eng.deliver eng ~now:20 ~src:1 "bye" in
  Alcotest.(check bool) "terminated on delivery" true fx.Eng.terminated;
  Alcotest.(check bool) "engine agrees" true (Eng.terminated eng);
  (* inert afterwards: no effects, no wakeups *)
  let fx = Eng.advance eng ~now:99 in
  Alcotest.(check bool) "inert after termination" true
    (fx.Eng.sends = [] && fx.Eng.work = [] && Eng.next_wakeup eng = None);
  let seen_continues =
    List.length (List.filter (fun (_, e) -> e = E.Continue) !events)
  in
  Alcotest.(check int) "exactly two continues delivered" 2 seen_continues

let test_engine_notice_relays_detector () =
  let noticed = ref [] in
  let proc =
    unit_proc (fun _ _ () ev ->
        match ev with
        | E.Retired_notice q ->
            noticed := q :: !noticed;
            outcome ()
        | _ -> outcome ())
  in
  let eng = Eng.create proc ~pid:2 in
  ignore (Eng.start eng ~now:0);
  ignore (Eng.notice eng ~now:5 7);
  Alcotest.(check (list int)) "notice delivered" [ 7 ] !noticed

(* --- reliable links (Link.harden) --- *)

module L = Asim.Link

let relay_proc ~delivered =
  (* 0 sends one payload to 1 and terminates; 1 records it, then lingers
     30 ticks (so late duplicates/retransmits reach it) before terminating *)
  unit_proc (fun pid _ () ev ->
      match ev with
      | E.Started ->
          if pid = 0 then outcome ~sends:[ (1, "unit-7") ] ~terminate:true ()
          else outcome ()
      | E.Got { payload; _ } ->
          delivered := payload :: !delivered;
          outcome ~continue_after:30 ()
      | E.Continue -> outcome ~terminate:true ()
      | E.Retired_notice _ -> outcome ())

let test_link_harden_survives_loss () =
  (* 70% loss: the bare protocol would strand the receiver (cf.
     test_link_drop); the hardened one retransmits until acked. Across a
     handful of seeds every run must complete with exactly-once delivery,
     and the loss must force at least one retransmission somewhere. *)
  let total_retransmits = ref 0 in
  for seed = 1 to 8 do
    let delivered = ref [] in
    let stats = L.stats () in
    let hardened = L.harden ~stats ~n:2 (relay_proc ~delivered) in
    let link = { E.perfect_link with drop_bp = 7_000 } in
    let cfg = E.config ~link ~seed:(Int64.of_int seed) ~n_processes:2 ~n_units:1 () in
    let r = E.run cfg hardened in
    Alcotest.(check bool) (Printf.sprintf "seed %d: completed" seed) true
      (E.completed r);
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: delivered exactly once" seed)
      [ "unit-7" ] !delivered;
    total_retransmits := !total_retransmits + stats.L.retransmits
  done;
  Alcotest.(check bool) "retransmissions happened" true (!total_retransmits > 0)

let test_link_harden_dedups_duplicates () =
  let delivered = ref [] in
  let stats = L.stats () in
  let hardened = L.harden ~stats ~n:2 (relay_proc ~delivered) in
  let link = { E.perfect_link with dup_bp = 10_000 } in
  let cfg = E.config ~link ~seed:5L ~n_processes:2 ~n_units:1 () in
  let r = E.run cfg hardened in
  Alcotest.(check bool) "completed" true (E.completed r);
  Alcotest.(check (list string)) "inner sees the payload once" [ "unit-7" ]
    !delivered;
  Alcotest.(check bool) "duplicates suppressed" true
    (stats.L.dups_suppressed > 0)

let test_link_max_retries_exhaust () =
  (* The receiver crashes before acking and no detector ever says so
     (oracle off, no heartbeat): an unbounded sender would retransmit into
     the void forever. With max_retries the packet is abandoned after the
     budget, the abandonment is counted, and the sender drains and
     terminates — the run completes instead of deadlocking on an
     unackable packet. *)
  let delivered = ref [] in
  let stats = L.stats () in
  let hardened =
    L.harden
      ~config:(L.config ~rto:4 ~max_retries:3 ())
      ~stats ~n:2 (relay_proc ~delivered)
  in
  let cfg =
    E.config ~crash_at:[ (1, 1) ] ~oracle_detector:false ~max_ticks:50_000
      ~seed:3L ~n_processes:2 ~n_units:1 ()
  in
  let r = E.run cfg hardened in
  Alcotest.(check bool) "completed, not stalled or tick-limited" true
    (E.completed r);
  Alcotest.(check (list string)) "nothing delivered" [] !delivered;
  Alcotest.(check int) "retry budget spent" 3 stats.L.retransmits;
  Alcotest.(check bool) "abandonment counted" true (stats.L.abandoned >= 1);
  match r.E.statuses.(0) with
  | Simkit.Types.Terminated _ -> ()
  | st -> Alcotest.failf "sender still %s" (Simkit.Types.status_to_string st)

let test_link_unbounded_retries_stall () =
  (* The same scenario with the unlimited default shows why the bound
     matters: the sender retries until the tick guard fires, and nothing
     is ever abandoned. *)
  let delivered = ref [] in
  let stats = L.stats () in
  let hardened = L.harden ~config:(L.config ~rto:4 ()) ~stats ~n:2 (relay_proc ~delivered) in
  let cfg =
    E.config ~crash_at:[ (1, 1) ] ~oracle_detector:false ~max_ticks:2_000
      ~seed:3L ~n_processes:2 ~n_units:1 ()
  in
  let r = E.run cfg hardened in
  (match r.E.outcome with
  | E.Tick_limit _ -> ()
  | o -> Alcotest.failf "expected tick limit, got %a" E.pp_outcome o);
  Alcotest.(check int) "nothing abandoned" 0 stats.L.abandoned;
  Alcotest.(check bool) "kept retransmitting" true (stats.L.retransmits > 3)

(* A peer that comes back as a new incarnation was really down: the
   suspicion of it was correct. The real fleet tells the link so through
   [Link.rejoin] before it delivers the newcomer's first datagram, and
   the detector must then count an un-suspect but no false suspicion, and
   monitor the newcomer with the initial timeout. Delivering the same
   datagram without the rejoin shows the evidence path it replaces: a
   false suspicion and a doubled timeout. *)
let test_link_rejoin_is_not_false_suspicion () =
  let hb = H.config ~period:4 ~timeout:12 ~backoff:2 () in
  let silent = unit_proc (fun _ _ () _ -> outcome ()) in
  let suspected_at ~rejoin =
    let stats = L.stats () in
    let eng = Eng.create (L.harden ~heartbeat:hb ~stats ~n:2 silent) ~pid:0 in
    ignore (Eng.start eng ~now:0);
    ignore (Eng.advance eng ~now:12);
    Alcotest.(check (list int)) "silent peer suspected" [ 1 ]
      (L.suspects (Eng.state eng));
    if rejoin then Eng.map_state eng (fun st -> L.rejoin ~stats st 1 ~now:13);
    ignore (Eng.deliver eng ~now:13 ~src:1 L.Beat);
    Alcotest.(check (list int)) "trusted again" [] (L.suspects (Eng.state eng));
    (* silence from tick 13 on: the first tick at which it is suspected
       again is 13 + its current timeout *)
    let rec first now =
      ignore (Eng.advance eng ~now);
      if L.suspects (Eng.state eng) = [ 1 ] then now else first (now + 1)
    in
    (stats, first 14)
  in
  let stats, at = suspected_at ~rejoin:true in
  Alcotest.(check int) "rejoin: no false suspicion" 0 stats.L.false_suspicions;
  Alcotest.(check int) "rejoin: one un-suspect" 1 stats.L.unsuspects;
  Alcotest.(check int) "rejoin: initial timeout" (13 + 12) at;
  let stats, at = suspected_at ~rejoin:false in
  Alcotest.(check int) "evidence: a false suspicion" 1 stats.L.false_suspicions;
  Alcotest.(check int) "evidence: one un-suspect" 1 stats.L.unsuspects;
  Alcotest.(check int) "evidence: doubled timeout" (13 + 24) at

(* A clean exit reaches a draining sender as a retirement notice (the
   real fleet's bye): the packet pending to the departed peer is dropped,
   the sender terminates at once, and it retransmits nothing more. *)
let test_link_drain_ends_on_notice () =
  let proc =
    unit_proc (fun _ _ () ev ->
        match ev with
        | E.Started -> outcome ~sends:[ (1, "final") ] ~terminate:true ()
        | _ -> outcome ())
  in
  let stats = L.stats () in
  let hardened =
    L.harden ~config:(L.config ~rto:4 ())
      ~heartbeat:(H.config ~period:4 ~timeout:1000 ())
      ~stats ~n:2 proc
  in
  let eng = Eng.create hardened ~pid:0 in
  let fx = Eng.start eng ~now:0 in
  Alcotest.(check bool) "draining, not terminated" false fx.Eng.terminated;
  Alcotest.(check int) "one packet pending" 1 (L.in_flight (Eng.state eng));
  ignore (Eng.advance eng ~now:4);
  Alcotest.(check int) "unacked packet retransmitted" 1 stats.L.retransmits;
  let fx = Eng.notice eng ~now:5 1 in
  Alcotest.(check bool) "terminates on the notice" true fx.Eng.terminated;
  Alcotest.(check int) "nothing pending" 0 (L.in_flight (Eng.state eng));
  let fx = Eng.advance eng ~now:1000 in
  Alcotest.(check bool) "no sends afterwards" true (fx.Eng.sends = []);
  Alcotest.(check int) "no further retransmissions" 1 stats.L.retransmits

(* --- hardened async Protocol A: the acceptance criterion --- *)

let test_hardened_a_lossy_campaign () =
  (* drop <= 30%, duplication, a slow process and crashes: the hardened
     protocol must still complete every unit, with every live process
     terminating, across seeds *)
  let spec = Helpers.spec ~n:40 ~t:6 in
  let link =
    { E.drop_bp = 3_000; dup_bp = 1_000; corrupt_bp = 0; slow_set = [ 4 ]; slow_factor = 3; severs = [] }
  in
  for seed = 1 to 10 do
    let stats = L.stats () in
    let r =
      Asim.Async_protocol_a.run_hardened
        ~crash_at:[ (0, 30); (3, 150) ]
        ~link ~stats ~seed:(Int64.of_int seed) ~max_ticks:200_000 spec
    in
    let name = Printf.sprintf "seed %d" seed in
    (* detector accounting: under crash-stop every un-suspect is a
       retracted (false) suspicion, and no more can be retracted than
       were ever fired *)
    Alcotest.(check int)
      (name ^ ": unsuspects = false suspicions")
      stats.L.false_suspicions stats.L.unsuspects;
    Alcotest.(check int)
      (name ^ ": unsuspects = retired-set recoveries")
      stats.L.recoveries stats.L.unsuspects;
    Alcotest.(check bool)
      (name ^ ": retractions bounded by suspicions")
      true
      (stats.L.false_suspicions <= stats.L.suspicions);
    Alcotest.(check bool)
      (name ^ ": the crashed pair was eventually suspected")
      true
      (stats.L.suspicions >= 2);
    Alcotest.(check bool) (name ^ ": completed") true (E.completed r);
    Alcotest.(check bool)
      (name ^ ": every unit performed")
      true
      (Simkit.Metrics.all_units_done r.metrics);
    Array.iteri
      (fun pid st ->
        match st with
        | Simkit.Types.Terminated _ | Simkit.Types.Crashed _ -> ()
        | Simkit.Types.Running ->
            Alcotest.failf "%s: process %d still running" name pid)
      r.statuses;
    Alcotest.(check bool)
      (name ^ ": at least one crash bit")
      true
      (Simkit.Metrics.crashes r.metrics >= 1)
  done

let test_hardened_a_overhead_vs_perfect_link () =
  (* the price of loss is overhead, never lost units *)
  let spec = Helpers.spec ~n:60 ~t:6 in
  let perfect = Asim.Async_protocol_a.run_hardened ~seed:9L spec in
  let lossy =
    Asim.Async_protocol_a.run_hardened ~seed:9L
      ~link:{ E.perfect_link with drop_bp = 2_500; dup_bp = 500 }
      spec
  in
  Alcotest.(check bool) "both complete" true
    (E.completed perfect && E.completed lossy);
  Alcotest.(check bool) "both cover all units" true
    (Simkit.Metrics.all_units_done perfect.metrics
    && Simkit.Metrics.all_units_done lossy.metrics);
  Alcotest.(check bool) "loss costs messages" true
    (Simkit.Metrics.messages lossy.metrics
    >= Simkit.Metrics.messages perfect.metrics)

(* --- false suspicions: bounded duplication, nothing lost --- *)

let gen_false_suspicion_case =
  let open QCheck2.Gen in
  let* observers = shuffle_l [ 1; 2; 3; 4; 5 ] in
  let* m = int_range 1 3 in
  let observers = List.sort compare (List.filteri (fun i _ -> i < m) observers) in
  let* tau = int_range 2 15 in
  let* seed = map Int64.of_int int in
  return (observers, tau, seed)

let prop_false_suspicions_duplicate_boundedly =
  Helpers.qcheck_case ~count:40
    ~name:"async A: false suspicions duplicate work, boundedly, losing nothing"
    gen_false_suspicion_case
    (fun (observers, tau, seed) ->
      let n = 40 and t = 6 in
      let spec = Helpers.spec ~n ~t in
      let m = List.length observers in
      (* each observer is falsely convinced every lower pid is gone, so it
         activates alongside the true active process *)
      let false_suspicions =
        List.concat_map
          (fun o -> List.init o (fun p -> (o, p, tau)))
          observers
      in
      (* max_delay 1 keeps the run race-free: a final broadcast always
         lands before any termination notice, so the only extra actives
         are the m injected ones and the bounds below are exact *)
      let r =
        Asim.Async_protocol_a.run ~max_delay:1 ~seed ~false_suspicions spec
      in
      let work = Simkit.Metrics.work r.metrics in
      let worst_mult = ref 0 in
      for u = 0 to n - 1 do
        worst_mult := max !worst_mult (Simkit.Metrics.unit_multiplicity r.metrics u)
      done;
      if not (E.completed r) then QCheck2.Test.fail_report "did not complete"
      else if not (Simkit.Metrics.all_units_done r.metrics) then
        QCheck2.Test.fail_report "units lost under false suspicion"
      else if work <= n then
        QCheck2.Test.fail_reportf "no duplication despite %d false actives" m
      else if work > n * (1 + m) then
        QCheck2.Test.fail_reportf "work %d exceeds %d actives x %d units" work
          (1 + m) n
      else if !worst_mult > 1 + m then
        QCheck2.Test.fail_reportf "unit multiplicity %d > 1 + %d" !worst_mult m
      else true)

(* --- async campaigns stay clean and deterministic --- *)

let test_async_campaign_clean_and_deterministic () =
  let spec = Helpers.spec ~n:30 ~t:5 in
  let go () = Asim.Async_fuzz.campaign ~seed:11L ~executions:40 spec in
  let a = go () in
  (match a.Simkit.Campaign.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "async campaign violation: oracle=%s (%s)"
        f.Simkit.Campaign.oracle f.Simkit.Campaign.detail);
  Alcotest.(check int) "all judged" 40 a.Simkit.Campaign.schedules;
  Alcotest.(check bool) "deterministic in seed" true (go () = a)

(* ---- the substrate against its reference --------------------------- *)

(* The event queue, [Link.harden], [Heartbeat] and [Prng] against the
   versions in Ref_async (a map-of-lists queue, a state record copied per
   event, boxed deadlines, a boxed generator): on sampled crash and
   Byzantine schedules, plain and validated, both must produce the same
   [Event_sim.result] and the same [Link.stats], logs included. *)
module CA = Simkit.Campaign.Async

type sub_case = { sn : int; st : int; validated : bool; observed : bool; sched : CA.t }

let sub_case_to_string c =
  Printf.sprintf "n=%d t=%d %s%s\n%s" c.sn c.st
    (if c.validated then "validated" else "hardened")
    (if c.observed then " observed" else "")
    (CA.print c.sched)

let gen_sub_case =
  let open QCheck2.Gen in
  let* st = int_range 1 8 in
  let* sn = int_range 1 60 in
  let* validated = bool in
  let* observed = bool in
  let* byz = int_range (-1) (max 0 ((st - 1) / 2)) in
  (* long windows put crashes beyond the queue's ring horizon *)
  let* stretch = int_range 1 4 in
  let* seed = no_shrink int in
  let g = Prng.create (Int64.of_int seed) in
  let window = ((4 * sn) + 20) * stretch in
  let sched =
    if byz < 0 then CA.sample g ~t:st ~window else CA.sample_byz g ~t:st ~window ~byz
  in
  return { sn; st; validated; observed; sched }

let substrate_view c (r : E.result) (s : Asim.Link.stats) events =
  let triples l =
    String.concat ";" (List.map (fun (a, b, c) -> Printf.sprintf "%d,%d,%d" a b c) l)
  in
  [
    ("outcome", Format.asprintf "%a" E.pp_outcome r.E.outcome);
    ( "statuses",
      String.concat " "
        (Array.to_list (Array.map Simkit.Types.status_to_string r.E.statuses)) );
    ( "net",
      Printf.sprintf "sent=%d dropped=%d duplicated=%d" r.E.net.E.sent
        r.E.net.E.dropped r.E.net.E.duplicated );
  ]
  @ List.map
      (fun (k, v) -> ("metric " ^ k, string_of_int v))
      (Test_kernel_diff.readers r.E.metrics ~n:c.sn ~t:c.st)
  @ List.map
      (fun (k, v) -> ("stats " ^ k, string_of_int v))
      Asim.Link.
        [
          ("data_sent", s.data_sent); ("retransmits", s.retransmits);
          ("acks_sent", s.acks_sent); ("beats_sent", s.beats_sent);
          ("dups_suppressed", s.dups_suppressed); ("recoveries", s.recoveries);
          ("suspicions", s.suspicions); ("false_suspicions", s.false_suspicions);
          ("unsuspects", s.unsuspects); ("abandoned", s.abandoned);
        ]
  @ [
      ("stats notices", triples s.Asim.Link.notices);
      ("stats suspect_log", triples s.Asim.Link.suspect_log);
      ("stats unsuspect_log", triples s.Asim.Link.unsuspect_log);
    ]
  @ List.mapi
      (fun i e ->
        (Printf.sprintf "obs event %d" i, Dhw_util.Jsonw.to_string (Simkit.Obs.event_to_json e)))
      (List.rev events)

let substrate_agrees c =
  let spec = Doall.Spec.make ~n:c.sn ~t:c.st in
  let sched = c.sched in
  let crash_at = List.map (fun (x : CA.crash) -> (x.CA.victim, x.CA.at)) sched.CA.crashes in
  let byz = List.map (fun (x : CA.crash) -> (x.CA.victim, x.CA.at)) sched.CA.byz in
  let link = Asim.Async_fuzz.link_of_schedule sched in
  let max_ticks = 20_000 in
  let max_delay = sched.CA.max_delay and max_lag = sched.CA.max_lag in
  let seed = sched.CA.seed in
  let stats = Asim.Link.stats () and ref_stats = Asim.Link.stats () in
  let events = ref [] and ref_events = ref [] in
  let sink l = if c.observed then Some (fun e -> l := e :: !l) else None in
  let obs = sink events and ref_obs = sink ref_events in
  let fresh, reference =
    if c.validated then
      ( Asim.Async_protocol_a.run_validated ~crash_at ~max_delay ~max_lag ~seed ~link
          ~stats ~max_ticks ~byz ?obs spec,
        Ref_async.run_validated ~crash_at ~max_delay ~max_lag ~seed ~link
          ~stats:ref_stats ~max_ticks ~byz ?obs:ref_obs spec )
    else
      ( Asim.Async_protocol_a.run_hardened ~crash_at ~max_delay ~max_lag ~seed ~link
          ~stats ~max_ticks ~byz ?obs spec,
        Ref_async.run_hardened ~crash_at ~max_delay ~max_lag ~seed ~link
          ~stats:ref_stats ~max_ticks ~byz ?obs:ref_obs spec )
  in
  let a = substrate_view c fresh stats !events
  and b = substrate_view c reference ref_stats !ref_events in
  if List.length a <> List.length b then
    QCheck2.Test.fail_reportf "%s\n%d observations, reference %d" (sub_case_to_string c)
      (List.length a) (List.length b);
  match List.find_opt (fun ((k, x), (_, y)) -> ignore k; x <> y) (List.combine a b) with
  | None -> true
  | Some ((k, x), (_, y)) ->
      QCheck2.Test.fail_reportf "%s\n%s: substrate %s, reference %s"
        (sub_case_to_string c) k x y

let prop_substrate_reference =
  Helpers.qcheck_case ~count:300
    ~name:"substrate = reference on sampled crash and byz schedules"
    gen_sub_case substrate_agrees

(* Items queued beyond the ring horizon wait in the far map and must reach
   their tick's bucket in queue order: three false suspicions and three
   continuations land on tick 300, and a crash on tick 301, queued while
   the run is at tick 0. *)
let test_far_items_keep_order () =
  let run runner =
    let log = ref [] in
    let proc =
      {
        E.a_init = (fun _ -> ());
        a_handle =
          (fun pid now () ev ->
            let what =
              match ev with
              | E.Started -> "start"
              | E.Got _ -> "got"
              | E.Retired_notice q -> Printf.sprintf "notice %d" q
              | E.Continue -> "continue"
            in
            log := Printf.sprintf "%d@%d %s" pid now what :: !log;
            {
              E.state = ();
              sends = [];
              work = [];
              terminate = now >= 300 && ev = E.Continue;
              continue_after = (if ev = E.Started then Some (300 - now) else None);
            });
      }
    in
    let cfg =
      E.config ~n_processes:3 ~n_units:1 ~oracle_detector:false
        ~false_suspicions:[ (2, 1, 300); (1, 0, 300); (0, 2, 300) ]
        ~crash_at:[ (1, 301) ] ()
    in
    let r = runner cfg proc in
    (List.rev !log, Format.asprintf "%a" E.pp_outcome r.E.outcome)
  in
  let fresh = run (fun cfg p -> E.run cfg p)
  and reference = run (fun cfg p -> Ref_async.Event_sim.run cfg p) in
  Alcotest.(check (pair (list string) string)) "same deliveries as the reference"
    reference fresh;
  Alcotest.(check (list string)) "tick 300 in queue order"
    [ "2@300 notice 1"; "1@300 notice 0"; "0@300 notice 2"; "0@300 continue";
      "1@300 continue"; "2@300 continue" ]
    (List.filter
       (fun l -> String.ends_with ~suffix:"@300" (List.hd (String.split_on_char ' ' l)))
       (fst fresh))

(* The unboxed generator against the boxed one: raw draws, bounded draws
   (bounds near 2^62 make rejection likely), copies, splits and streams. *)
let prop_prng_reference =
  let module R = Ref_async.Prng in
  let bounds =
    [ 1; 2; 3; 7; 10_000; max_int / 3; (1 lsl 61) + 1; 0x3FFFFFFFFFFFFFFF ]
  in
  Helpers.qcheck_case ~count:200 ~name:"Prng = boxed reference"
    QCheck2.Gen.(pair int64 (int_range 0 1000))
    (fun (seed, i) ->
      let g = Prng.create seed and r = R.create seed in
      let raw = List.init 20 (fun _ -> (Prng.next_int64 g, R.next_int64 r)) in
      let bounded =
        List.concat_map
          (fun b -> List.init 20 (fun _ -> (Prng.int g b, R.int r b)))
          bounds
      in
      let gc = Prng.copy g and rc = R.copy r in
      let copied = List.init 10 (fun _ -> (Prng.int gc 97, R.int rc 97)) in
      let after_copy = List.init 10 (fun _ -> (Prng.int g 97, R.int r 97)) in
      let gs = Prng.split g and rs = R.split r in
      let split = List.init 10 (fun _ -> (Prng.next_int64 gs, R.next_int64 rs)) in
      let gs = Prng.stream seed i and rs = R.stream seed i in
      let streamed = List.init 10 (fun _ -> (Prng.next_int64 gs, R.next_int64 rs)) in
      let same l = List.for_all (fun (x, y) -> x = y) l in
      same raw && same bounded && same copied && same after_copy && same split
      && same streamed)

let suite =
  [
    Alcotest.test_case "message delays bounded" `Quick test_message_delay_bounds;
    Alcotest.test_case "detector sound and complete" `Quick test_fd_soundness_and_completeness;
    Alcotest.test_case "termination notified too" `Quick test_termination_also_notified;
    Alcotest.test_case "continue scheduling" `Quick test_continue_scheduling;
    Alcotest.test_case "async A: failure-free" `Quick test_async_a_failure_free;
    Alcotest.test_case "async A: failover chain" `Quick test_async_a_failover_chain;
    Alcotest.test_case "async A: random schedules" `Quick test_async_a_random;
    Alcotest.test_case "async A: slow detector" `Quick test_async_a_slow_detector_still_correct;
    Alcotest.test_case "async A: unsound detector duplicates work" `Quick
      test_async_a_unsound_detector_duplicates_but_completes;
    Alcotest.test_case "outcome: stalled runs reported" `Quick
      test_outcome_stalled;
    Alcotest.test_case "outcome: tick limit reported" `Quick
      test_outcome_tick_limit;
    Alcotest.test_case "config: invalid fields rejected with clear errors"
      `Quick test_config_validation;
    Alcotest.test_case "link: loss counted and fatal to bare protocols" `Quick
      test_link_drop;
    Alcotest.test_case "link: duplication delivers twice" `Quick
      test_link_duplication;
    Alcotest.test_case "link: slow set stretches delays beyond max_delay"
      `Quick test_link_slow_set_stretches_delays;
    prop_seed_determinism;
    Alcotest.test_case "heartbeat: silent peers suspected" `Quick
      test_heartbeat_suspects_silent_peer;
    Alcotest.test_case "heartbeat: evidence retracts, timeout backs off"
      `Quick test_heartbeat_evidence_retracts_and_backs_off;
    Alcotest.test_case "heartbeat: stop is permanent" `Quick
      test_heartbeat_stop_is_permanent;
    Alcotest.test_case "heartbeat: detector stats + rejoin un-suspects" `Quick
      test_heartbeat_stats_and_rejoin;
    prop_heartbeat_restart_churn;
    Alcotest.test_case "engine: per-process event contract" `Quick
      test_engine_event_contract;
    Alcotest.test_case "engine: oracle notices relayed" `Quick
      test_engine_notice_relays_detector;
    Alcotest.test_case "harden: retransmission survives 70% loss" `Quick
      test_link_harden_survives_loss;
    Alcotest.test_case "harden: duplicates delivered once" `Quick
      test_link_harden_dedups_duplicates;
    Alcotest.test_case "harden: max_retries exhaustion abandons, no deadlock"
      `Quick test_link_max_retries_exhaust;
    Alcotest.test_case "harden: unbounded retries stall without a bound"
      `Quick test_link_unbounded_retries_stall;
    Alcotest.test_case "harden: a rejoin is not a false suspicion" `Quick
      test_link_rejoin_is_not_false_suspicion;
    Alcotest.test_case "harden: a draining sender ends on a notice" `Quick
      test_link_drain_ends_on_notice;
    Alcotest.test_case "hardened A: lossy campaign completes (acceptance)"
      `Quick test_hardened_a_lossy_campaign;
    Alcotest.test_case "hardened A: loss costs overhead, not units" `Quick
      test_hardened_a_overhead_vs_perfect_link;
    prop_false_suspicions_duplicate_boundedly;
    Alcotest.test_case "async campaign: clean and deterministic" `Quick
      test_async_campaign_clean_and_deterministic;
    prop_substrate_reference;
    Alcotest.test_case "event sim: far-ahead items keep queue order" `Quick
      test_far_items_keep_order;
    prop_prng_reference;
  ]
