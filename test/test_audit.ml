(* The Simkit.Audit checkers themselves: they must accept clean traces and
   flag synthetically corrupted ones, give the post-hoc reference's
   violation lists (Ref_audit) whether the kernel feeds them or a recorded
   event stream is replayed through them, and cost nothing per event. *)

module O = Simkit.Obs
module A = Simkit.Audit
module C = Simkit.Campaign
module Fuzz = Doall.Fuzz

let test_well_formed_accepts () =
  let tr =
    [
      O.Step { pid = 0; at = 0 };
      O.Work { pid = 0; at = 0; unit_id = 0 };
      O.Send { src = 0; dst = 1; at = 1; tag = "(1)" };
      O.Terminate { pid = 0; at = 2 };
      O.Crash { pid = 1; at = 3 };
    ]
  in
  Alcotest.(check int) "clean" 0 (List.length (A.well_formed tr))

let test_well_formed_flags_zombie () =
  let tr =
    [
      O.Crash { pid = 0; at = 1 };
      O.Work { pid = 0; at = 2; unit_id = 3 };
    ]
  in
  Alcotest.(check int) "zombie work flagged" 1 (List.length (A.well_formed tr))

let test_well_formed_flags_double_retire () =
  let tr =
    [
      O.Terminate { pid = 0; at = 1 };
      O.Crash { pid = 0; at = 2 };
    ]
  in
  Alcotest.(check int) "double retirement flagged" 1 (List.length (A.well_formed tr))

let test_well_formed_flags_time_travel () =
  let tr =
    [
      O.Step { pid = 0; at = 5 };
      O.Step { pid = 1; at = 3 };
    ]
  in
  Alcotest.(check int) "backwards trace flagged" 1 (List.length (A.well_formed tr))

let test_one_active_flags_pair () =
  let tr =
    [
      O.Work { pid = 0; at = 4; unit_id = 0 };
      O.Work { pid = 1; at = 4; unit_id = 1 };
    ]
  in
  Alcotest.(check int) "two actives flagged" 1
    (List.length (A.at_most_one_active tr))

let test_one_active_respects_passive () =
  let tr =
    [
      O.Work { pid = 0; at = 4; unit_id = 0 };
      O.Send { src = 2; dst = 0; at = 4; tag = "go_ahead" };
    ]
  in
  Alcotest.(check int) "passive sender tolerated" 0
    (List.length (A.at_most_one_active ~passive_msg:(( = ) "go_ahead") tr));
  Alcotest.(check int) "without the classifier it is flagged" 1
    (List.length (A.at_most_one_active tr))

let test_monotone_work () =
  let good =
    [
      O.Work { pid = 0; at = 0; unit_id = 0 };
      O.Work { pid = 0; at = 1; unit_id = 1 };
      O.Work { pid = 1; at = 9; unit_id = 1 } (* redo: fine *);
      O.Work { pid = 1; at = 10; unit_id = 2 };
    ]
  in
  Alcotest.(check int) "monotone accepted" 0 (List.length (A.work_is_monotone good));
  let bad =
    [
      O.Work { pid = 0; at = 0; unit_id = 5 };
      O.Work { pid = 1; at = 3; unit_id = 2 } (* first perf, below 5 *);
    ]
  in
  Alcotest.(check int) "regression flagged" 1 (List.length (A.work_is_monotone bad))

let test_real_traces_clean () =
  (* every sequential protocol's real trace passes all three checkers *)
  let spec = Doall.Spec.make ~n:24 ~t:9 in
  List.iter
    (fun (proto, passive) ->
      let obs, recorded = O.memory () in
      let fault = Simkit.Fault.crash_silently_at [ (0, 9); (3, 60) ] in
      ignore (Doall.Runner.run ~fault ~obs spec proto);
      let trace = recorded () in
      Alcotest.(check int) "well formed" 0 (List.length (A.well_formed trace));
      Alcotest.(check int) "one active" 0
        (List.length (A.at_most_one_active ~passive_msg:passive trace));
      Alcotest.(check int) "monotone" 0 (List.length (A.work_is_monotone trace)))
    [
      (Doall.Protocol_a.protocol, fun _ -> false);
      (Doall.Protocol_b.protocol, Helpers.b_passive);
      (Doall.Protocol_c.protocol, Helpers.c_passive);
      (Doall.Baseline_checkpoint.protocol ~period:2, fun _ -> false);
    ]

(* ---- the streaming checker against the post-hoc reference ----------- *)

let render pp vs = List.map (Format.asprintf "%a" pp) vs
let texts vs = render A.pp_violation vs
let ref_texts vs = render Ref_audit.pp_violation vs

let same_lists what ~streaming ~reference =
  if streaming <> reference then
    QCheck2.Test.fail_reportf "%s: streaming [%s], reference [%s]" what
      (String.concat "; " streaming) (String.concat "; " reference)

type subject = P of Doall.Protocol.t | Rec of Doall.Recovery.which

type plan =
  | Sampled of C.Schedule.t
  | Random of { seed : int64; victims : int; window : int }

let subjects =
  [|
    ("A", P Doall.Protocol_a.protocol, fun _ -> false);
    ("B", P Doall.Protocol_b.protocol, Helpers.b_passive);
    ("C", P Doall.Protocol_c.protocol, Helpers.c_passive);
    ("C-chunked", P Doall.Protocol_c.protocol_chunked, Helpers.c_passive);
    ("A+rec", Rec Doall.Recovery.A, fun _ -> false);
    ("B+rec", Rec Doall.Recovery.B, Helpers.b_passive);
  |]

type case = { subject : int; n : int; t : int; plan : plan }

let case_to_string c =
  let name, _, _ = subjects.(c.subject) in
  Printf.sprintf "%s n=%d t=%d %s" name c.n c.t
    (match c.plan with
    | Sampled s -> C.Schedule.print s
    | Random { seed; victims; window } ->
        Printf.sprintf "Fault.random seed=%Ld victims=%d window=%d" seed victims
          window)

(* Protocol C's deadlines grow as 2^(n+t), so its instances stay small. *)
let gen_case =
  let open QCheck2.Gen in
  let* subject = int_range 0 (Array.length subjects - 1) in
  let c_family = subject = 2 || subject = 3 in
  let* t = int_range 1 (if c_family then 6 else 10) in
  let* n = int_range 1 (if c_family then 14 else 40) in
  let* seed = no_shrink int in
  let* family = int_range 0 2 in
  let g = Dhw_util.Prng.create (Int64.of_int seed) in
  let window = (2 * Dhw_util.Intmath.ceil_div n t) + 8 in
  let plan =
    match family with
    | 0 -> Sampled (C.sample g ~t ~window)
    | 1 -> Sampled (C.sample_recovery g ~t ~window ~restart_gap:(1 + Dhw_util.Prng.int g 6))
    | _ ->
        Random
          { seed = Int64.of_int seed; victims = Dhw_util.Prng.int g t; window }
  in
  return { subject; n; t; plan }

(* How many cases each check flagged. The kernel is well-formed and the
   protocols perform first performances in order even under restarts, so
   real runs flag only one-active (under restarts a rejoiner may overlap the
   active process); a law that never flags it has compared only empty
   lists. The replay laws below cover non-empty lists of all three. *)
let flagged = Array.make 3 0
let all_checks = [ A.Well_formed; A.One_active; A.Monotone ]

let agree c =
  let _, subject, passive_msg = subjects.(c.subject) in
  let spec = Doall.Spec.make ~n:c.n ~t:c.t in
  let fault =
    match c.plan with
    | Sampled s -> C.Schedule.to_fault s
    | Random { seed; victims; window } -> Simkit.Fault.random ~seed ~t:c.t ~victims ~window
  in
  let obs, recorded = O.memory () in
  let audit = A.create ~processes:c.t ~units:c.n () in
  let max_rounds = 1_000_000 in
  (match subject with
  | P proto -> ignore (Doall.Runner.run ~fault ~max_rounds ~obs ~audit spec proto)
  | Rec which -> ignore (Doall.Recovery.run ~fault ~max_rounds ~obs ~audit spec which));
  let events = recorded () in
  (* The same stream replayed: passivity judged by tag text must agree with
     passivity judged by payload, and the recovery runs' persists must be
     skipped. *)
  let replayed = A.replay ~passive_msg events in
  List.iteri
    (fun i (check, name, reference) ->
      let streaming = texts (A.violations audit check) in
      if streaming <> [] then flagged.(i) <- flagged.(i) + 1;
      same_lists
        (name ^ " on " ^ case_to_string c)
        ~streaming ~reference:(ref_texts (reference events));
      same_lists
        (name ^ " replayed on " ^ case_to_string c)
        ~streaming:(texts (A.violations replayed check)) ~reference:streaming)
    [
      (A.Well_formed, "well-formed", Ref_audit.well_formed);
      (A.One_active, "one-active", Ref_audit.at_most_one_active ~passive_msg);
      (A.Monotone, "monotone", Ref_audit.work_is_monotone);
    ];
  true

let kernel_law =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:600
         ~name:"kernel-fed checker = post-hoc reference on random runs" gen_case agree)
  in
  let run () =
    run ();
    Printf.printf "cases flagged: well-formed %d, one-active %d, monotone %d\n"
      flagged.(0) flagged.(1) flagged.(2);
    if flagged.(1) = 0 then
      Alcotest.fail "no run violated one-active: the law compared only empty lists"
  in
  (name, speed, run)

(* Hand-built traces, possibly malformed, through the replay front end. With
   non-decreasing rounds all three checks must match the reference; with
   rounds that may go backwards, well-formed and monotone still must (see
   [Audit.One_active] for where one-active may then differ). *)
let gen_trace ~monotone_rounds =
  let open QCheck2.Gen in
  let pid = int_range 0 3 in
  let* len = int_range 0 30 in
  let* steps =
    list_repeat len
      (triple (int_range 0 6)
         (if monotone_rounds then int_range 0 1 else int_range 0 5)
         (triple pid pid (int_range 0 5)))
  in
  let b_go = Doall.Protocol_b.(show_msg Go_ahead) in
  let _, events =
    List.fold_left
      (fun (r, acc) (kind, dr, (p, q, u)) ->
        let round = if monotone_rounds then r + dr else dr in
        let what = if u < 2 then b_go else "ord" in
        let ev =
          match kind with
          | 0 -> O.Step { pid = p; at = round }
          | 1 -> O.Send { src = p; dst = q; at = round; tag = what }
          | 2 -> O.Drop { src = p; dst = q; at = round; tag = what }
          | 3 -> O.Work { pid = p; at = round; unit_id = u }
          | 4 -> O.Crash { pid = p; at = round }
          | 5 -> O.Restart { pid = p; at = round }
          | _ -> O.Terminate { pid = p; at = round }
        in
        (round, ev :: acc))
      (0, []) steps
  in
  return (List.rev events)

let print_trace events =
  String.concat "\n" (List.map (Format.asprintf "%a" O.pp_event) events)

let replay_agrees ~monotone_rounds tr =
  let b = Fuzz.trace_audit ~protocol:"b" tr in
  let pairs =
    [
      ("well-formed", texts (A.violations b A.Well_formed), Ref_audit.well_formed tr);
      ("monotone", texts (A.violations b A.Monotone), Ref_audit.work_is_monotone tr);
      ( "monotone (trace front end)",
        texts (A.work_is_monotone tr),
        Ref_audit.work_is_monotone tr );
      ("well-formed (trace front end)", texts (A.well_formed tr), Ref_audit.well_formed tr);
    ]
    @
    if monotone_rounds then
      [
        ( "one-active (B's passive rendering)",
          texts (A.violations b A.One_active),
          Ref_audit.at_most_one_active ~passive_msg:Helpers.b_passive tr );
        ( "one-active (nothing passive)",
          texts (A.at_most_one_active tr),
          Ref_audit.at_most_one_active tr );
      ]
    else []
  in
  List.iter
    (fun (what, streaming, reference) ->
      same_lists (what ^ " on\n" ^ print_trace tr) ~streaming
        ~reference:(ref_texts reference))
    pairs;
  true

let replay_law ~monotone_rounds =
  Helpers.qcheck_case ~count:500
    ~name:
      (if monotone_rounds then "replayed traces = reference (rounds forward)"
       else "replayed traces = reference (rounds may go back)")
    (gen_trace ~monotone_rounds) (replay_agrees ~monotone_rounds)

let check_same what tr =
  let b = Fuzz.trace_audit ~protocol:"b" tr in
  List.iter
    (fun (check, reference) ->
      Alcotest.(check (list string)) what (ref_texts reference) (texts (A.violations b check)))
    [
      (A.Well_formed, Ref_audit.well_formed tr);
      (A.One_active, Ref_audit.at_most_one_active ~passive_msg:Helpers.b_passive tr);
      (A.Monotone, Ref_audit.work_is_monotone tr);
    ]

let test_malformed_replays () =
  let b_go = Doall.Protocol_b.(show_msg Go_ahead) in
  check_same "double retire"
    [ O.Crash { pid = 1; at = 2 }; O.Terminate { pid = 1; at = 3 } ];
  check_same "restart of a live pid" [ O.Restart { pid = 0; at = 1 } ];
  check_same "restart of a terminated pid"
    [ O.Terminate { pid = 2; at = 1 }; O.Restart { pid = 2; at = 4 };
      O.Step { pid = 2; at = 5 } ];
  check_same "restart revives a crashed pid"
    [ O.Crash { pid = 0; at = 1 }; O.Restart { pid = 0; at = 3 };
      O.Work { pid = 0; at = 3; unit_id = 0 } ];
  check_same "two actives in one round, and a passive go-ahead"
    [ O.Work { pid = 0; at = 4; unit_id = 0 };
      O.Send { src = 1; dst = 0; at = 4; tag = b_go };
      O.Send { src = 2; dst = 0; at = 4; tag = "x" } ];
  check_same "late lower first performance"
    [ O.Work { pid = 0; at = 1; unit_id = 3 };
      O.Work { pid = 1; at = 2; unit_id = 1 };
      O.Work { pid = 1; at = 3; unit_id = 3 } ];
  let backwards =
    [ O.Step { pid = 0; at = 5 }; O.Step { pid = 1; at = 3 } ]
  in
  check_same "a backwards round" backwards;
  Alcotest.(check (list string)) "the backwards step is named"
    [ "[r3] trace goes backwards (previous round 5)" ]
    (texts (A.well_formed backwards))

(* Where the streaming one-active and the per-round table part: a round the
   trace returns to is started afresh. Well-formed rejects such a trace. *)
let test_backwards_one_active () =
  let tr =
    [ O.Work { pid = 0; at = 4; unit_id = 0 };
      O.Work { pid = 1; at = 5; unit_id = 1 };
      O.Work { pid = 2; at = 4; unit_id = 2 } ]
  in
  Alcotest.(check (list string)) "the table remembers round 4"
    [ "[r4] two active processes: 0 and 2" ]
    (ref_texts (Ref_audit.at_most_one_active tr));
  Alcotest.(check (list string)) "the checker started round 4 afresh" []
    (texts (A.at_most_one_active tr));
  Alcotest.(check int) "well-formed flags the trace" 1 (List.length (A.well_formed tr))

(* ---- what the checker costs --------------------------------------- *)

(* A one-process run of [rounds] rounds whose step allocates nothing: every
   outcome is built before the run. *)
let silent_run ?audit ~n rounds =
  let outcomes =
    Array.init rounds (fun r ->
        {
          Simkit.Types.state = ();
          sends = [];
          work = [ r ];
          terminate = r = rounds - 1;
          wakeup = Some (r + 1);
        })
  in
  let proc =
    {
      Simkit.Types.init = (fun _ -> ((), Some 0));
      step = (fun _ r () _ -> outcomes.(r));
      ahead = Simkit.Types.no_ahead;
    }
  in
  let cfg = Simkit.Kernel.config ?audit ~n_processes:1 ~n_units:n () in
  let before = Gc.minor_words () in
  let res = Simkit.Kernel.run cfg proc in
  let words = Gc.minor_words () -. before in
  assert (res.Simkit.Kernel.outcome = Simkit.Kernel.Completed);
  words

let test_costs () =
  let n = 8192 in
  let per_round ?audit () =
    let short = silent_run ?audit:(Option.map (fun f -> f ()) audit) ~n 2048 in
    let long = silent_run ?audit:(Option.map (fun f -> f ()) audit) ~n 8192 in
    (long -. short) /. 6144.
  in
  Alcotest.(check (float 0.01)) "disarmed: 0 words per round" 0. (per_round ());
  Alcotest.(check (float 0.01)) "armed: still 0 words per round" 0.
    (per_round ~audit:(fun () -> A.create ~processes:1 ~units:n ()) ());
  (* A at n = 10^4, t = 100: ~10^4 work events and more sends, one
     checker of O(t + n) words *)
  let n = 10_000 and t = 100 in
  let spec = Doall.Spec.make ~n ~t in
  let words ?audit () =
    let before = Gc.minor_words () in
    let r = Doall.Runner.run ?audit spec Doall.Protocol_a.protocol in
    let w = Gc.minor_words () -. before in
    Helpers.check_correct "A" r;
    w
  in
  let disarmed = words () in
  let audit = A.create ~processes:t ~units:n () in
  let armed = words ~audit () in
  Alcotest.(check (list string)) "the run is clean" []
    (List.concat_map (fun c -> texts (A.violations audit c)) all_checks);
  let state = t + (n / 64) in
  if armed -. disarmed > float_of_int (state + 300) then
    Alcotest.failf "arming the checker cost %.0f minor words (state %d + 300 allowed)"
      (armed -. disarmed) state

let suite =
  [
    Alcotest.test_case "well-formed: accepts clean" `Quick test_well_formed_accepts;
    Alcotest.test_case "well-formed: zombie action" `Quick test_well_formed_flags_zombie;
    Alcotest.test_case "well-formed: double retirement" `Quick test_well_formed_flags_double_retire;
    Alcotest.test_case "well-formed: time travel" `Quick test_well_formed_flags_time_travel;
    Alcotest.test_case "one-active: flags a pair" `Quick test_one_active_flags_pair;
    Alcotest.test_case "one-active: passive classifier" `Quick test_one_active_respects_passive;
    Alcotest.test_case "monotone work" `Quick test_monotone_work;
    Alcotest.test_case "real traces audit clean" `Quick test_real_traces_clean;
    Alcotest.test_case "malformed traces replay as the reference" `Quick
      test_malformed_replays;
    Alcotest.test_case "one-active on a backwards trace" `Quick test_backwards_one_active;
    Alcotest.test_case "disarmed and armed costs" `Quick test_costs;
    kernel_law;
    replay_law ~monotone_rounds:true;
    replay_law ~monotone_rounds:false;
  ]
