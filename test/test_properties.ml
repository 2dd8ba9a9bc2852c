(* QCheck property tests with shrinking: random instances × random crash
   schedules, one law per protocol family. These complement the targeted
   suites: a shrunk counterexample here pins down a minimal failing
   (instance, schedule) pair. *)

module Gen = QCheck2.Gen

(* instance + silent-crash schedule keeping at least one survivor *)
let gen_case ~max_n ~max_t =
  let open Gen in
  pair (1 -- max_n) (1 -- max_t) >>= fun (n, t) ->
  let* victims = 0 -- (t - 1) in
  let* pids = Gen.shuffle_l (List.init t Fun.id) in
  let victims = List.filteri (fun i _ -> i < victims) pids in
  let* schedule =
    Gen.flatten_l
      (List.map (fun pid -> Gen.map (fun r -> (pid, r)) (0 -- (4 * max_n * max_t))) victims)
  in
  return (n, t, schedule)

let print_case (n, t, schedule) =
  Printf.sprintf "n=%d t=%d crashes=[%s]" n t
    (String.concat "; " (List.map (fun (p, r) -> Printf.sprintf "%d@%d" p r) schedule))

let completes_and_audits ?(audits = []) proto (n, t, schedule) =
  let spec = Doall.Spec.make ~n ~t in
  let obs, recorded = Simkit.Obs.memory () in
  let fault = Simkit.Fault.crash_silently_at schedule in
  let report = Doall.Runner.run ~fault ~obs spec proto in
  report.outcome = Simkit.Kernel.Completed
  && (Doall.Runner.survivors report = 0 || Doall.Runner.work_complete report)
  && List.for_all (fun audit -> audit (recorded ()) = []) audits

let law ?count ~name ~max_n ~max_t ?audits proto =
  Helpers.qcheck_case ?count ~name
    (Gen.map (fun c -> c) (gen_case ~max_n ~max_t))
    (fun case ->
      QCheck2.assume (match case with n, t, _ -> n >= 1 && t >= 1);
      let ok = completes_and_audits ?audits proto case in
      if not ok then QCheck2.Test.fail_reportf "%s" (print_case case);
      true)

let seq_audits =
  [
    Simkit.Audit.well_formed;
    Simkit.Audit.at_most_one_active ~passive_msg:(fun _ -> false);
    Simkit.Audit.work_is_monotone;
  ]

let b_audits =
  [
    Simkit.Audit.well_formed;
    Simkit.Audit.at_most_one_active ~passive_msg:Helpers.b_passive;
    Simkit.Audit.work_is_monotone;
  ]

let c_audits =
  [
    Simkit.Audit.well_formed;
    Simkit.Audit.at_most_one_active ~passive_msg:Helpers.c_passive;
    Simkit.Audit.work_is_monotone;
  ]

let d_audits = [ Simkit.Audit.well_formed ]

let prop_a =
  law ~count:120 ~name:"A: completes + sequential audits" ~max_n:80 ~max_t:14
    ~audits:seq_audits Doall.Protocol_a.protocol

let prop_b =
  law ~count:120 ~name:"B: completes + sequential audits" ~max_n:80 ~max_t:14
    ~audits:b_audits Doall.Protocol_b.protocol

let prop_c =
  law ~count:60 ~name:"C: completes + sequential audits" ~max_n:18 ~max_t:7
    ~audits:c_audits Doall.Protocol_c.protocol

let prop_c_chunked =
  law ~count:40 ~name:"C-chunked: completes" ~max_n:18 ~max_t:7
    ~audits:c_audits Doall.Protocol_c.protocol_chunked

let prop_d =
  law ~count:120 ~name:"D: completes + well-formed" ~max_n:80 ~max_t:14
    ~audits:d_audits Doall.Protocol_d.protocol

let prop_d_coord =
  law ~count:80 ~name:"D-coord: completes + well-formed" ~max_n:60 ~max_t:10
    ~audits:d_audits Doall.Protocol_d_coord.protocol

let prop_checkpoint =
  law ~count:80 ~name:"checkpoint/3: completes + audits" ~max_n:60 ~max_t:10
    ~audits:seq_audits
    (Doall.Baseline_checkpoint.protocol ~period:3)

let prop_a_group_sizes =
  Helpers.qcheck_case ~count:60 ~name:"A[s]: completes for random group sizes"
    Gen.(pair (gen_case ~max_n:50 ~max_t:12) (1 -- 12))
    (fun ((n, t, schedule), s) ->
      let s = min s t in
      completes_and_audits ~audits:seq_audits
        (Doall.Protocol_a.protocol_with_group_size s)
        (n, t, schedule))

(* Work lower bound: no protocol can cover the units without performing at
   least n units; and with a survivor the kill-after-each-unit adversary
   forces exactly n + f units out of work-optimal protocols. *)
let prop_work_lower_bound =
  Helpers.qcheck_case ~count:80 ~name:"work >= n whenever covered"
    (gen_case ~max_n:60 ~max_t:10)
    (fun (n, t, schedule) ->
      let spec = Doall.Spec.make ~n ~t in
      let fault = Simkit.Fault.crash_silently_at schedule in
      let report = Doall.Runner.run ~fault spec Doall.Protocol_b.protocol in
      (not (Doall.Runner.work_complete report))
      || Simkit.Metrics.work report.metrics >= n)

let prop_adversary_forces_n_plus_f =
  Helpers.qcheck_case ~count:40 ~name:"kill-after-unit adversary forces n+f work"
    Gen.(pair (10 -- 60) (2 -- 10))
    (fun (n, t) ->
      let spec = Doall.Spec.make ~n ~t in
      let fault =
        Simkit.Fault.crash_active_after_work ~units_between_crashes:1
          ~max_crashes:(t - 1)
      in
      let report = Doall.Runner.run ~fault spec Doall.Protocol_a.protocol in
      let f = Doall.Runner.crashed report in
      Simkit.Metrics.work report.metrics = n + f)

(* Seeded adversaries: same seed => identical schedule and metrics; different
   seeds => the schedules actually differ. *)

let crash_set (r : Doall.Runner.report) =
  Array.to_list r.statuses
  |> List.mapi (fun pid s ->
         match s with Simkit.Types.Crashed at -> Some (pid, at) | _ -> None)
  |> List.filter_map Fun.id

let fingerprint (r : Doall.Runner.report) =
  ( Simkit.Metrics.work r.metrics,
    Simkit.Metrics.messages r.metrics,
    Simkit.Metrics.rounds r.metrics,
    crash_set r )

let prop_fault_random_seed_determinism =
  Helpers.qcheck_case ~count:60 ~name:"Fault.random: same seed, same run"
    Gen.(
      pair
        (pair (10 -- 60) (2 -- 12))
        (pair (0 -- 100) (Gen.int_bound 10_000)))
    (fun ((n, t), (window, seed)) ->
      let go () =
        let spec = Doall.Spec.make ~n ~t in
        let fault =
          Simkit.Fault.random ~seed:(Int64.of_int seed) ~t ~victims:(t - 1)
            ~window
        in
        fingerprint (Doall.Runner.run ~fault spec Doall.Protocol_b.protocol)
      in
      go () = go ())

let prop_random_work_adversary_seed_determinism =
  Helpers.qcheck_case ~count:60
    ~name:"crash_active_after_random_work: same seed, same run"
    Gen.(
      pair
        (pair (10 -- 60) (2 -- 12))
        (pair (pair (1 -- 5) (0 -- 6)) (Gen.int_bound 10_000)))
    (fun ((n, t), ((min_units, extra), seed)) ->
      let go () =
        let spec = Doall.Spec.make ~n ~t in
        let fault =
          Simkit.Fault.crash_active_after_random_work
            ~seed:(Int64.of_int seed) ~min_units ~max_units:(min_units + extra)
            ~max_crashes:(t - 1)
        in
        fingerprint (Doall.Runner.run ~fault spec Doall.Protocol_a.protocol)
      in
      go () = go ())

let distinct_fingerprints run =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun seed -> Hashtbl.replace seen (run (Int64.of_int seed)) ())
    (List.init 10 (fun i -> i + 1));
  Hashtbl.length seen

let test_fault_random_seed_sensitivity () =
  let spec = Doall.Spec.make ~n:60 ~t:12 in
  let distinct =
    distinct_fingerprints (fun seed ->
        let fault = Simkit.Fault.random ~seed ~t:12 ~victims:6 ~window:40 in
        fingerprint (Doall.Runner.run ~fault spec Doall.Protocol_b.protocol))
  in
  if distinct < 2 then
    Alcotest.failf "10 seeds produced only %d distinct schedules" distinct

let test_random_work_adversary_seed_sensitivity () =
  let spec = Doall.Spec.make ~n:60 ~t:12 in
  let distinct =
    distinct_fingerprints (fun seed ->
        let fault =
          Simkit.Fault.crash_active_after_random_work ~seed ~min_units:2
            ~max_units:9 ~max_crashes:11
        in
        fingerprint (Doall.Runner.run ~fault spec Doall.Protocol_a.protocol))
  in
  if distinct < 2 then
    Alcotest.failf "10 seeds produced only %d distinct schedules" distinct

(* Determinism as a law: identical (instance, schedule) => identical runs. *)
let prop_determinism =
  Helpers.qcheck_case ~count:40 ~name:"rerun determinism (all cost measures)"
    (gen_case ~max_n:40 ~max_t:8)
    (fun (n, t, schedule) ->
      let go () =
        let spec = Doall.Spec.make ~n ~t in
        let fault = Simkit.Fault.crash_silently_at schedule in
        let r = Doall.Runner.run ~fault spec Doall.Protocol_b.protocol in
        ( Simkit.Metrics.work r.metrics,
          Simkit.Metrics.messages r.metrics,
          Simkit.Metrics.rounds r.metrics )
      in
      go () = go ())

let suite =
  [
    prop_a;
    prop_b;
    prop_c;
    prop_c_chunked;
    prop_d;
    prop_d_coord;
    prop_checkpoint;
    prop_a_group_sizes;
    prop_work_lower_bound;
    prop_adversary_forces_n_plus_f;
    prop_determinism;
    prop_fault_random_seed_determinism;
    prop_random_work_adversary_seed_determinism;
    Alcotest.test_case "Fault.random: different seeds differ" `Quick
      test_fault_random_seed_sensitivity;
    Alcotest.test_case "crash_active_after_random_work: seeds differ" `Quick
      test_random_work_adversary_seed_sensitivity;
  ]
