(* Simkit.Pool and the parallel campaign engine.

   The load-bearing property is the determinism law: for every worker count
   the pool returns exactly what the sequential loop would, so a seeded
   campaign names the same corpus and the same verdicts at [--jobs 1] and
   [--jobs 8]. The suite checks the law on the raw pool (qcheck over
   arbitrary task lists and worker counts), on the seeded variant, on the
   order-sensitive reduction, and on full sync / async / recovery campaigns
   including ones that find and shrink real counterexamples. Crash
   propagation (a raising task must surface, lowest index first, after all
   siblings ran) gets its own unit tests. *)

module Pool = Simkit.Pool
module C = Simkit.Campaign
module Prng = Dhw_util.Prng
module Gen = QCheck2.Gen

(* A task heavy enough that workers genuinely interleave. *)
let collatz_steps x0 =
  let rec go steps x =
    if x <= 1 then steps else go (steps + 1) (if x mod 2 = 0 then x / 2 else (3 * x) + 1)
  in
  go 0 (abs x0 + 1)

let prop_map_law =
  Helpers.qcheck_case ~count:100 ~name:"map ~jobs:k = sequential map"
    Gen.(pair (int_range 1 6) (list_size (int_bound 60) (int_bound 10_000)))
    (fun (jobs, xs) ->
      let tasks = Array.of_list xs in
      Pool.map ~jobs collatz_steps tasks = Array.map collatz_steps tasks)

let prop_map_list_law =
  Helpers.qcheck_case ~count:50 ~name:"map_list ~jobs:k = List.map"
    Gen.(pair (int_range 1 6) (list_size (int_bound 40) (int_bound 10_000)))
    (fun (jobs, xs) -> Pool.map_list ~jobs collatz_steps xs = List.map collatz_steps xs)

let test_map_reduce_order () =
  (* A non-associative, non-commutative fold: only an in-task-order
     reduction gives the sequential answer. *)
  let tasks = Array.init 100 Fun.id in
  let f x = (x * 7) + 1 in
  let fold acc x = (acc * 31) + x in
  let expected = Array.fold_left fold 7 (Array.map f tasks) in
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        (Printf.sprintf "map_reduce at jobs=%d" jobs)
        expected
        (Pool.map_reduce ~jobs ~f ~fold ~init:7 tasks))
    [ 1; 2; 3; 8 ]

exception Boom of int

let test_crash_propagates () =
  List.iter
    (fun jobs ->
      let ran = Array.make 20 false in
      (match
         Pool.map ~jobs
           (fun i ->
             ran.(i) <- true;
             if i = 7 || i = 13 then raise (Boom i);
             i)
           (Array.init 20 Fun.id)
       with
      | _ -> Alcotest.failf "jobs=%d: raising task did not propagate" jobs
      | exception Boom i ->
          Alcotest.(check int)
            (Printf.sprintf "lowest-index exception wins at jobs=%d" jobs)
            7 i);
      (* No task is abandoned because a sibling raised. *)
      Alcotest.(check bool)
        (Printf.sprintf "all tasks still ran at jobs=%d" jobs)
        true
        (Array.for_all Fun.id ran))
    [ 1; 2; 4 ]

let test_jobs_validation () =
  (match Pool.map ~jobs:0 Fun.id [| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=0 accepted");
  (match Pool.map ~jobs:(-2) Fun.id [| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=-2 accepted");
  Alcotest.(check (array int)) "empty task array" [||] (Pool.map ~jobs:4 Fun.id [||]);
  Alcotest.(check (array int))
    "jobs clamped to task count" [| 1 |]
    (Pool.map ~jobs:64 Fun.id [| 1 |]);
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

let test_map_seeded_jobs_independent () =
  let f g x = (x * 1000) + Prng.int g 1000 in
  let tasks = Array.init 64 Fun.id in
  let reference = Pool.map_seeded ~jobs:1 ~seed:42L f tasks in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map_seeded at jobs=%d" jobs)
        reference
        (Pool.map_seeded ~jobs ~seed:42L f tasks))
    [ 2; 3; 8 ];
  (* The per-task streams are genuinely split: draws must not all agree. *)
  let draws = Array.map (fun y -> y mod 1000) reference in
  Alcotest.(check bool)
    "per-task streams are distinct" true
    (Array.exists (fun d -> d <> draws.(0)) draws)

let test_prng_stream_is_stateless () =
  let a = Prng.next_int64 (Prng.stream 9L 3) in
  (* Materializing other streams first must not disturb stream 3. *)
  let _ = Prng.next_int64 (Prng.stream 9L 0) in
  let _ = Prng.next_int64 (Prng.stream 9L 7) in
  let b = Prng.next_int64 (Prng.stream 9L 3) in
  Alcotest.(check int64) "stream 3 stable" a b;
  Alcotest.(check bool)
    "streams 3 and 4 differ" true
    (Prng.next_int64 (Prng.stream 9L 3) <> Prng.next_int64 (Prng.stream 9L 4))

(* Full-campaign parity: stats records compare structurally, so [=] covers
   schedules, verdicts, shrunk counterexamples, margins and counters. *)

let check_stats name reference got =
  Alcotest.(check bool) name true (got = reference)

let test_clean_sync_campaign_parity () =
  let spec = Helpers.spec ~n:40 ~t:8 in
  let reference =
    Doall.Fuzz.campaign ~seed:5L ~executions:80 spec Doall.Protocol_a.protocol
  in
  Alcotest.(check bool) "campaign is clean" true (reference.C.failures = []);
  List.iter
    (fun jobs ->
      check_stats
        (Printf.sprintf "sync clean: jobs=%d = default jobs" jobs)
        reference
        (Doall.Fuzz.campaign ~jobs ~seed:5L ~executions:80 spec
           Doall.Protocol_a.protocol))
    [ 1; 3 ]

let test_failing_sync_campaign_parity () =
  (* work-cap 1 is violated by every schedule, so this exercises failure
     collection and the sequential shrinker at every worker count. *)
  let spec = Helpers.spec ~n:12 ~t:4 in
  let go jobs =
    Doall.Fuzz.campaign ?jobs ~seed:1L ~executions:60
      ~extra:[ Doall.Fuzz.work_cap 1 ] ~max_failures:2 spec
      Doall.Protocol_a.protocol
  in
  let reference = go (Some 1) in
  Alcotest.(check int)
    "campaign finds max_failures counterexamples" 2
    (List.length reference.C.failures);
  List.iter
    (fun jobs ->
      check_stats
        (Printf.sprintf "sync failing: jobs=%d = jobs=1" jobs)
        reference
        (go (Some jobs)))
    [ 2; 4 ]

let test_async_campaign_parity () =
  let spec = Helpers.spec ~n:25 ~t:4 in
  let go jobs = Asim.Async_fuzz.campaign ?jobs ~seed:3L ~executions:20 spec in
  let reference = go (Some 1) in
  check_stats "async: jobs=2 = jobs=1" reference (go (Some 2))

let test_recovery_campaign_parity () =
  let spec = Helpers.spec ~n:20 ~t:5 in
  let go jobs =
    Doall.Fuzz.recovery_campaign ?jobs ~seed:2L ~executions:40 spec Doall.Recovery.A
  in
  let reference = go (Some 1) in
  check_stats "recovery: jobs=4 = jobs=1" reference (go (Some 4))

let suite =
  [
    prop_map_law;
    prop_map_list_law;
    Alcotest.test_case "map_reduce folds in task order" `Quick test_map_reduce_order;
    Alcotest.test_case "worker crash propagates" `Quick test_crash_propagates;
    Alcotest.test_case "jobs validation and clamping" `Quick test_jobs_validation;
    Alcotest.test_case "map_seeded independent of jobs" `Quick
      test_map_seeded_jobs_independent;
    Alcotest.test_case "Prng.stream is stateless" `Quick test_prng_stream_is_stateless;
    Alcotest.test_case "clean sync campaign parity" `Quick
      test_clean_sync_campaign_parity;
    Alcotest.test_case "failing sync campaign parity" `Quick
      test_failing_sync_campaign_parity;
    Alcotest.test_case "async campaign parity" `Quick test_async_campaign_parity;
    Alcotest.test_case "recovery campaign parity" `Quick test_recovery_campaign_parity;
  ]
