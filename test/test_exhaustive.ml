(* Exhaustive small-world model checking: on tiny instances we can enumerate
   EVERY silent-crash schedule (victim subset × crash round vector over a
   window covering the whole execution) and check correctness plus the
   audit invariants on each. Thousands of executions per protocol — a
   bounded proof, not a sample. *)

let subsets_keeping_one t =
  (* all non-full subsets of [0..t-1] *)
  let rec go pid acc =
    if pid = t then acc
    else go (pid + 1) (List.concat_map (fun s -> [ s; pid :: s ]) acc)
  in
  List.filter (fun s -> List.length s < t) (go 0 [ [] ])

let rec round_vectors window = function
  | [] -> [ [] ]
  | pid :: rest ->
      let tails = round_vectors window rest in
      List.concat_map
        (fun r -> List.map (fun tl -> (pid, r) :: tl) tails)
        (List.init ((window / 4) + 1) (fun i -> i * 4))
(* step-4 grid keeps the space tractable while still hitting every phase of
   the execution *)

let check_all name proto audits ~n ~t ~window =
  let spec = Doall.Spec.make ~n ~t in
  let count = ref 0 in
  List.iter
    (fun victims ->
      List.iter
        (fun schedule ->
          incr count;
          let obs, recorded = Simkit.Obs.memory () in
          let fault = Simkit.Fault.crash_silently_at schedule in
          let report = Doall.Runner.run ~fault ~obs spec proto in
          let describe () =
            String.concat ","
              (List.map (fun (p, r) -> Printf.sprintf "%d@%d" p r) schedule)
          in
          if report.outcome <> Simkit.Kernel.Completed then
            Alcotest.failf "%s: not completed on [%s]" name (describe ());
          if Doall.Runner.survivors report > 0 && not (Doall.Runner.work_complete report)
          then Alcotest.failf "%s: work incomplete on [%s]" name (describe ());
          List.iter
            (fun audit ->
              match audit (recorded ()) with
              | [] -> ()
              | v :: _ ->
                  Alcotest.failf "%s: audit %s on [%s]" name
                    (Format.asprintf "%a" Simkit.Audit.pp_violation v)
                    (describe ()))
            audits)
        (round_vectors window victims))
    (subsets_keeping_one t);
  if !count < 100 then Alcotest.failf "%s: only %d schedules enumerated?" name !count

(* Acting crashes with partial delivery — the paper's actual adversary ("only
   some subset of the processes receive the message"): on top of the silent
   space above, enumerate every (victim set x crash round x prefix cut)
   combination, the victims crashing at their first action at or after the
   scheduled round, delivering only the first k messages of that round. *)

let rec cut_assignments cuts = function
  | [] -> [ [] ]
  | _ :: rest ->
      let tails = cut_assignments cuts rest in
      List.concat_map (fun c -> List.map (fun tl -> c :: tl) tails) cuts

let check_all_acting name proto audits ~n ~t ~window ~cuts =
  let spec = Doall.Spec.make ~n ~t in
  let count = ref 0 in
  List.iter
    (fun victims ->
      List.iter
        (fun schedule ->
          List.iter
            (fun cutv ->
              incr count;
              let entries =
                List.map2
                  (fun (p, r) k ->
                    ( p, r,
                      Simkit.Fault.Crash
                        { keep_work = false; delivery = Simkit.Fault.Prefix k }
                    ))
                  schedule cutv
              in
              let obs, recorded = Simkit.Obs.memory () in
              let fault = Simkit.Fault.crash_acting_at entries in
              let report = Doall.Runner.run ~fault ~obs spec proto in
              let describe () =
                String.concat ","
                  (List.map2
                     (fun (p, r) k -> Printf.sprintf "%d@%d/cut%d" p r k)
                     schedule cutv)
              in
              if report.outcome <> Simkit.Kernel.Completed then
                Alcotest.failf "%s: not completed on [%s]" name (describe ());
              if
                Doall.Runner.survivors report > 0
                && not (Doall.Runner.work_complete report)
              then Alcotest.failf "%s: work incomplete on [%s]" name (describe ());
              List.iter
                (fun audit ->
                  match audit (recorded ()) with
                  | [] -> ()
                  | v :: _ ->
                      Alcotest.failf "%s: audit %s on [%s]" name
                        (Format.asprintf "%a" Simkit.Audit.pp_violation v)
                        (describe ()))
                audits)
            (cut_assignments cuts schedule))
        (round_vectors window victims))
    (subsets_keeping_one t);
  if !count < 100 then Alcotest.failf "%s: only %d schedules enumerated?" name !count

let one_active = Simkit.Audit.at_most_one_active ~passive_msg:(fun _ -> false)
let b_one_active = Simkit.Audit.at_most_one_active ~passive_msg:Helpers.b_passive

let test_a_exhaustive () =
  (* window must cover DD(t-1) + an active lifetime *)
  let grid = Doall.Grid.make (Doall.Spec.make ~n:3 ~t:3) in
  let window = 3 * Doall.Grid.max_active_rounds grid in
  check_all "A n=3 t=3" Doall.Protocol_a.protocol
    [ Simkit.Audit.well_formed; one_active; Simkit.Audit.work_is_monotone ]
    ~n:3 ~t:3 ~window

let test_b_exhaustive () =
  let grid = Doall.Grid.make (Doall.Spec.make ~n:3 ~t:3) in
  let window = Doall.Bounds.b_rounds grid in
  check_all "B n=3 t=3" Doall.Protocol_b.protocol
    [ Simkit.Audit.well_formed; b_one_active; Simkit.Audit.work_is_monotone ]
    ~n:3 ~t:3 ~window

let test_a_acting_exhaustive () =
  let grid = Doall.Grid.make (Doall.Spec.make ~n:3 ~t:3) in
  let window = 3 * Doall.Grid.max_active_rounds grid in
  check_all_acting "A acting n=3 t=3" Doall.Protocol_a.protocol
    [ Simkit.Audit.well_formed; one_active; Simkit.Audit.work_is_monotone ]
    ~n:3 ~t:3 ~window ~cuts:[ 0; 1 ]

let test_b_acting_exhaustive () =
  let grid = Doall.Grid.make (Doall.Spec.make ~n:3 ~t:3) in
  let window = Doall.Bounds.b_rounds grid in
  check_all_acting "B acting n=3 t=3" Doall.Protocol_b.protocol
    [ Simkit.Audit.well_formed; b_one_active; Simkit.Audit.work_is_monotone ]
    ~n:3 ~t:3 ~window ~cuts:[ 0; 1 ]

let test_d_exhaustive () =
  check_all "D n=4 t=3" Doall.Protocol_d.protocol
    [ Simkit.Audit.well_formed ]
    ~n:4 ~t:3 ~window:60

let test_checkpoint_exhaustive () =
  check_all "checkpoint/2 n=4 t=3"
    (Doall.Baseline_checkpoint.protocol ~period:2)
    [ Simkit.Audit.well_formed; one_active; Simkit.Audit.work_is_monotone ]
    ~n:4 ~t:3 ~window:40

let suite =
  [
    Alcotest.test_case "A: every schedule, n=3 t=3" `Quick test_a_exhaustive;
    Alcotest.test_case "B: every schedule, n=3 t=3" `Quick test_b_exhaustive;
    Alcotest.test_case "A: every acting schedule + prefix cut, n=3 t=3" `Quick
      test_a_acting_exhaustive;
    Alcotest.test_case "B: every acting schedule + prefix cut, n=3 t=3" `Quick
      test_b_acting_exhaustive;
    Alcotest.test_case "D: every schedule, n=4 t=3" `Quick test_d_exhaustive;
    Alcotest.test_case "checkpoint: every schedule, n=4 t=3" `Quick
      test_checkpoint_exhaustive;
  ]
