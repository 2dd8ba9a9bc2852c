(* Shared machinery for the test suites. *)

module Prng = Dhw_util.Prng

let spec ~n ~t = Doall.Spec.make ~n ~t

let run ?fault ?max_rounds ?trace s p = Doall.Runner.run ?fault ?max_rounds ?trace s p

let run_traced ?fault s p =
  let trace = Simkit.Trace.create () in
  let report = Doall.Runner.run ?fault ~trace s p in
  (report, trace)

let check_correct name report =
  Alcotest.(check bool)
    (name ^ ": outcome completed")
    true
    (report.Doall.Runner.outcome = Simkit.Kernel.Completed);
  if Doall.Runner.survivors report > 0 then
    Alcotest.(check bool)
      (name ^ ": all units done")
      true
      (Doall.Runner.work_complete report)

let metrics (r : Doall.Runner.report) = r.metrics

(* The central safety invariant of Protocols A, B, C, via the library
   auditor: at most one process acts per round, plus structural
   well-formedness. [is_passive] classifies message payloads that inactive
   processes may legitimately send: Protocol B's go-aheads, Protocol C's
   alive-responses. *)
let assert_clean_audit checks name trace =
  List.iter
    (fun check ->
      match check trace with
      | [] -> ()
      | violation :: _ ->
          Alcotest.failf "%s: %s" name
            (Format.asprintf "%a" Simkit.Audit.pp_violation violation))
    checks

let assert_one_active ?(is_passive = fun _ -> false) name trace =
  assert_clean_audit
    [ Simkit.Audit.well_formed; Simkit.Audit.at_most_one_active ~passive_msg:is_passive ]
    name trace

let b_passive what = String.equal what Doall.Protocol_b.(show_msg Go_ahead)
let c_passive what = String.equal what Doall.Protocol_c.(show_msg Alive)

(* A random silent-crash schedule that always spares at least one process. *)
let random_schedule g ~t ~window =
  let victims = Prng.int g t in
  let pids = Prng.sample_without_replacement g victims t in
  List.map (fun pid -> (pid, Prng.int g (window + 1))) pids

let qcheck_case ?(count = 50) ~name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)
