(* Quickstart: 100 units of idempotent work, 16 crash-prone processes.
   Run Protocol B, first failure-free, then with the active process crashing
   every 12 units of work, and print the three cost measures.

     dune exec examples/quickstart.exe *)

let () =
  let spec = Doall.Spec.make ~n:100 ~t:16 in

  (* Failure-free. *)
  let report = Doall.Runner.run spec Doall.Protocol_b.protocol in
  Format.printf "failure-free : %a@." Doall.Runner.pp report;

  (* An adversary that crashes whichever process is doing the work, right
     after every 12th unit — the work is kept, the announcement is lost. *)
  let fault =
    Simkit.Fault.crash_active_after_work ~units_between_crashes:12 ~max_crashes:15
  in
  let report = Doall.Runner.run ~fault spec Doall.Protocol_b.protocol in
  Format.printf "under attack : %a@." Doall.Runner.pp report;
  Format.printf "all %d units done with %d survivors: %b@."
    (Doall.Spec.n spec)
    (Doall.Runner.survivors report)
    (Doall.Runner.work_complete report);

  (* A peek at the first rounds of the execution. *)
  let obs, recorded = Simkit.Obs.memory () in
  let small = Doall.Spec.make ~n:6 ~t:4 in
  let fault = Simkit.Fault.crash_silently_at [ (0, 3) ] in
  ignore (Doall.Runner.run ~fault ~obs small Doall.Protocol_b.protocol);
  Format.printf "@.--- n=6 t=4, process 0 dies at round 3 ---@.%a"
    (Simkit.Obs.pp ~limit:25) (recorded ())
