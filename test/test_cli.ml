(* The doall_cli exit-code contract, as documented in the README: exit
   codes are machine-readable verdicts. [run]/[async]/[shmem] encode the
   outcome class (0 completed+correct, 1 incorrect, 2 usage, 3 stalled,
   4 round/tick limit); the fuzz family exits 1 when a campaign finds a
   counterexample and replay exits 1 when the replayed schedule still
   violates its oracle stack. Driven through the real executable so the
   codes can never drift from the docs silently.

   Protocols A-D never stall and the CLI exposes no round-limit override,
   so classes 3 and 4 are unreachable from here; they are covered by the
   kernel tests on synthetic protocols. *)

let cli =
  lazy
    (let candidates =
       [ "../bin/doall_cli.exe"; "_build/default/bin/doall_cli.exe" ]
     in
     match List.find_opt Sys.file_exists candidates with
     | Some c -> c
     | None -> Alcotest.fail "doall_cli.exe not found (run under dune)")

let null = if Sys.win32 then "NUL" else "/dev/null"

let exec args =
  Sys.command
    (Filename.quote_command (Lazy.force cli) ~stdout:null ~stderr:null args)

let check_exit name expected args =
  Alcotest.(check int) (name ^ ": exit code") expected (exec args)

(* A fresh corpus directory the CLI will create and fill. *)
let temp_corpus () =
  let path = Filename.temp_file "dhw-cli-corpus" "" in
  Sys.remove path;
  path

(* A schedule file with [text] at a fresh temporary path. *)
let temp_sched text =
  let path = Filename.temp_file "dhw-cli" ".sched" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

(* Committed corpus files: copied next to the suite by its dune deps, or
   under test/ when the suite runs from the repository root. *)
let corpus f =
  let candidates = [ Filename.concat "corpus" f; Filename.concat "test/corpus" f ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "corpus file %s not found" f

let test_run_codes () =
  check_exit "run clean" 0 [ "run"; "-p"; "a"; "-n"; "24"; "-t"; "6" ];
  check_exit "run with crashes" 0
    [ "run"; "-p"; "a"; "-n"; "24"; "-t"; "6"; "--crash"; "0@3"; "--crash"; "2@7" ];
  check_exit "unknown protocol is usage error" 2
    [ "run"; "-p"; "nosuch"; "-n"; "24"; "-t"; "6" ]

let test_fuzz_codes () =
  let corpus = temp_corpus () in
  check_exit "clean campaign" 0
    [ "fuzz"; "-p"; "a"; "--seed"; "11"; "--executions"; "40"; "-n"; "24";
      "-t"; "6"; "--corpus"; corpus ];
  check_exit "clean campaign, parallel" 0
    [ "fuzz"; "-p"; "a"; "--seed"; "11"; "--executions"; "40"; "-n"; "24";
      "-t"; "6"; "--jobs"; "2"; "--corpus"; corpus ];
  check_exit "negative --jobs is usage error" 2
    [ "fuzz"; "-p"; "a"; "--jobs=-3"; "--executions"; "5"; "-n"; "12"; "-t"; "4" ]

let test_counterexample_codes () =
  (* work-cap 1 is violated by every schedule: the campaign must exit 1 and
     write the shrunk counterexample to the corpus. *)
  let corpus = temp_corpus () in
  check_exit "fuzz counterexample" 1
    [ "fuzz"; "-p"; "a"; "--seed"; "1"; "--executions"; "10"; "-n"; "12";
      "-t"; "4"; "--work-cap"; "1"; "--max-failures"; "1"; "--corpus"; corpus ];
  let sched = Filename.concat corpus "a-seed1-0.sched" in
  Alcotest.(check bool) "counterexample written" true (Sys.file_exists sched);
  (* Replay's exit code is the verdict of the replayed oracle stack: the
     schedule passes the standard stack (0) and still violates the cap (1). *)
  check_exit "replay without cap" 0 [ "replay"; sched ];
  check_exit "replay with cap" 1 [ "replay"; sched; "--work-cap"; "1" ];
  (* A missing schedule file is rejected by cmdliner's own argument
     validation, which uses its fixed code 124 rather than this CLI's 2. *)
  check_exit "replay of missing file is a cmdliner error" 124
    [ "replay"; Filename.concat corpus "nosuch.sched" ]

let test_async_and_recovery_codes () =
  check_exit "async-fuzz clean" 0
    [ "async-fuzz"; "--seed"; "7"; "--executions"; "15"; "-n"; "25"; "-t"; "4";
      "--jobs"; "2" ];
  let async_corpus = temp_corpus () in
  check_exit "async-fuzz counterexample" 1
    [ "async-fuzz"; "--seed"; "4"; "--executions"; "8"; "-n"; "16"; "-t"; "4";
      "--work-cap"; "1"; "--max-failures"; "1"; "--corpus"; async_corpus ];
  let sched = Filename.concat async_corpus "async-a-seed4-0.sched" in
  check_exit "async-replay without cap" 0 [ "async-replay"; sched ];
  check_exit "async-replay with cap" 1
    [ "async-replay"; sched; "--work-cap"; "1" ];
  check_exit "async-replay of a sync schedule" 2
    [ "async-replay"; corpus "recovery-seed.sched" ];
  check_exit "recovery-fuzz clean" 0
    [ "recovery-fuzz"; "-p"; "a"; "--seed"; "3"; "--executions"; "40"; "-n";
      "20"; "-t"; "5"; "--jobs"; "2" ];
  check_exit "recovery-fuzz counterexample" 1
    [ "recovery-fuzz"; "-p"; "a"; "--seed"; "4"; "--executions"; "8"; "-n";
      "16"; "-t"; "4"; "--work-cap"; "1"; "--max-failures"; "1"; "--corpus";
      temp_corpus () ];
  check_exit "recovery-replay of the committed seed" 0
    [ "recovery-replay"; corpus "recovery-seed.sched" ];
  check_exit "recovery-replay under a work cap" 1
    [ "recovery-replay"; corpus "recovery-seed.sched"; "--work-cap"; "1" ];
  check_exit "recovery-replay of an async schedule" 2
    [ "recovery-replay"; corpus "byz-break-async-a.sched" ]

let test_jobs_byte_identical_stdout () =
  (* The CI determinism gate in miniature: the same seeded campaign at
     --jobs 1 and --jobs 4 must print byte-identical results. *)
  let capture jobs =
    let out = Filename.temp_file "dhw-cli-out" ".txt" in
    let code =
      Sys.command
        (Filename.quote_command (Lazy.force cli) ~stdout:out ~stderr:null
           [ "fuzz"; "-p"; "a"; "--seed"; "11"; "--executions"; "60"; "-n";
             "24"; "-t"; "6"; "--jobs"; string_of_int jobs ])
    in
    Alcotest.(check int) (Printf.sprintf "jobs=%d exit" jobs) 0 code;
    let ic = open_in_bin out in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove out;
    s
  in
  Alcotest.(check string) "stdout identical at jobs 1 and 4" (capture 1) (capture 4)

let test_net_codes () =
  (* Real-process family. Misconfigurations must be rejected before any
     node is spawned; one tiny clean fleet proves the 0 path end to end. *)
  check_exit "net-run clean fleet" 0
    [ "net-run"; "-p"; "a"; "-n"; "8"; "-t"; "2" ];
  check_exit "net-run unknown protocol is usage error" 2
    [ "net-run"; "-p"; "nosuch"; "-n"; "8"; "-t"; "2" ];
  check_exit "net-run restarts need a recovery protocol" 2
    [ "net-run"; "-p"; "a"; "-n"; "8"; "-t"; "2"; "--restarts"; "0@6" ];
  check_exit "net-run watchdog expiry is a limit" 4
    [ "net-run"; "-p"; "a"; "-n"; "200"; "-t"; "8"; "--watchdog"; "0.01" ];
  (* Corrupt/Byzantine entries have no tamper model over real sockets:
     net-replay must refuse them as misconfiguration, not degrade. *)
  let sched =
    temp_sched
      "schedule v1\nmeta protocol a\nmeta n 8\nmeta t 2\n\
       corrupt 0 @2 lying-view salt 1\nend\n"
  in
  check_exit "net-replay rejects corrupt entries" 2 [ "net-replay"; sched ];
  Sys.remove sched

let test_byz_codes () =
  check_exit "byz-fuzz survives on a+val" 0
    [ "byz-fuzz"; "-p"; "a+val"; "--seed"; "3"; "--executions"; "40"; "-n";
      "40"; "-t"; "9"; "--corpus"; temp_corpus () ];
  check_exit "byz-fuzz breaks a" 1
    [ "byz-fuzz"; "-p"; "a"; "--seed"; "1"; "--executions"; "150"; "-n"; "60";
      "-t"; "12"; "--max-failures"; "1"; "--corpus"; temp_corpus () ];
  check_exit "byz-fuzz --byz >= t" 2
    [ "byz-fuzz"; "-p"; "a+val"; "-n"; "24"; "-t"; "6"; "--byz"; "6" ];
  List.iter
    (fun f -> check_exit ("byz-replay " ^ f) 1 [ "byz-replay"; corpus f ])
    [ "byz-break-a.sched"; "byz-break-async-a.sched" ];
  check_exit "byz-replay of a recovery schedule" 2
    [ "byz-replay"; corpus "recovery-seed.sched" ]

let fuzz_commands = [ "fuzz"; "recovery-fuzz"; "byz-fuzz"; "async-fuzz" ]

let test_campaign_config_codes () =
  List.iter
    (fun cmd ->
      List.iter
        (fun flag -> check_exit (cmd ^ " " ^ flag) 2 [ cmd; flag ])
        [ "--executions=-1"; "--window=-1" ];
      if cmd <> "async-fuzz" then
        check_exit (cmd ^ " unknown protocol") 2 [ cmd; "-p"; "nosuch" ])
    fuzz_commands

(* --max-failures 0 kept no counterexample, so a failing campaign printed
   violations=0 and exited 0; it is a usage error now. *)
let test_max_failures_codes () =
  List.iter
    (fun args ->
      let cmd = List.hd args in
      check_exit (cmd ^ " --max-failures 0") 2
        (args @ [ "--max-failures"; "0"; "--corpus"; temp_corpus () ]);
      check_exit (cmd ^ " --max-failures 1") 1
        (args @ [ "--max-failures"; "1"; "--corpus"; temp_corpus () ]))
    [
      [ "fuzz"; "-p"; "a"; "-n"; "12"; "-t"; "4"; "--seed"; "1";
        "--executions"; "10"; "--work-cap"; "1" ];
      [ "recovery-fuzz"; "-p"; "a"; "-n"; "12"; "-t"; "4"; "--seed"; "1";
        "--work-cap"; "12" ];
      [ "byz-fuzz"; "-p"; "a"; "-n"; "60"; "-t"; "12"; "--seed"; "1";
        "--executions"; "150" ];
      [ "async-fuzz"; "-n"; "16"; "-t"; "4"; "--seed"; "4"; "--executions";
        "8"; "--work-cap"; "1" ];
    ]

(* A negative --trace limit would print no event and claim all of them
   as "more events". *)
let test_trace_limit_codes () =
  let run = [ "run"; "-p"; "b"; "-n"; "6"; "-t"; "4" ] in
  check_exit "run --trace=-3" 2 (run @ [ "--trace=-3" ]);
  check_exit "run --trace=0" 0 (run @ [ "--trace=0" ])

(* Bad sizes, malformed meta values and clashing fault flags are usage
   errors (2), not uncaught exceptions (cmdliner's 125). *)
let test_usage_error_codes () =
  List.iter
    (fun cmd ->
      check_exit (cmd ^ " -n 0") 2 [ cmd; "-n"; "0" ];
      check_exit (cmd ^ " -t 0") 2 [ cmd; "-t"; "0" ])
    ([ "run"; "timeline"; "async"; "bootstrap"; "net-run"; "async-net-run" ]
    @ fuzz_commands);
  (* ba's -t is the failure bound: t = 0 (one sender) is valid. *)
  check_exit "ba -n 0" 2 [ "ba"; "-n"; "0" ];
  check_exit "ba -t 0" 0 [ "ba"; "-t"; "0" ];
  check_exit "shmem json -n 0" 2 [ "shmem"; "-n"; "0"; "--report"; "json" ];
  check_exit "run --crash with --random" 2
    [ "run"; "--crash"; "0@3"; "--random"; "2" ];
  List.iter
    (fun (what, n) ->
      let sync =
        temp_sched
          (Printf.sprintf "schedule v1\nmeta protocol a\nmeta n %s\nmeta t 4\nend\n" n)
      and async =
        temp_sched
          (Printf.sprintf
             "async-schedule v1\nmeta protocol async-a\nmeta n %s\nmeta t 4\nend\n" n)
      in
      List.iter
        (fun (cmd, file) -> check_exit (cmd ^ " " ^ what) 2 [ cmd; file ])
        [ ("replay", sync); ("recovery-replay", sync); ("byz-replay", sync);
          ("net-replay", sync); ("async-replay", async); ("byz-replay", async);
          ("async-net-replay", async) ];
      Sys.remove sync;
      Sys.remove async)
    [ ("meta n forty", "forty"); ("meta n 0", "0") ]

(* byz-replay picks the parser from the first line that is neither blank nor
   a comment, as both parsers skip leading comments. *)
let test_byz_replay_commented_async () =
  let ic = open_in_bin (corpus "byz-break-async-a.sched") in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let sched = temp_sched ("# a cheapest break\n\n" ^ text) in
  check_exit "byz-replay of a commented async schedule" 1 [ "byz-replay"; sched ];
  Sys.remove sched

let suite =
  [
    Alcotest.test_case "run exit codes" `Quick test_run_codes;
    Alcotest.test_case "fuzz exit codes" `Quick test_fuzz_codes;
    Alcotest.test_case "counterexample and replay exit codes" `Quick
      test_counterexample_codes;
    Alcotest.test_case "async and recovery fuzz exit codes" `Quick
      test_async_and_recovery_codes;
    Alcotest.test_case "campaign stdout independent of --jobs" `Quick
      test_jobs_byte_identical_stdout;
    Alcotest.test_case "net-run and net-replay exit codes" `Quick
      test_net_codes;
    Alcotest.test_case "byz-fuzz and byz-replay exit codes" `Quick
      test_byz_codes;
    Alcotest.test_case "campaign misconfiguration exit codes" `Quick
      test_campaign_config_codes;
    Alcotest.test_case "--max-failures below 1 is a usage error" `Quick
      test_max_failures_codes;
    Alcotest.test_case "--trace below 0 is a usage error" `Quick test_trace_limit_codes;
    Alcotest.test_case "usage errors exit 2, not 125" `Quick
      test_usage_error_codes;
    Alcotest.test_case "byz-replay of a commented async schedule" `Quick
      test_byz_replay_commented_async;
  ]
