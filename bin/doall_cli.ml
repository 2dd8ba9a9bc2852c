(* Command-line front-end: run any protocol of the paper on any instance
   under a configurable fault schedule and print the cost measures.

     dune exec bin/doall_cli.exe -- run -p A -n 100 -t 16 --crash 0@5 --trace 40
     dune exec bin/doall_cli.exe -- run -p D -n 1000 -t 32 --random 31 --window 40
     dune exec bin/doall_cli.exe -- ba -n 64 -t 8 --value 7 --protocol C
     dune exec bin/doall_cli.exe -- async -n 100 -t 16 --crash 3@9 *)

open Cmdliner
module D = Doall
module J = Dhw_util.Jsonw

(* Exit code 2 is a usage error, like cmdliner's own argument errors. *)
let usage_error msg =
  prerr_endline msg;
  exit 2

(* Doall.Spec.make raises on n < 1 or t < 1; on the command line that is a
   usage error. *)
let make_spec ~n ~t =
  if n < 1 || t < 1 then
    usage_error (Printf.sprintf "n and t must be >= 1 (got n = %d, t = %d)" n t);
  D.Spec.make ~n ~t

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let protocol_of_name name =
  match String.lowercase_ascii name with
  | "a" -> D.Protocol_a.protocol
  | "b" -> D.Protocol_b.protocol
  | "c" -> D.Protocol_c.protocol
  | "c-chunked" | "cchunked" -> D.Protocol_c.protocol_chunked
  | "c-naive" | "cnaive" -> D.Protocol_c_naive.protocol
  | "d" -> D.Protocol_d.protocol
  | "d-coord" | "dcoord" -> D.Protocol_d_coord.protocol
  | "trivial" -> D.Baseline_trivial.protocol
  | s when String.length s > 11 && String.sub s 0 11 = "checkpoint:" ->
      (try D.Baseline_checkpoint.protocol ~period:(int_of_string (String.sub s 11 (String.length s - 11)))
       with _ -> usage_error "checkpoint:<period> needs an integer period")
  | "checkpoint" -> D.Baseline_checkpoint.protocol ~period:1
  | _ -> usage_error ("unknown protocol: " ^ name ^ " (A, B, C, C-chunked, C-naive, D, D-coord, D-online, trivial, checkpoint[:k])")

let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ p; r ] -> (
        try Ok (int_of_string p, int_of_string r)
        with _ -> Error (`Msg "expected pid@round"))
    | _ -> Error (`Msg "expected pid@round")
  in
  let print ppf (p, r) = Format.fprintf ppf "%d@%d" p r in
  Arg.conv (parse, print)

let n_arg = Arg.(value & opt int 100 & info [ "n"; "units" ] ~doc:"Units of work.")
let t_arg = Arg.(value & opt int 16 & info [ "t"; "processes" ] ~doc:"Processes.")

let crashes_arg =
  Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"PID@ROUND"
       ~doc:"Silently crash $(i,PID) at $(i,ROUND) (repeatable).")

let random_arg =
  Arg.(value & opt (some int) None & info [ "random" ] ~docv:"VICTIMS"
       ~doc:"Crash $(i,VICTIMS) random processes at random rounds.")

let window_arg =
  Arg.(value & opt int 200 & info [ "window" ] ~doc:"Random crash-round window.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Adversary seed.")

let adversary_arg =
  Arg.(value & opt (some int) None & info [ "kill-active-every" ] ~docv:"UNITS"
       ~doc:"Crash whichever process is working after every $(i,UNITS) units (keeps the work, drops the messages).")

let trace_arg =
  Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"N"
       ~doc:"Print the first $(i,N) trace events.")

let crash_desc = function
  | [] -> "none"
  | cs ->
      "crash "
      ^ String.concat ", "
          (List.map (fun (p, r) -> Printf.sprintf "%d@%d" p r) cs)

(* Returns the fault plan plus a stable human-readable summary of it — the
   latter is embedded in JSON reports so a report identifies its run. *)
let build_fault ~t ~crashes ~random ~window ~seed ~adversary =
  match (crashes, random, adversary) with
  | [], None, None -> (Simkit.Fault.none, "none")
  | cs, None, None -> (Simkit.Fault.crash_silently_at cs, crash_desc cs)
  | [], Some v, None ->
      ( Simkit.Fault.random ~seed:(Int64.of_int seed) ~t ~victims:v ~window,
        Printf.sprintf "random victims=%d seed=%d window=%d" v seed window )
  | [], None, Some k ->
      ( Simkit.Fault.crash_active_after_work ~units_between_crashes:k
          ~max_crashes:(t - 1),
        Printf.sprintf "kill-active-every %d units" k )
  | _ -> usage_error "combine at most one of --crash/--random/--kill-active-every"

let report_arg =
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "report" ] ~docv:"FMT"
       ~doc:"Output format: $(b,text) (default) or $(b,json) (one dhw-report/v4 document on stdout).")

(* Distinct exit codes so scripts can tell failure classes apart (2 is
   cmdliner's usage-error code): 0 = completed and correct, 1 = completed
   but incorrect, 3 = stalled, 4 = round/tick limit hit. *)
let exit_run ~ok outcome_class =
  let code =
    match outcome_class with
    | `Completed -> if ok then 0 else 1
    | `Stalled -> 3
    | `Limit -> 4
  in
  if code <> 0 then exit code

let events_arg =
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"PATH"
       ~doc:"Stream every execution event to $(i,PATH) as JSON Lines.")

(* Run [f] with the --events file (if any) teed with the [also] sinks. *)
let with_events ?(also = []) events f =
  let oc = Option.map open_out events in
  let sinks = Option.to_list (Option.map Simkit.Obs.jsonl oc) @ also in
  let r =
    f (match sinks with [] -> None | [ s ] -> Some s | ss -> Some (Simkit.Obs.tee ss))
  in
  Option.iter close_out oc;
  r

let count_status statuses pred =
  Array.fold_left (fun acc s -> if pred s then acc + 1 else acc) 0 statuses

let status_survivors statuses =
  count_status statuses (function Simkit.Types.Terminated _ -> true | _ -> false)

let status_crashed statuses =
  count_status statuses (function Simkit.Types.Crashed _ -> true | _ -> false)

let restarts_arg =
  Arg.(value & opt_all crash_conv [] & info [ "restarts"; "restart" ]
       ~docv:"PID@ROUND"
       ~doc:"Revive $(i,PID) at $(i,ROUND) after a --crash (repeatable). Switches to the recovery-hardened protocol variant, so only A and B qualify.")

let restart_desc rs =
  "restart "
  ^ String.concat ", "
      (List.map (fun (p, r) -> Printf.sprintf "%d@%d" p r) rs)

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH"
       ~doc:"Write a dhw-trace/v1 span file (wall-clock round/step/deliver/persist timings) to $(i,PATH); render it with the $(b,trace) subcommand.")

let horizon_arg =
  Arg.(value & opt int 32 & info [ "horizon" ] ~docv:"ROUNDS"
       ~doc:"D-online only: work units arrive at seeded random rounds in [0, $(i,ROUNDS)).")

let idle_block_arg =
  Arg.(value & opt int 4 & info [ "idle-block" ] ~docv:"ROUNDS"
       ~doc:"D-online only: idle-round block size between arrival sweeps.")

let run_cmd =
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ] ~doc:"Protocol (A, B, C, C-chunked, C-naive, D, D-online, trivial, checkpoint[:k]).")
  in
  let run proto n t crashes restarts random window seed adversary trace_n
      report_fmt events trace_out horizon idle_block =
    let spec = make_spec ~n ~t in
    (* --trace N records the event stream in memory, beside --events. *)
    let trace_sink, recorded = Simkit.Obs.memory () in
    let traced = if trace_n = None then [] else [ trace_sink ] in
    (* Wall-clock span collection is a separate sink from --events so the
       deterministic event stream stays byte-stable across machines. *)
    let spans, flush_spans =
      match trace_out with
      | None -> (None, fun _proto -> ())
      | Some path ->
          let sink, collected = Simkit.Obs.span_collector ~src:"sim" () in
          ( Some sink,
            fun proto_name ->
              Dhw_util.Spanfile.write_file
                ~meta:
                  [ ("protocol", J.Str proto_name); ("n", J.Int n);
                    ("t", J.Int t) ]
                ~source:"sim" path (collected ()) )
    in
    let finish ?latency fault_desc (report : D.Runner.report) =
      flush_spans report.D.Runner.protocol;
      (match report_fmt with
      | `Json ->
          print_endline
            (D.Report.to_string
               (D.Report.of_run ~fault:fault_desc ?latency report))
      | `Text ->
          Format.printf "%a@." D.Runner.pp report;
          (match latency with
          | Some l -> Format.printf "latency: %s@." (J.to_string l)
          | None -> ());
          Format.printf "verdict: %s@."
            (if D.Runner.correct report then "CORRECT" else "INCORRECT");
          Option.iter
            (fun limit -> Simkit.Obs.pp ~limit Format.std_formatter (recorded ()))
            trace_n);
      exit_run
        ~ok:(D.Runner.correct report)
        (match report.D.Runner.outcome with
        | Simkit.Kernel.Completed -> `Completed
        | Simkit.Kernel.Stalled _ -> `Stalled
        | Simkit.Kernel.Round_limit _ -> `Limit)
    in
    if restarts <> [] then begin
      match D.Fuzz.recovery_which_of_name proto with
      | None ->
          usage_error
            ("--restarts needs a protocol with a recovery hook (A or B), got "
            ^ proto)
      | Some which ->
          if random <> None || adversary <> None then
            usage_error
              "--restarts combines only with --crash, not \
               --random/--kill-active-every";
          let entry mode (victim, at) =
            { Simkit.Campaign.Schedule.victim; at; mode }
          in
          let sched =
            Simkit.Campaign.Schedule.make
              (List.map (entry Simkit.Campaign.Schedule.Silent) crashes
              @ List.map (entry Simkit.Campaign.Schedule.Restart) restarts)
          in
          let fault = Simkit.Campaign.Schedule.to_fault sched in
          let fault_desc =
            match crashes with
            | [] -> restart_desc restarts
            | cs -> crash_desc cs ^ "; " ^ restart_desc restarts
          in
          finish fault_desc
            (with_events ~also:traced events (fun obs ->
                 D.Recovery.run ~fault ?obs ?spans spec which))
    end
    else if
      String.lowercase_ascii proto = "d-online"
      || String.lowercase_ascii proto = "donline"
    then begin
      (* Online Do-All: units arrive over time (seeded by --seed), and the
         report gains a latency section with arrival-to-completion
         percentiles over the surviving units. *)
      let arrivals =
        D.Latency.gen_arrivals ~seed:(Int64.of_int seed) ~n_units:n ~sites:t
          ~horizon
      in
      let cfg = { D.Protocol_d_online.arrivals; horizon; idle_block } in
      let p = D.Protocol_d_online.protocol cfg in
      let lat = D.Latency.create ~arrivals in
      let fault, fault_desc =
        build_fault ~t ~crashes ~random ~window ~seed ~adversary
      in
      let report =
        with_events ~also:(traced @ [ D.Latency.sink lat ]) events (fun obs ->
            D.Runner.run ~fault ?obs ?spans spec p)
      in
      finish ~latency:(D.Latency.to_json lat) fault_desc report
    end
    else
      let p = protocol_of_name proto in
      let fault, fault_desc =
        build_fault ~t ~crashes ~random ~window ~seed ~adversary
      in
      finish fault_desc
        (with_events ~also:traced events (fun obs ->
             D.Runner.run ~fault ?obs ?spans spec p))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a Do-All protocol under a fault schedule")
    Term.(
      const run $ proto_arg $ n_arg $ t_arg $ crashes_arg $ restarts_arg
      $ random_arg $ window_arg $ seed_arg $ adversary_arg $ trace_arg
      $ report_arg $ events_arg $ trace_out_arg $ horizon_arg
      $ idle_block_arg)

let timeline_cmd =
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ] ~doc:"Protocol (A, B, C, C-chunked, C-naive, D, trivial, checkpoint[:k]).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the timeline as JSON (schema dhw-timeline/v3) instead of ASCII sparklines.")
  in
  let width_arg =
    Arg.(value & opt int 64 & info [ "width" ] ~docv:"COLS"
         ~doc:"Maximum sparkline width; longer runs are bucketed down to it.")
  in
  let run proto n t crashes random window seed adversary json width =
    let p = protocol_of_name proto in
    let spec = make_spec ~n ~t in
    let fault, fault_desc =
      build_fault ~t ~crashes ~random ~window ~seed ~adversary
    in
    let tl = Simkit.Obs.Timeline.create ~n_processes:t ~n_units:n in
    let report =
      D.Runner.run ~fault ~obs:(Simkit.Obs.Timeline.sink tl) spec p
    in
    if json then print_endline (J.pretty (Simkit.Obs.Timeline.to_json tl))
    else begin
      Format.printf "%s on %a  fault: %s@." report.D.Runner.protocol D.Spec.pp
        spec fault_desc;
      Simkit.Obs.Timeline.pp ~width Format.std_formatter tl
    end;
    if not (D.Runner.correct report) then exit 1
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Run a protocol and render its per-round timeline (ASCII sparklines or JSON)")
    Term.(
      const run $ proto_arg $ n_arg $ t_arg $ crashes_arg $ random_arg
      $ window_arg $ seed_arg $ adversary_arg $ json_arg $ width_arg)

let ba_cmd =
  let value_arg = Arg.(value & opt int 1 & info [ "value" ] ~doc:"General's value.") in
  let tb_arg = Arg.(value & opt int 8 & info [ "t" ] ~doc:"Failure bound (senders = t+1).") in
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ] ~doc:"Sender protocol (A, B, C, C-chunked).")
  in
  let cut_arg =
    Arg.(value & opt (some int) None & info [ "general-cut" ] ~docv:"K"
         ~doc:"General crashes mid-broadcast after informing $(i,K) senders.")
  in
  let run n t_bound value proto crashes cut =
    let wp =
      match String.lowercase_ascii proto with
      | "a" -> Agreement.Crash_ba.A
      | "b" -> Agreement.Crash_ba.B
      | "c" -> Agreement.Crash_ba.C
      | "c-chunked" | "cchunked" -> Agreement.Crash_ba.C_chunked
      | other -> usage_error ("unknown sender protocol: " ^ other)
    in
    (* -t is the failure bound here: t + 1 senders among n processes. *)
    if t_bound < 0 || t_bound >= n then
      usage_error
        (Printf.sprintf "ba needs 0 <= t < n (got n = %d, t = %d)" n t_bound);
    let o = Agreement.Crash_ba.run ~n ~t_bound ~value ~crash_at:crashes ?general_cut:cut wp in
    Format.printf
      "agreement=%b validity=%b messages=%d (work-protocol %d) rounds=%d sender-work=%d@."
      o.agreement o.validity o.messages o.work_messages o.rounds o.sender_work;
    if not (o.agreement && o.validity) then exit 1
  in
  Cmd.v
    (Cmd.info "ba" ~doc:"Byzantine agreement (crash model) via a work protocol (Section 5)")
    Term.(const run $ n_arg $ tb_arg $ value_arg $ proto_arg $ crashes_arg $ cut_arg)

let async_cmd =
  let delay_arg = Arg.(value & opt int 5 & info [ "max-delay" ] ~doc:"Max message delay.") in
  let lag_arg = Arg.(value & opt int 8 & info [ "max-lag" ] ~doc:"Max failure-detector lag.") in
  let drop_arg =
    Arg.(value & opt int 0 & info [ "drop" ] ~docv:"BP"
         ~doc:"Per-message loss probability in basis points (2500 = 25%); pair with --hardened.")
  in
  let dup_arg =
    Arg.(value & opt int 0 & info [ "dup" ] ~docv:"BP"
         ~doc:"Per-message duplication probability in basis points.")
  in
  let slow_arg =
    Arg.(value & opt_all int [] & info [ "slow" ] ~docv:"PID"
         ~doc:"Add $(i,PID) to the slow set (repeatable).")
  in
  let slow_factor_arg =
    Arg.(value & opt int 1 & info [ "slow-factor" ] ~docv:"K"
         ~doc:"Delay bound multiplier for the slow set.")
  in
  let hardened_arg =
    Arg.(value & flag & info [ "hardened" ]
         ~doc:"Run over ack/retransmit links with organic heartbeat detection instead of the oracle detector. Required for completion under --drop.")
  in
  let run n t crashes seed max_delay max_lag drop dup slow slow_factor hardened
      report_fmt events =
    let spec = make_spec ~n ~t in
    let link =
      { Asim.Event_sim.drop_bp = drop; dup_bp = dup; corrupt_bp = 0;
        slow_set = slow; slow_factor; severs = [] }
    in
    let seed = Int64.of_int seed in
    let stats = if hardened then Some (Asim.Link.stats ()) else None in
    let r =
      with_events events (fun obs ->
          if hardened then
            Asim.Async_protocol_a.run_hardened ~crash_at:crashes ~max_delay
              ~max_lag ~seed ~link ?stats ?obs spec
          else
            Asim.Async_protocol_a.run ~crash_at:crashes ~max_delay ~max_lag
              ~seed ~link ?obs spec)
    in
    let ok =
      Asim.Event_sim.completed r && Simkit.Metrics.all_units_done r.metrics
    in
    (match report_fmt with
    | `Json ->
        let outcome =
          match r.Asim.Event_sim.outcome with
          | Asim.Event_sim.Completed -> "completed"
          | Asim.Event_sim.Stalled t -> Printf.sprintf "stalled@%d" t
          | Asim.Event_sim.Tick_limit t -> Printf.sprintf "tick-limit@%d" t
        in
        let extra =
          [ ( "net",
              J.Obj
                [
                  ("sent", J.Int r.Asim.Event_sim.net.sent);
                  ("dropped", J.Int r.Asim.Event_sim.net.dropped);
                  ("duplicated", J.Int r.Asim.Event_sim.net.duplicated);
                ] ) ]
          @
          match stats with
          | Some s ->
              [ ( "link",
                  J.Obj
                    [
                      ("retransmits", J.Int s.Asim.Link.retransmits);
                      ("dups_suppressed", J.Int s.Asim.Link.dups_suppressed);
                      ("suspicions_retracted", J.Int s.Asim.Link.recoveries);
                    ] );
                ( "detector",
                  J.Obj
                    [
                      ("suspicions", J.Int s.Asim.Link.suspicions);
                      ("false_suspicions", J.Int s.Asim.Link.false_suspicions);
                      ("unsuspects", J.Int s.Asim.Link.unsuspects);
                    ] ) ]
          | None -> []
        in
        let rep =
          D.Report.make ~kind:"async"
            ~protocol:(if hardened then "async-a-hardened" else "async-a")
            ~spec ~fault:(crash_desc crashes) ~metrics:r.metrics ~outcome
            ~correct:ok ~survivors:(status_survivors r.statuses)
            ~crashed:(status_crashed r.statuses) ~extra ()
        in
        print_endline (D.Report.to_string rep)
    | `Text ->
        (match stats with
        | Some stats ->
            Format.printf
              "link: sent=%d dropped=%d duplicated=%d retransmits=%d \
               dups-suppressed=%d suspicions-retracted=%d@."
              r.Asim.Event_sim.net.sent r.Asim.Event_sim.net.dropped
              r.Asim.Event_sim.net.duplicated stats.Asim.Link.retransmits
              stats.Asim.Link.dups_suppressed stats.Asim.Link.recoveries;
            Format.printf
              "detector: suspicions=%d false-suspicions=%d unsuspects=%d@."
              stats.Asim.Link.suspicions stats.Asim.Link.false_suspicions
              stats.Asim.Link.unsuspects
        | None -> ());
        Format.printf "%a outcome=%a@." Simkit.Metrics.pp_summary r.metrics
          Asim.Event_sim.pp_outcome r.outcome;
        Format.printf "verdict: %s@." (if ok then "CORRECT" else "INCORRECT"));
    exit_run ~ok
      (match r.Asim.Event_sim.outcome with
      | Asim.Event_sim.Completed -> `Completed
      | Asim.Event_sim.Stalled _ -> `Stalled
      | Asim.Event_sim.Tick_limit _ -> `Limit)
  in
  Cmd.v
    (Cmd.info "async" ~doc:"Asynchronous Protocol A with a failure detector (Section 2.1)")
    Term.(
      const run $ n_arg $ t_arg $ crashes_arg $ seed_arg $ delay_arg $ lag_arg
      $ drop_arg $ dup_arg $ slow_arg $ slow_factor_arg $ hardened_arg
      $ report_arg $ events_arg)

let shmem_cmd =
  let algo_arg =
    Arg.(value & opt string "checkpointed" & info [ "a"; "algorithm" ]
         ~doc:"Shared-memory algorithm (checkpointed, parallel-scan).")
  in
  let run n t algo crashes report_fmt =
    let name, go =
      match String.lowercase_ascii algo with
      | "checkpointed" | "seq" ->
          ("checkpointed", Shmem.Writeall.checkpointed ~crash_at:crashes)
      | "parallel-scan" | "scan" ->
          ("parallel-scan", Shmem.Writeall.parallel_scan ~crash_at:crashes)
      | other -> usage_error ("unknown algorithm: " ^ other)
    in
    let o = go ~n ~t () in
    let ok =
      Shmem.Writeall.work_complete o && Shmem.Skernel.completed o.result
    in
    (match report_fmt with
    | `Json ->
        let outcome =
          match o.result.outcome with
          | Shmem.Skernel.Completed -> "completed"
          | Shmem.Skernel.Stalled r -> Printf.sprintf "stalled@%d" r
          | Shmem.Skernel.Round_limit r -> Printf.sprintf "round-limit@%d" r
        in
        let extra =
          [ ( "shmem",
              J.Obj
                [
                  ("reads", J.Int o.result.reads);
                  ("writes", J.Int o.result.writes);
                  ("aps", J.Int o.result.aps);
                  ("effort", J.Int o.effort);
                ] ) ]
        in
        let rep =
          D.Report.make ~kind:"shmem" ~protocol:name ~spec:(make_spec ~n ~t)
            ~fault:(crash_desc crashes) ~metrics:o.result.metrics ~outcome
            ~correct:ok ~survivors:(status_survivors o.result.statuses)
            ~crashed:(status_crashed o.result.statuses) ~extra ()
        in
        print_endline (D.Report.to_string rep)
    | `Text ->
        Format.printf
          "work=%d reads=%d writes=%d effort=%d rounds=%d aps=%d all-done=%b %s@."
          (Simkit.Metrics.work o.result.metrics)
          o.result.reads o.result.writes o.effort
          (Simkit.Metrics.rounds o.result.metrics)
          o.result.aps
          (Shmem.Writeall.work_complete o)
          (match o.result.outcome with
          | Shmem.Skernel.Completed -> "completed"
          | Shmem.Skernel.Stalled r -> Printf.sprintf "STALLED@%d" r
          | Shmem.Skernel.Round_limit r -> Printf.sprintf "ROUND-LIMIT@%d" r));
    exit_run ~ok
      (match o.result.outcome with
      | Shmem.Skernel.Completed -> `Completed
      | Shmem.Skernel.Stalled _ -> `Stalled
      | Shmem.Skernel.Round_limit _ -> `Limit)
  in
  Cmd.v
    (Cmd.info "shmem" ~doc:"Shared-memory Write-All (Section 1.1 comparison)")
    Term.(const run $ n_arg $ t_arg $ algo_arg $ crashes_arg $ report_arg)

let bootstrap_cmd =
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ] ~doc:"Work protocol (A, B, C, C-chunked).")
  in
  let run n t proto crashes =
    let wp =
      match String.lowercase_ascii proto with
      | "a" -> Agreement.Crash_ba.A
      | "b" -> Agreement.Crash_ba.B
      | "c" -> Agreement.Crash_ba.C
      | "c-chunked" | "cchunked" -> Agreement.Crash_ba.C_chunked
      | other -> usage_error ("unknown protocol: " ^ other)
    in
    (* Bootstrap.run has Spec.make's preconditions on n and t. *)
    ignore (make_spec ~n ~t : D.Spec.t);
    let o = Agreement.Bootstrap.run ~n ~t ~crash_at:crashes wp in
    Format.printf
      "ok=%b  stage1: msgs=%d rounds=%d  stage2: %a  totals: msgs=%d work=%d rounds=%d@."
      o.ok o.ba.messages o.ba.rounds Doall.Runner.pp o.work o.total_messages
      o.total_work o.total_rounds;
    if not o.ok then exit 1
  in
  Cmd.v
    (Cmd.info "bootstrap"
       ~doc:"Section 1 bootstrap: agree on the pool, then perform it")
    Term.(const run $ n_arg $ t_arg $ proto_arg $ crashes_arg)

(* ------------------------------------------------------------------ *)
(* Adversary campaigns: one fuzz and one replay subcommand per fault model
   (crash, crash–recovery, corruption/Byzantine, lossy async). The name of
   the subcommand selects the model: its campaign driver, its oracle stack
   and its own flags. Reporting, corpus files, schedule reading and replay
   verdicts are shared. *)

module Campaign = Simkit.Campaign
module AF = Asim.Async_fuzz

(* A serialized schedule format: [schedule v1] or [async-schedule v1].
   [cost] is set for the byz models, whose shrinker minimizes adversary
   power and whose reports print it. *)
type 's format = {
  print : 's -> string;
  parse : string -> ('s, string) result;
  meta : 's -> string -> string option;
  pp : Format.formatter -> 's -> unit;
  cost : ('s -> int) option;
}

let sync_format =
  { print = Campaign.Schedule.print; parse = Campaign.Schedule.parse;
    meta = Campaign.Schedule.meta; pp = Campaign.Schedule.pp; cost = None }

let async_format =
  { print = Campaign.Async.print; parse = Campaign.Async.parse;
    meta = Campaign.Async.meta; pp = Campaign.Async.pp; cost = None }

let byz_format = { sync_format with cost = Some Campaign.Schedule.cost }
let async_byz_format = { async_format with cost = Some Campaign.Async.cost }

(* One-line summaries of a run, printed after each fuzz failure and by a
   replay, so the two can be compared verbatim. *)
let pp_sync_run ppf (s : D.Fuzz.subject) = D.Runner.pp ppf s.D.Fuzz.report

let pp_async_run ppf (s : AF.subject) =
  let r = s.AF.result in
  Format.fprintf ppf "%a outcome=%a" Simkit.Metrics.pp_summary
    r.Asim.Event_sim.metrics Asim.Event_sim.pp_outcome r.Asim.Event_sim.outcome

(* A schedule's latest entry round: the horizon the recovery and byz
   oracles judge it against. *)
let sched_horizon (sched : Campaign.Schedule.t) =
  List.fold_left
    (fun acc (e : Campaign.Schedule.entry) -> max acc e.at)
    0 sched.Campaign.Schedule.entries

(* A byz schedule run outside its campaign takes its round cap from its own
   horizon, not from the campaign's window. *)
let run_byz_schedule spec hardening sched =
  let max_rounds = D.Fuzz.byz_max_rounds spec ~window:(sched_horizon sched) in
  D.Fuzz.run_byz_schedule ~max_rounds spec hardening sched

(* Campaign results do not depend on the worker count: --jobs 1 and
   --jobs 8 print byte-identical stats and write byte-identical corpora;
   0 means one worker domain per core. *)
let jobs_arg =
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N"
       ~doc:"Worker domains executing campaign schedules (default 0 = one per core). Campaign results are byte-identical for every value; only wall-clock time changes.")

let executions_arg default =
  Arg.(value & opt int default & info [ "executions" ]
       ~doc:"Random schedules to run (fuzz ignores it with $(b,--exhaustive)).")

let campaign_window_arg =
  Arg.(value & opt (some int) None & info [ "window" ] ~docv:"WINDOW"
       ~doc:"Fault window in rounds, or in ticks on the asynchronous substrate (default: twice the failure-free running time).")

let corpus_arg =
  Arg.(value & opt string "corpus" & info [ "corpus" ] ~docv:"DIR"
       ~doc:"Directory where shrunk failing schedules are written.")

let work_cap_arg =
  Arg.(value & opt (some int) None & info [ "work-cap" ] ~docv:"UNITS"
       ~doc:"Extra oracle asserting total work <= $(i,UNITS). A cap below the theorem bound deliberately fails a campaign - the hook for demonstrating shrinking and replay; replay a counterexample with the cap that found it.")

let max_failures_arg =
  Arg.(value & opt int 3 & info [ "max-failures" ]
       ~doc:"Stop after this many (shrunk) violations; must be at least 1.")

let schedule_file_arg doc =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let resolve_jobs jobs =
  if jobs < 0 then usage_error "--jobs must be >= 0 (0 = one worker per core)"
  else if jobs = 0 then Simkit.Pool.default_jobs ()
  else jobs

(* Campaign misconfiguration is exit code 2 (like cmdliner usage errors and
   unknown protocols), distinct from exit 1 = counterexample found. With
   --max-failures 0 a failing campaign would keep no counterexample and
   pass. *)
let check_campaign_config ~executions ~window ~max_failures =
  if executions < 0 then usage_error "--executions must be >= 0";
  (match window with
  | Some w when w < 0 -> usage_error "--window must be >= 0"
  | _ -> ());
  if max_failures < 1 then usage_error "--max-failures must be >= 1"

(* Per-failure machine-readable companion to the .sched corpus entry: the
   oracle verdict plus both the original and the shrunk schedule texts. *)
let write_failure_report ~path ~protocol ~seed ~index ~print
    (f : _ Campaign.failure) =
  write_file path
    (J.pretty
       (J.Obj
          [
            ("schema", J.Str "dhw-fuzz-failure/v1");
            ("protocol", J.Str protocol);
            ("seed", J.Int seed);
            ("index", J.Int index);
            ("oracle", J.Str f.Campaign.oracle);
            ("detail", J.Str f.Campaign.detail);
            ("schedule", J.Str (print f.Campaign.schedule));
            ("shrunk", J.Str (print f.Campaign.shrunk));
            ("shrunk_detail", J.Str f.Campaign.shrunk_detail);
            ("shrink_executions", J.Int f.Campaign.shrink_executions);
          ])
    ^ "\n");
  Format.printf "  written: %s@." path

(* Print a finished campaign: [header], the stats, and each failure followed
   by one more run of its shrunk schedule (in the replay format, so the two
   can be compared verbatim). Then write each failure's shrunk schedule and
   report to [corpus], and exit 1 if there were any. *)
let report_campaign fmt ~header ~rerun ~pp_run ~corpus ~protocol ~seed
    (stats : _ Campaign.stats) =
  Format.printf "%s@.%a@." header Campaign.pp_stats stats;
  let failures = stats.Campaign.failures in
  List.iteri
    (fun i
         { Campaign.schedule; oracle; detail; shrunk; shrunk_detail;
           shrink_executions } ->
      Format.printf "violation #%d: oracle=%s (%s)@." i oracle detail;
      (match fmt.cost with
      | None ->
          Format.printf "  schedule: %a@.  shrunk (%d executions): %a (%s)@."
            fmt.pp schedule shrink_executions fmt.pp shrunk shrunk_detail
      | Some cost ->
          Format.printf
            "  schedule (cost %d): %a@.  cheapest break (cost %d, %d \
             executions): %a (%s)@."
            (cost schedule) fmt.pp schedule (cost shrunk) shrink_executions
            fmt.pp shrunk shrunk_detail);
      Format.printf "  %a@." pp_run (rerun shrunk))
    failures;
  if failures <> [] then begin
    if not (Sys.file_exists corpus) then Sys.mkdir corpus 0o755;
    List.iteri
      (fun index (f : _ Campaign.failure) ->
        let base =
          Filename.concat corpus
            (Printf.sprintf "%s-seed%d-%d" protocol seed index)
        in
        write_file (base ^ ".sched") (fmt.print f.Campaign.shrunk);
        Format.printf "  written: %s.sched@." base;
        write_failure_report ~path:(base ^ ".report.json") ~protocol ~seed
          ~index ~print:fmt.print f)
      failures;
    exit 1
  end

(* Reading a schedule file: a parse error, a missing meta key or a
   malformed meta n / meta t is a usage error. *)
let parse_schedule fmt text =
  match fmt.parse text with
  | Ok sched -> sched
  | Error msg -> usage_error ("parse error: " ^ msg)

let read_schedule fmt file = parse_schedule fmt (read_file file)

let meta fmt sched key =
  match fmt.meta sched key with
  | Some v -> v
  | None -> usage_error ("schedule file lacks meta " ^ key)

let meta_spec fmt sched =
  let int_meta key =
    let v = meta fmt sched key in
    match int_of_string_opt v with
    | Some i -> i
    | None ->
        usage_error
          (Printf.sprintf "schedule file has a non-integer meta %s: %s" key v)
  in
  let n = int_meta "n" in
  make_spec ~n ~t:(int_meta "t")

(* Print a replayed schedule, the summary of its run [subject] and the
   verdict of [oracles]; exit 1 if one fails. *)
let replay fmt ~title ?protocol spec ~pp_run ~oracles sched subject =
  Format.printf "%s: %sn=%d t=%d%s schedule: %a@." title
    (match protocol with Some p -> "protocol=" ^ p ^ " " | None -> "")
    (D.Spec.n spec) (D.Spec.processes spec)
    (match fmt.cost with
    | Some cost -> Printf.sprintf " cost=%d" (cost sched)
    | None -> "")
    fmt.pp sched;
  Format.printf "  %a@." pp_run subject;
  match Campaign.first_failure oracles subject with
  | None -> Format.printf "verdict: all oracles pass@."
  | Some (oracle, detail) ->
      Format.printf "verdict: oracle=%s FAILS (%s)@." oracle detail;
      exit 1

(* Crash campaigns: fuzz + replay *)

let fuzz_cmd =
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ]
         ~doc:"Protocol (A, B, C, C-chunked, C-naive, D, D-coord, trivial, checkpoint[:k]).")
  in
  let exhaustive_arg =
    Arg.(value & flag & info [ "exhaustive" ]
         ~doc:"Enumerate every (victim set x crash round grid x mode) schedule instead of sampling; keep -t tiny.")
  in
  let run proto n t seed executions exhaustive window corpus work_cap
      max_failures jobs =
    let p = protocol_of_name proto in
    check_campaign_config ~executions ~window ~max_failures;
    let spec = make_spec ~n ~t in
    let jobs = resolve_jobs jobs in
    let extra = Option.to_list (Option.map D.Fuzz.work_cap work_cap) in
    let stats =
      if exhaustive then
        D.Fuzz.exhaustive_campaign ~jobs ?window ~extra ~max_failures spec p
      else
        D.Fuzz.campaign ~jobs ~seed:(Int64.of_int seed) ~executions ?window
          ~extra ~max_failures spec p
    in
    let name = String.lowercase_ascii proto in
    report_campaign sync_format
      ~header:
        (Printf.sprintf "campaign: protocol=%s n=%d t=%d seed=%d %s" name n t
           seed (if exhaustive then "exhaustive" else "sampled"))
      ~rerun:(D.Fuzz.run_schedule spec p) ~pp_run:pp_sync_run ~corpus
      ~protocol:name ~seed stats
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Adversary campaign: fuzz a protocol with partial-delivery crash schedules, shrinking any violation")
    Term.(
      const run $ proto_arg $ n_arg $ t_arg $ seed_arg $ executions_arg 200
      $ exhaustive_arg $ campaign_window_arg $ corpus_arg $ work_cap_arg
      $ max_failures_arg $ jobs_arg)

let replay_cmd =
  let run file work_cap =
    let sched = read_schedule sync_format file in
    let name = meta sync_format sched "protocol" in
    let p = protocol_of_name name in
    let spec = meta_spec sync_format sched in
    replay sync_format ~title:"replay" ~protocol:name spec ~pp_run:pp_sync_run
      ~oracles:
        (D.Fuzz.oracles spec ~protocol:name
        @ Option.to_list (Option.map D.Fuzz.work_cap work_cap))
      sched
      (D.Fuzz.run_schedule spec p sched)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run a serialized campaign schedule and re-judge it with the same oracle stack")
    Term.(
      const run
      $ schedule_file_arg "Schedule file produced by fuzz (or hand-written)."
      $ work_cap_arg)

(* Crash–recovery campaigns: recovery-fuzz + recovery-replay *)

let recovery_fuzz_cmd =
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ]
         ~doc:"Protocol to harden and fuzz (A or B; a+rec/b+rec accepted).")
  in
  let restart_gap_arg =
    Arg.(value & opt int 6 & info [ "restart-gap" ] ~docv:"ROUNDS"
         ~doc:"Maximum downtime before a sampled restart.")
  in
  let run proto n t seed executions window restart_gap corpus work_cap
      max_failures jobs =
    let which =
      match D.Fuzz.recovery_which_of_name proto with
      | Some which -> which
      | None ->
          usage_error
            ("unknown recovery protocol: " ^ proto ^ " (A, B, a+rec, b+rec)")
    in
    check_campaign_config ~executions ~window ~max_failures;
    let spec = make_spec ~n ~t in
    let jobs = resolve_jobs jobs in
    let name = D.Fuzz.recovery_protocol_name which in
    report_campaign sync_format
      ~header:
        (Printf.sprintf
           "recovery campaign: protocol=%s n=%d t=%d seed=%d restart-gap=%d"
           name n t seed restart_gap)
      ~rerun:(D.Fuzz.run_recovery_schedule spec which) ~pp_run:pp_sync_run
      ~corpus ~protocol:name ~seed
      (D.Fuzz.recovery_campaign ~jobs ~seed:(Int64.of_int seed) ~executions
         ?window ~restart_gap
         ~extra:(Option.to_list (Option.map D.Fuzz.work_cap work_cap))
         ~max_failures spec which)
  in
  Cmd.v
    (Cmd.info "recovery-fuzz"
       ~doc:"Crash+restart storm campaign against a recovery-hardened protocol, shrinking any violation")
    Term.(
      const run $ proto_arg $ n_arg $ t_arg $ seed_arg $ executions_arg 200
      $ campaign_window_arg $ restart_gap_arg $ corpus_arg $ work_cap_arg
      $ max_failures_arg $ jobs_arg)

let recovery_replay_cmd =
  let run file work_cap =
    let sched = read_schedule sync_format file in
    let name = meta sync_format sched "protocol" in
    let which =
      match D.Fuzz.recovery_which_of_name name with
      | Some which -> which
      | None -> usage_error ("not a recovery protocol: " ^ name)
    in
    let spec = meta_spec sync_format sched in
    replay sync_format ~title:"recovery replay"
      ~protocol:(D.Fuzz.recovery_protocol_name which) spec ~pp_run:pp_sync_run
      ~oracles:
        (D.Fuzz.recovery_oracles spec which ~horizon:(sched_horizon sched)
        @ Option.to_list (Option.map D.Fuzz.work_cap work_cap))
      sched
      (D.Fuzz.run_recovery_schedule spec which sched)
  in
  Cmd.v
    (Cmd.info "recovery-replay"
       ~doc:"Re-run a serialized crash+restart schedule and re-judge it with the recovery oracle stack")
    Term.(
      const run
      $ schedule_file_arg
          "Schedule file produced by recovery-fuzz (or hand-written; may contain restart entries)."
      $ work_cap_arg)

(* Corruption / Byzantine campaigns: byz-fuzz + byz-replay *)

let byz_fuzz_cmd =
  let proto_arg =
    Arg.(value & opt string "A" & info [ "p"; "protocol" ]
         ~doc:"Protocol A variant to attack: $(b,a) (unhardened, expect a counterexample) or $(b,a+val) (validated, expect none).")
  in
  let byz_arg =
    Arg.(value & opt (some int) None & info [ "byz" ] ~docv:"B"
         ~doc:"Byzantine processes per schedule (default t/3 - 1; must satisfy 0 <= B < t).")
  in
  let async_arg =
    Arg.(value & flag & info [ "async" ]
         ~doc:"Attack the asynchronous substrate instead: corrupt/byz entries act on the reliable-link wire frames of hardened (or validated) async Protocol A.")
  in
  let run proto n t seed executions byz window corpus max_failures jobs async =
    let hardening =
      match D.Fuzz.byz_hardening_of_name proto with
      | Some hardening -> hardening
      | None ->
          usage_error ("unknown byz-fuzz protocol: " ^ proto ^ " (a, a+val)")
    in
    check_campaign_config ~executions ~window ~max_failures;
    (match byz with
    | Some b when b < 0 || b >= t ->
        usage_error
          (Printf.sprintf "--byz must satisfy 0 <= B < t (got %d, t = %d)" b t)
    | _ -> ());
    let spec = make_spec ~n ~t in
    let jobs = resolve_jobs jobs in
    let seed64 = Int64.of_int seed in
    let header name =
      Printf.sprintf "byz campaign: protocol=%s n=%d t=%d seed=%d byz=%d" name
        n t seed
        (match byz with Some b -> b | None -> min (max 0 ((t / 3) - 1)) (t - 1))
    in
    if async then
      let name = AF.byz_protocol_name hardening in
      report_campaign async_byz_format ~header:(header name)
        ~rerun:(AF.run_byz_schedule spec hardening) ~pp_run:pp_async_run
        ~corpus ~protocol:name ~seed
        (AF.byz_campaign ~jobs ~seed:seed64 ~executions ?byz ?window
           ~max_failures spec hardening)
    else
      let name = D.Fuzz.byz_protocol_name hardening in
      report_campaign byz_format ~header:(header name)
        ~rerun:(run_byz_schedule spec hardening) ~pp_run:pp_sync_run ~corpus
        ~protocol:name ~seed
        (D.Fuzz.byz_campaign ~jobs ~seed:seed64 ~executions ?byz ?window
           ~max_failures spec hardening)
  in
  Cmd.v
    (Cmd.info "byz-fuzz"
       ~doc:"Corruption/Byzantine storm campaign: forged and tampered checkpoint views against plain or validated Protocol A, shrinking any violation to the cheapest breaking schedule")
    Term.(
      const run $ proto_arg $ n_arg $ t_arg $ seed_arg $ executions_arg 200
      $ byz_arg $ campaign_window_arg $ corpus_arg $ max_failures_arg
      $ jobs_arg $ async_arg)

(* Both parsers skip blank and comment lines before the header, so the
   format is chosen by the first line that is neither. *)
let is_async_schedule text =
  String.split_on_char '\n' text
  |> List.map String.trim
  |> List.find_opt (fun l -> l <> "" && l.[0] <> '#')
  |> Option.fold ~none:false
       ~some:(String.starts_with ~prefix:"async-schedule")

let byz_replay_cmd =
  let run file =
    let text = read_file file in
    if is_async_schedule text then
      let fmt = async_byz_format in
      let sched = parse_schedule fmt text in
      let name = meta fmt sched "protocol" in
      let hardening =
        match AF.byz_hardening_of_name name with
        | Some hardening -> hardening
        | None ->
            usage_error
              ("not a byz-fuzz protocol: " ^ name ^ " (async-a, async-a+val)")
      in
      let spec = meta_spec fmt sched in
      replay fmt ~title:"byz replay" ~protocol:(AF.byz_protocol_name hardening)
        spec ~pp_run:pp_async_run ~oracles:(AF.byz_oracles spec ~hardening)
        sched
        (AF.run_byz_schedule spec hardening sched)
    else
      let fmt = byz_format in
      let sched = parse_schedule fmt text in
      let name = meta fmt sched "protocol" in
      let hardening =
        match D.Fuzz.byz_hardening_of_name name with
        | Some hardening -> hardening
        | None ->
            usage_error ("not a byz-fuzz protocol: " ^ name ^ " (a, a+val)")
      in
      let spec = meta_spec fmt sched in
      replay fmt ~title:"byz replay"
        ~protocol:(D.Fuzz.byz_protocol_name hardening) spec ~pp_run:pp_sync_run
        ~oracles:(D.Fuzz.byz_oracles spec ~hardening) sched
        (run_byz_schedule spec hardening sched)
  in
  Cmd.v
    (Cmd.info "byz-replay"
       ~doc:"Re-run a serialized corruption/Byzantine schedule and re-judge it with the byz oracle stack")
    Term.(
      const run
      $ schedule_file_arg
          "Schedule file produced by byz-fuzz (or hand-written; may contain corrupt/byz entries). Both the synchronous (schedule v1) and asynchronous (async-schedule v1) formats are accepted.")

(* Async campaigns: async-fuzz + async-replay *)

let async_fuzz_cmd =
  let run n t seed executions window corpus work_cap max_failures jobs =
    check_campaign_config ~executions ~window ~max_failures;
    let spec = make_spec ~n ~t in
    let jobs = resolve_jobs jobs in
    report_campaign async_format
      ~header:
        (Printf.sprintf "async campaign: protocol=async-a n=%d t=%d seed=%d" n
           t seed)
      ~rerun:(AF.run_schedule spec) ~pp_run:pp_async_run ~corpus
      ~protocol:"async-a" ~seed
      (AF.campaign ~jobs ~seed:(Int64.of_int seed) ~executions ?window
         ~extra:(Option.to_list (Option.map AF.work_cap work_cap))
         ~max_failures spec)
  in
  Cmd.v
    (Cmd.info "async-fuzz"
       ~doc:"Async adversary campaign: crashes plus message loss/duplication/slowdown against the hardened asynchronous Protocol A, shrinking any violation")
    Term.(
      const run $ n_arg $ t_arg $ seed_arg $ executions_arg 100
      $ campaign_window_arg $ corpus_arg $ work_cap_arg $ max_failures_arg
      $ jobs_arg)

let async_replay_cmd =
  let run file work_cap =
    let sched = read_schedule async_format file in
    let spec = meta_spec async_format sched in
    replay async_format ~title:"async replay" spec ~pp_run:pp_async_run
      ~oracles:
        (AF.oracles () @ Option.to_list (Option.map AF.work_cap work_cap))
      sched
      (AF.run_schedule spec sched)
  in
  Cmd.v
    (Cmd.info "async-replay"
       ~doc:"Re-run a serialized async campaign schedule and re-judge it with the same oracle stack")
    Term.(
      const run
      $ schedule_file_arg
          "Async schedule file produced by async-fuzz (or hand-written)."
      $ work_cap_arg)

(* ------------------------------------------------------------------ *)
(* Real-process deployment: net-run + net-replay *)

module Net = Dhw_net

let net_protocol_of_name name =
  match String.lowercase_ascii name with
  | "a" -> Some "a"
  | "b" -> Some "b"
  | "a+rec" -> Some "a+rec"
  | "b+rec" -> Some "b+rec"
  | _ -> None

let find_node_exe = function
  | Some p -> p
  | None ->
      let cand =
        Filename.concat (Filename.dirname Sys.executable_name) "dhw_node.exe"
      in
      if Sys.file_exists cand then cand else "dhw_node.exe"

let fresh_run_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    (* Short names: a unix-socket path tops out around 108 bytes. *)
    let d = Filename.concat base (Printf.sprintf "dhw%d-%d" (Unix.getpid ()) i) in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Entries a real deployment cannot realize: there is no tamper model over
   sockets, so refuse rather than silently degrade. *)
let net_check_entries (sched : Campaign.Schedule.t) =
  List.iter
    (fun (e : Campaign.Schedule.entry) ->
      match e.mode with
      | Campaign.Schedule.Corrupt _ | Campaign.Schedule.Byzantine ->
          usage_error
            "net-run: corrupt/byzantine entries are not realizable over real \
             sockets"
      | _ -> ())
    sched.Campaign.Schedule.entries

let net_runner_report spec ~protocol (res : Net.Orchestrator.result) =
  {
    D.Runner.spec;
    protocol;
    metrics = res.Net.Orchestrator.metrics;
    statuses = res.Net.Orchestrator.statuses;
    outcome = Net.Orchestrator.to_run_outcome res.Net.Orchestrator.stop;
  }

(* The sim-vs-real differential: the simulator's event stream for the same
   schedule must equal the fleet's, event for event. *)
let net_parity cfg ~sched res =
  match Net.Orchestrator.parity cfg ~sched res with
  | None ->
      Format.printf "diff: sim and real runs agree on every measure@.";
      true
  | Some first ->
      Format.printf "diff: sim-vs-real MISMATCH (%s)@." first;
      false

let net_exit (res : Net.Orchestrator.result) ~ok =
  exit_run ~ok
    (match res.Net.Orchestrator.stop with
    | Net.Orchestrator.Completed -> `Completed
    | Net.Orchestrator.Stalled _ | Net.Orchestrator.Node_failure _ -> `Stalled
    | Net.Orchestrator.Round_limit _ | Net.Orchestrator.Watchdog _ -> `Limit)

let net_print_report ~report_fmt ~fault_desc ~protocol spec
    (cfg : Net.Orchestrator.config) (res : Net.Orchestrator.result) rr =
  let correct = D.Runner.correct rr in
  (match report_fmt with
  | `Json ->
      let rep =
        D.Report.make ~kind:"net" ~protocol ~spec ~fault:fault_desc
          ~metrics:res.Net.Orchestrator.metrics
          ~outcome:(Net.Orchestrator.stop_to_string res.Net.Orchestrator.stop)
          ~correct
          ~survivors:(status_survivors res.Net.Orchestrator.statuses)
          ~crashed:(status_crashed res.Net.Orchestrator.statuses)
          ~extra:(Net.Orchestrator.transport_json cfg res)
          ()
      in
      print_endline (D.Report.to_string rep)
  | `Text ->
      Format.printf "%a@." D.Runner.pp rr;
      let s = res.Net.Orchestrator.transport in
      Format.printf
        "transport: connects=%d retries=%d timeouts=%d frames=%d/%d \
         spawns=%d kills=%d respawns=%d heartbeats=%d wall=%.2fs@."
        s.Net.Transport.connects s.Net.Transport.retries
        s.Net.Transport.timeouts s.Net.Transport.frames_sent
        s.Net.Transport.frames_received res.Net.Orchestrator.spawns
        res.Net.Orchestrator.kills res.Net.Orchestrator.respawns
        res.Net.Orchestrator.heartbeats res.Net.Orchestrator.wall_s;
      Format.printf "outcome: %s@."
        (Net.Orchestrator.stop_to_string res.Net.Orchestrator.stop);
      Format.printf "verdict: %s@." (if correct then "CORRECT" else "INCORRECT"));
  correct

let node_exe_arg =
  Arg.(value & opt (some string) None & info [ "node-exe" ] ~docv:"PATH"
       ~doc:"Path to the dhw_node binary (default: next to this executable).")

let addr_arg =
  Arg.(value & opt (some string) None & info [ "addr" ] ~docv:"ADDR"
       ~doc:"Control-plane address: $(b,unix:<path>) or $(b,tcp:<host>:<port>) (port 0 picks one). Default: a unix socket in a fresh temp dir.")

let watchdog_arg =
  Arg.(value & opt float 60. & info [ "watchdog" ] ~docv:"SECONDS"
       ~doc:"Wall-clock budget for the whole run.")

let io_timeout_arg =
  Arg.(value & opt float 10. & info [ "io-timeout" ] ~docv:"SECONDS"
       ~doc:"Per-RPC deadline (handshake, step, heartbeat).")

let rejoin_arg =
  Arg.(value & opt int 3 & info [ "rejoin-rounds" ] ~docv:"ROUNDS"
       ~doc:"State-transfer window a restarted node spends rebooting.")

let max_rounds_arg =
  Arg.(value & opt int 10_000 & info [ "max-rounds" ] ~doc:"Round limit.")

let keep_dir_arg =
  Arg.(value & flag & info [ "keep-dir" ]
       ~doc:"Keep the run directory (sockets, checkpoints, node logs) instead of deleting it.")

let diff_arg =
  Arg.(value & flag & info [ "diff" ]
       ~doc:"Also run the identical schedule in the simulator and require the identical execution, event for event (steps, sends, drops, work, persists, crashes, restarts, terminations).")

(* Run a schedule against a real-process fleet; shared by net-run and
   net-replay. Returns (config, orchestrator result, runner-shaped
   report). With [~trace_out:(Some path)] the fleet runs traced: nodes and
   orchestrator write span files under the run dir and the merged
   dhw-trace/v1 stream is copied to [path] before the run dir is deleted. *)
let net_execute ~node_exe ~addr ~watchdog ~io_timeout ~rejoin_rounds
    ~max_rounds ~keep_dir ~trace_out spec ~protocol sched =
  net_check_entries sched;
  let run_dir = fresh_run_dir () in
  let addr =
    match addr with
    | Some s -> (
        match Net.Transport.addr_of_string s with
        | Ok a -> a
        | Error e -> usage_error e)
    | None -> Net.Transport.Unix_sock (Filename.concat run_dir "ctl.sock")
  in
  let trace_dir =
    Option.map (fun _ -> Filename.concat run_dir "trace") trace_out
  in
  let cfg =
    Net.Orchestrator.config
      ~fault:(Campaign.Schedule.to_fault sched)
      ~max_rounds ~rejoin_rounds ~watchdog_s:watchdog ~io_timeout_s:io_timeout
      ~log_dir:run_dir ?trace_dir ~node_exe:(find_node_exe node_exe) ~addr
      ~protocol ~n:(D.Spec.n spec) ~t:(D.Spec.processes spec)
      ~ckpt_dir:(Filename.concat run_dir "ckpt") ()
  in
  let res = Net.Orchestrator.run cfg in
  (match (trace_out, trace_dir) with
  | Some out, Some dir ->
      let merged = Filename.concat dir "trace.jsonl" in
      if Sys.file_exists merged then write_file out (read_file merged)
      else Printf.eprintf "net: no merged trace at %s\n%!" merged
  | _ -> ());
  if keep_dir then Printf.eprintf "run dir kept: %s\n%!" run_dir
  else rm_rf run_dir;
  (cfg, res, net_runner_report spec ~protocol res)

let net_run_cmd =
  let proto_arg =
    Arg.(value & opt string "a+rec" & info [ "p"; "protocol" ]
         ~doc:"Protocol to deploy: $(b,a), $(b,b), $(b,a+rec) or $(b,b+rec).")
  in
  let run proto n t crashes restarts node_exe addr watchdog io_timeout
      rejoin_rounds max_rounds keep_dir diff report_fmt trace_out =
    let protocol =
      match net_protocol_of_name proto with
      | Some p -> p
      | None ->
          usage_error
            ("net-run: unknown protocol " ^ proto ^ " (a, b, a+rec, b+rec)")
    in
    let recovery = protocol = "a+rec" || protocol = "b+rec" in
    if restarts <> [] && not recovery then
      usage_error "net-run: --restarts needs a recovery protocol (a+rec or b+rec)";
    let spec = make_spec ~n ~t in
    let entry mode (victim, at) = { Campaign.Schedule.victim; at; mode } in
    let sched =
      Campaign.Schedule.make
        ~meta:
          [ ("protocol", protocol); ("n", string_of_int n); ("t", string_of_int t) ]
        (List.map (entry Campaign.Schedule.Silent) crashes
        @ List.map (entry Campaign.Schedule.Restart) restarts)
    in
    let fault_desc =
      match (crashes, restarts) with
      | [], [] -> "none"
      | cs, [] -> crash_desc cs
      | [], rs -> restart_desc rs
      | cs, rs -> crash_desc cs ^ "; " ^ restart_desc rs
    in
    let cfg, res, rr =
      net_execute ~node_exe ~addr ~watchdog ~io_timeout ~rejoin_rounds
        ~max_rounds ~keep_dir ~trace_out spec ~protocol sched
    in
    let correct =
      net_print_report ~report_fmt ~fault_desc ~protocol spec cfg res rr
    in
    if diff && not (net_parity cfg ~sched res) then exit 1;
    net_exit res ~ok:correct
  in
  Cmd.v
    (Cmd.info "net-run"
       ~doc:"Run a Do-All protocol as real OS processes over sockets, with SIGKILL crashes and checkpoint-recovering restarts")
    Term.(
      const run $ proto_arg $ n_arg $ t_arg $ crashes_arg $ restarts_arg
      $ node_exe_arg $ addr_arg $ watchdog_arg $ io_timeout_arg $ rejoin_arg
      $ max_rounds_arg $ keep_dir_arg $ diff_arg $ report_arg $ trace_out_arg)

let net_replay_cmd =
  let run file node_exe addr watchdog io_timeout rejoin_rounds max_rounds
      keep_dir trace_out =
    let sched = read_schedule sync_format file in
    let name = meta sync_format sched "protocol" in
    let protocol =
      match net_protocol_of_name name with
      | Some p -> p
      | None ->
          usage_error
            ("net-replay: protocol " ^ name
            ^ " has no real-process deployment (a, b, a+rec, b+rec)")
    in
    let spec = meta_spec sync_format sched in
    let cfg, res, rr =
      net_execute ~node_exe ~addr ~watchdog ~io_timeout ~rejoin_rounds
        ~max_rounds ~keep_dir ~trace_out spec ~protocol sched
    in
    Format.printf "net replay: protocol=%s n=%d t=%d schedule: %a@." protocol
      (D.Spec.n spec) (D.Spec.processes spec) Campaign.Schedule.pp sched;
    Format.printf "  %a@." D.Runner.pp rr;
    Format.printf "  outcome: %s@."
      (Net.Orchestrator.stop_to_string res.Net.Orchestrator.stop);
    let subject =
      {
        D.Fuzz.report = rr;
        audit = D.Fuzz.trace_audit ~protocol res.Net.Orchestrator.events;
      }
    in
    (* The same oracle stack a simulator replay of this schedule faces. *)
    let oracles =
      match D.Fuzz.recovery_which_of_name protocol with
      | Some which when protocol = "a+rec" || protocol = "b+rec" ->
          D.Fuzz.recovery_oracles spec which ~horizon:(sched_horizon sched)
      | _ -> D.Fuzz.oracles spec ~protocol
    in
    let oracle_failure = Campaign.first_failure oracles subject in
    (match oracle_failure with
    | None -> Format.printf "oracles: all pass@."
    | Some (oracle, detail) ->
        Format.printf "oracles: %s FAILS (%s)@." oracle detail);
    let parity_ok = net_parity cfg ~sched res in
    if oracle_failure <> None || not parity_ok then exit 1;
    net_exit res ~ok:true
  in
  Cmd.v
    (Cmd.info "net-replay"
       ~doc:"Re-run a serialized schedule against real processes, re-judge with the simulator's oracle stack, and require sim-vs-real parity, event for event")
    Term.(
      const run
      $ schedule_file_arg
          "Schedule file (from fuzz, recovery-fuzz, or hand-written)."
      $ node_exe_arg $ addr_arg $ watchdog_arg $ io_timeout_arg $ rejoin_arg
      $ max_rounds_arg $ keep_dir_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* Asynchronous real-process fleet: async-net-run + async-net-replay.
   No round-lockstep control plane: dhw_node --async peers exchange
   protocol traffic and heartbeats directly over a datagram mesh, detect
   failures organically, and the runner only spawns / SIGKILLs /
   respawns / collects. *)

let async_net_check (sched : Campaign.Async.t) =
  if sched.Campaign.Async.corrupt_bp > 0 || sched.Campaign.Async.byz <> [] then
    usage_error
      "async-net-run: corrupt/byzantine entries are not realizable over real \
       sockets";
  List.iter
    (fun (r : Campaign.Async.crash) ->
      if
        not
          (List.exists
             (fun (c : Campaign.Async.crash) ->
               c.Campaign.Async.victim = r.Campaign.Async.victim
               && c.Campaign.Async.at < r.Campaign.Async.at)
             sched.Campaign.Async.crashes)
      then
        usage_error
          (Printf.sprintf
             "async-net-run: restart %d@%d has no earlier crash of that pid"
             r.Campaign.Async.victim r.Campaign.Async.at))
    sched.Campaign.Async.restarts

(* The canonical stdout: protocol-level facts that are deterministic by
   construction for a given schedule — outcome of the oracle stack, unit
   coverage, multiplicity, work. Timing-dependent transport/detector
   counters go to the rich report only, so two replays of the same
   schedule print byte-identical canonical sections (the CI determinism
   leg cmps them). *)
let async_net_print_canonical spec sched (rep : Net.Fleet.report) =
  Format.printf "async-net: n=%d t=%d schedule: %a@." (D.Spec.n spec)
    (D.Spec.processes spec) Campaign.Async.pp sched;
  Format.printf "units-covered=%d/%d max-multiplicity=%d work=%d@."
    rep.Net.Fleet.units_covered (D.Spec.n spec) rep.Net.Fleet.max_multiplicity
    rep.Net.Fleet.total_work;
  Format.printf
    "oracles: completed=%b no-lost-unit=%b detector-complete=%b \
     bounded-duplication=%b@."
    rep.Net.Fleet.completed rep.Net.Fleet.no_lost_unit
    rep.Net.Fleet.detector_complete rep.Net.Fleet.bounded_dup;
  Format.printf "verdict: %s@."
    (if rep.Net.Fleet.ok then "all oracles pass" else "ORACLE FAILURE")

let async_net_rich_report ~report_fmt spec sched (rep : Net.Fleet.report) =
  let transport_totals =
    List.fold_left
      (fun (ds, rt, ab, by, dg, un) (nr : Net.Fleet.node_report) ->
        let c = Net.Fleet.counter nr.Net.Fleet.nr_counters in
        ( ds + c "data_sent",
          rt + c "retransmits",
          ab + c "abandoned",
          by + c "byes_sent",
          dg + c "dg_sent",
          un + c "undeliverable" ))
      (0, 0, 0, 0, 0, 0) rep.Net.Fleet.nodes
  in
  let detector_totals =
    List.fold_left
      (fun (su, fs, us, pk) (nr : Net.Fleet.node_report) ->
        let c = Net.Fleet.counter nr.Net.Fleet.nr_counters in
        ( su + c "suspicions",
          fs + c "false_suspicions",
          us + c "unsuspects",
          pk + c "parks" ))
      (0, 0, 0, 0) rep.Net.Fleet.nodes
  in
  match report_fmt with
  | `Text ->
      let ds, rt, ab, by, dg, un = transport_totals in
      Format.printf
        "transport: data=%d retransmits=%d abandoned=%d byes=%d datagrams=%d \
         undeliverable=%d wall=%.2fs@."
        ds rt ab by dg un rep.Net.Fleet.wall_s;
      let su, fs, us, pk = detector_totals in
      Format.printf
        "detector: suspicions=%d false=%d unsuspects=%d parks=%d@." su fs us
        pk;
      let h = rep.Net.Fleet.detect_hist in
      if Dhw_util.Hist.count h > 0 then
        Format.printf "detection latency (ticks): p50=%d p99=%d max=%d@."
          (Dhw_util.Hist.quantile h 0.5)
          (Dhw_util.Hist.quantile h 0.99)
          (Dhw_util.Hist.max_value h);
      let h = rep.Net.Fleet.recover_hist in
      if Dhw_util.Hist.count h > 0 then
        Format.printf
          "false-suspicion recovery latency (ticks): p50=%d p99=%d max=%d@."
          (Dhw_util.Hist.quantile h 0.5)
          (Dhw_util.Hist.quantile h 0.99)
          (Dhw_util.Hist.max_value h)
  | `Json ->
      let ds, rt, ab, by, dg, un = transport_totals in
      let su, fs, us, pk = detector_totals in
      let node_json (nr : Net.Fleet.node_report) =
        J.Obj
          [
            ("pid", J.Int nr.Net.Fleet.nr_pid);
            ("incarnations", J.Int nr.Net.Fleet.nr_incarnations);
            ( "exit",
              match nr.Net.Fleet.nr_exit with
              | None -> J.Null
              | Some c -> J.Int c );
            ( "counters",
              J.Obj
                (List.map
                   (fun (k, v) -> (k, J.Int v))
                   nr.Net.Fleet.nr_counters) );
          ]
      in
      print_endline
        (J.to_string
           (J.Obj
              [
                ("kind", J.Str "async-net");
                ("protocol", J.Str "async-a");
                ("n", J.Int (D.Spec.n spec));
                ("t", J.Int (D.Spec.processes spec));
                ("schedule", J.Str (Fmt.str "%a" Campaign.Async.pp sched));
                ("ok", J.Bool rep.Net.Fleet.ok);
                ("completed", J.Bool rep.Net.Fleet.completed);
                ("no_lost_unit", J.Bool rep.Net.Fleet.no_lost_unit);
                ("detector_complete", J.Bool rep.Net.Fleet.detector_complete);
                ("bounded_duplication", J.Bool rep.Net.Fleet.bounded_dup);
                ("units_covered", J.Int rep.Net.Fleet.units_covered);
                ("max_multiplicity", J.Int rep.Net.Fleet.max_multiplicity);
                ("work", J.Int rep.Net.Fleet.total_work);
                ("kills", J.Int rep.Net.Fleet.kills);
                ("restarts", J.Int rep.Net.Fleet.restarts);
                ("wall_s", J.Float rep.Net.Fleet.wall_s);
                ( "transport",
                  J.Obj
                    [
                      ("data_sent", J.Int ds);
                      ("retransmits", J.Int rt);
                      ("abandoned", J.Int ab);
                      ("byes_sent", J.Int by);
                      ("datagrams_sent", J.Int dg);
                      ("undeliverable", J.Int un);
                    ] );
                ( "detector",
                  J.Obj
                    [
                      ("suspicions", J.Int su);
                      ("false_suspicions", J.Int fs);
                      ("unsuspects", J.Int us);
                      ("parks", J.Int pk);
                      ( "detection_latency_ticks",
                        Dhw_util.Hist.to_json rep.Net.Fleet.detect_hist );
                      ( "recovery_latency_ticks",
                        Dhw_util.Hist.to_json rep.Net.Fleet.recover_hist );
                    ] );
                ("nodes", J.Arr (List.map node_json rep.Net.Fleet.nodes));
              ]))

(* The sim side of --diff: the same schedule through the asynchronous
   simulator (which treats every crash as final — restarts are a
   real-fleet notion). Work and unit coverage are the protocol-level
   measures both sides must agree on; message counts are timing-dependent
   on a real network and deliberately excluded. *)
let async_net_parity spec sched (rep : Net.Fleet.report) =
  let subject = AF.run_schedule spec sched in
  let sim_work =
    Simkit.Metrics.work subject.AF.result.Asim.Event_sim.metrics
  in
  let sim_units =
    match Campaign.first_failure [ AF.no_lost_unit ] subject with
    | None -> D.Spec.n spec
    | Some _ -> -1
  in
  List.filter_map
    (fun (name, s, r) ->
      if s = r then None else Some (Printf.sprintf "%s: sim=%d real=%d" name s r))
    [
      ("work", sim_work, rep.Net.Fleet.total_work);
      ("units", sim_units, rep.Net.Fleet.units_covered);
    ]

let async_net_exit (rep : Net.Fleet.report) ~parity =
  if rep.Net.Fleet.watchdog_fired then exit 4;
  if
    List.exists
      (fun (nr : Net.Fleet.node_report) -> nr.Net.Fleet.nr_exit = Some 3)
      rep.Net.Fleet.nodes
  then exit 3;
  if (not rep.Net.Fleet.ok) || parity <> [] then exit 1

(* Shared by async-net-run and async-net-replay. *)
let async_net_execute ~node_exe ~watchdog ~tick_ms ~max_ticks ~keep_dir
    ~trace_out ~diff ~report_fmt spec sched =
  async_net_check sched;
  let run_dir = fresh_run_dir () in
  let cfg =
    Net.Fleet.config ~tick_ms ~watchdog_s:watchdog ~max_ticks ~dir:run_dir
      ~node_exe:(find_node_exe node_exe) ~spec ~sched ()
  in
  let rep = Net.Fleet.run cfg in
  (match trace_out with
  | Some out ->
      Dhw_util.Spanfile.write_file
        ~meta:
          [
            ("protocol", J.Str "async-a");
            ("n", J.Int (D.Spec.n spec));
            ("t", J.Int (D.Spec.processes spec));
          ]
        ~source:"fleet" out rep.Net.Fleet.spans
  | None -> ());
  if keep_dir then Printf.eprintf "run dir kept: %s\n%!" run_dir
  else rm_rf run_dir;
  async_net_print_canonical spec sched rep;
  let parity =
    if diff then begin
      let ms = async_net_parity spec sched rep in
      (match ms with
      | [] -> Format.printf "diff: sim and real runs agree on work and units@."
      | ms ->
          Format.printf "diff: sim-vs-real MISMATCH (%s)@."
            (String.concat "; " ms));
      ms
    end
    else []
  in
  (match report_fmt with
  | `Text -> async_net_rich_report ~report_fmt:`Text spec sched rep
  | `Json -> async_net_rich_report ~report_fmt:`Json spec sched rep);
  async_net_exit rep ~parity

let tick_ms_arg =
  Arg.(value
       & opt int Net.Async_node.default_tick_ms
       & info [ "tick-ms" ] ~docv:"MS"
           ~doc:"Wall-clock quantum one protocol tick maps to.")

let max_ticks_arg =
  Arg.(value & opt int 20_000 & info [ "max-ticks" ]
       ~doc:"Per-node stall bound in ticks.")

let sever_conv =
  let parse s =
    (* SRC>DST@FROM-TO *)
    match String.split_on_char '@' s with
    | [ link; window ] -> (
        match
          (String.split_on_char '>' link, String.split_on_char '-' window)
        with
        | [ a; b ], [ f; t ] -> (
            try Ok (int_of_string a, int_of_string b, int_of_string f, int_of_string t)
            with _ -> Error (`Msg "expected SRC>DST@FROM-TO"))
        | _ -> Error (`Msg "expected SRC>DST@FROM-TO"))
    | _ -> Error (`Msg "expected SRC>DST@FROM-TO")
  in
  let print ppf (a, b, f, t) = Format.fprintf ppf "%d>%d@@%d-%d" a b f t in
  Arg.conv (parse, print)

let async_net_run_cmd =
  let drop_arg =
    Arg.(value & opt int 0 & info [ "drop" ] ~docv:"BP"
         ~doc:"Per-message loss probability in basis points (3000 = 30%).")
  in
  let dup_arg =
    Arg.(value & opt int 0 & info [ "dup" ] ~docv:"BP"
         ~doc:"Per-message duplication probability in basis points.")
  in
  let crash_arg =
    Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"PID@TICK"
         ~doc:"SIGKILL $(i,PID)'s process at $(i,TICK) (repeatable).")
  in
  let restart_arg =
    Arg.(value & opt_all crash_conv [] & info [ "restart" ] ~docv:"PID@TICK"
         ~doc:"Respawn a SIGKILLed $(i,PID) at $(i,TICK) with $(b,--recover), reading its on-disk checkpoint (repeatable).")
  in
  let sever_arg =
    Arg.(value & opt_all sever_conv [] & info [ "sever" ] ~docv:"SRC>DST@FROM-TO"
         ~doc:"Cut the directed link $(i,SRC)→$(i,DST) over the tick window (repeatable).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Also serialize the schedule to $(i,FILE) for async-net-replay.")
  in
  let run n t seed drop dup crashes restarts severs node_exe watchdog tick_ms
      max_ticks keep_dir trace_out diff report_fmt out =
    let spec = make_spec ~n ~t in
    let sched =
      Campaign.Async.make
        ~meta:
          [
            ("protocol", "async-a");
            ("n", string_of_int n);
            ("t", string_of_int t);
          ]
        ~crashes:
          (List.map (fun (p, at) -> { Campaign.Async.victim = p; at }) crashes)
        ~restarts:
          (List.map (fun (p, at) -> { Campaign.Async.victim = p; at }) restarts)
        ~drop_bp:drop ~dup_bp:dup
        ~severs:
          (List.map
             (fun (a, b, f, t) ->
               { Campaign.Async.s_src = a; s_dst = b; s_from = f; s_to = t })
             severs)
        ~seed:(Int64.of_int seed) ()
    in
    Option.iter (fun file -> write_file file (Campaign.Async.print sched)) out;
    async_net_execute ~node_exe ~watchdog ~tick_ms ~max_ticks ~keep_dir
      ~trace_out ~diff ~report_fmt spec sched
  in
  Cmd.v
    (Cmd.info "async-net-run"
       ~doc:"Run the asynchronous Protocol A as a fleet of real dhw_node processes exchanging datagrams peer-to-peer, with organic heartbeat failure detection, seeded chaos (drop/duplicate/delay/sever), real SIGKILLs and --recover respawns")
    Term.(
      const run $ n_arg $ t_arg $ seed_arg $ drop_arg $ dup_arg $ crash_arg
      $ restart_arg $ sever_arg $ node_exe_arg $ watchdog_arg $ tick_ms_arg
      $ max_ticks_arg $ keep_dir_arg $ trace_out_arg $ diff_arg $ report_arg
      $ out_arg)

let async_net_replay_cmd =
  let run file node_exe watchdog tick_ms max_ticks keep_dir trace_out diff
      report_fmt =
    let sched = read_schedule async_format file in
    let spec = meta_spec async_format sched in
    async_net_execute ~node_exe ~watchdog ~tick_ms ~max_ticks ~keep_dir
      ~trace_out ~diff ~report_fmt spec sched
  in
  Cmd.v
    (Cmd.info "async-net-replay"
       ~doc:"Re-run a serialized async schedule against a real dhw_node fleet; the canonical stdout section is deterministic for a fixed schedule, so two replays can be compared byte-for-byte")
    Term.(
      const run
      $ schedule_file_arg
          "Async schedule file (async-schedule v1, as written by async-net-run --out or async-fuzz)."
      $ node_exe_arg $ watchdog_arg $ tick_ms_arg $ max_ticks_arg $ keep_dir_arg
      $ trace_out_arg $ diff_arg $ report_arg)

let trace_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"A dhw-trace/v1 span file (per-pid, control-plane, or merged).")
  in
  let chrome_arg =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"PATH"
         ~doc:"Export Chrome trace-event JSON (open in chrome://tracing or ui.perfetto.dev) to $(i,PATH); $(b,-) writes to stdout.")
  in
  let width_arg =
    Arg.(value & opt int 64 & info [ "width" ] ~docv:"COLS"
         ~doc:"ASCII timeline width in columns.")
  in
  let run file chrome width =
    match Dhw_util.Spanfile.read_file file with
    | Error e -> usage_error ("trace: " ^ e)
    | Ok { Dhw_util.Spanfile.spans; _ } -> (
        let spans = Dhw_util.Spanfile.merge [ spans ] in
        match chrome with
        | Some path ->
            let j = J.pretty (Dhw_util.Spanfile.to_chrome spans) in
            if path = "-" then print_endline j
            else begin
              write_file path (j ^ "\n");
              Printf.printf "wrote %s (%d spans)\n" path (List.length spans)
            end
        | None -> Dhw_util.Spanfile.render ~width Format.std_formatter spans)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Render a dhw-trace/v1 span file as per-pid ASCII timelines, or export it as Chrome trace-event JSON")
    Term.(const run $ file_arg $ chrome_arg $ width_arg)

let () =
  let doc = "Do-All protocols of Dwork, Halpern and Waarts (PODC 1992)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "doall_cli" ~doc)
          [ run_cmd; timeline_cmd; ba_cmd; async_cmd; shmem_cmd; bootstrap_cmd;
            fuzz_cmd; replay_cmd; recovery_fuzz_cmd; recovery_replay_cmd;
            byz_fuzz_cmd; byz_replay_cmd; async_fuzz_cmd; async_replay_cmd;
            net_run_cmd; net_replay_cmd; async_net_run_cmd;
            async_net_replay_cmd; trace_cmd ]))
