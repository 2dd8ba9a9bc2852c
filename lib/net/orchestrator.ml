open Simkit.Types
module Kernel = Simkit.Kernel
module Metrics = Simkit.Metrics
module Obs = Simkit.Obs

type config = {
  node_exe : string;
  addr : Transport.addr;
  protocol : string;
  n : int;
  t : int;
  fault : Simkit.Fault.t;
  ckpt_dir : string;
  log_dir : string option;
  rejoin_rounds : int;
  watchdog_s : float;
  io_timeout_s : float;
  max_rounds : int;
  trace_dir : string option;
  seed : int64;  (* drives the nodes' connect-retry jitter *)
}

let config ?(fault = Simkit.Fault.none) ?(max_rounds = 10_000) ?(rejoin_rounds = 3)
    ?(watchdog_s = 60.) ?(io_timeout_s = 10.) ?log_dir ?trace_dir
    ?(seed = 1L) ~node_exe ~addr ~protocol ~n ~t ~ckpt_dir () =
  {
    node_exe;
    addr;
    protocol;
    n;
    t;
    fault;
    ckpt_dir;
    log_dir;
    rejoin_rounds;
    watchdog_s;
    io_timeout_s;
    max_rounds;
    trace_dir;
    seed;
  }

type stop =
  | Completed
  | Stalled of round
  | Round_limit of round
  | Watchdog of round
  | Node_failure of round * string

let stop_to_string = function
  | Completed -> "completed"
  | Stalled r -> Printf.sprintf "stalled@%d" r
  | Round_limit r -> Printf.sprintf "round-limit@%d" r
  | Watchdog r -> Printf.sprintf "watchdog@%d" r
  | Node_failure (r, msg) -> Printf.sprintf "node-failure@%d: %s" r msg

let to_run_outcome = function
  | Completed -> Kernel.Completed
  | Stalled r -> Kernel.Stalled r
  | Round_limit r -> Kernel.Round_limit r
  | Watchdog r -> Kernel.Round_limit r
  | Node_failure (r, _) -> Kernel.Stalled r

type result = {
  metrics : Metrics.t;
  statuses : status array;
  stop : stop;
  events : Obs.event list;
  transport : Transport.stats;
  spawns : int;
  kills : int;
  respawns : int;
  wall_s : float;
}

let transport_json cfg res =
  let s = res.transport in
  [
    ( "transport",
      Dhw_util.Jsonw.Obj
        [
          ("connects", Dhw_util.Jsonw.Int s.Transport.connects);
          ("retries", Dhw_util.Jsonw.Int s.Transport.retries);
          ("timeouts", Dhw_util.Jsonw.Int s.Transport.timeouts);
          ("frames_sent", Dhw_util.Jsonw.Int s.Transport.frames_sent);
          ("frames_received", Dhw_util.Jsonw.Int s.Transport.frames_received);
          ("bytes_sent", Dhw_util.Jsonw.Int s.Transport.bytes_sent);
          ("bytes_received", Dhw_util.Jsonw.Int s.Transport.bytes_received);
          ("spawns", Dhw_util.Jsonw.Int res.spawns);
          ("kills", Dhw_util.Jsonw.Int res.kills);
          ("respawns", Dhw_util.Jsonw.Int res.respawns);
          ("io_timeout_s", Dhw_util.Jsonw.Float cfg.io_timeout_s);
          ("watchdog_s", Dhw_util.Jsonw.Float cfg.watchdog_s);
          ("wall_s", Dhw_util.Jsonw.Float res.wall_s);
        ] );
  ]

(* One participant process, across its incarnations. *)
type node = {
  npid : pid;
  mutable os_pid : int;  (* -1 when no live child *)
  mutable fd : Unix.file_descr option;
  mutable incarnation : int;
}

(* A message as the kernel carries it between nodes: the node-encoded
   payload and the node-rendered tag, which is the kernel's [show]. *)
type msg = { bytes : string; tag : string }

exception Bad_node of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad_node s)) fmt

let known_protocols = [ "a"; "b"; "a+rec"; "b+rec" ]

let run cfg =
  if cfg.t <= 0 then invalid_arg "Orchestrator.run: need at least one process";
  if not (List.mem cfg.protocol known_protocols) then
    invalid_arg (Printf.sprintf "Orchestrator.run: unknown protocol %S" cfg.protocol);
  let started = Unix.gettimeofday () in
  let deadline = started +. cfg.watchdog_s in
  let stats = Transport.stats () in
  let record, recorded = Obs.memory () in
  let metrics = Metrics.create ~n_processes:cfg.t ~n_units:cfg.n in
  let statuses = Array.make cfg.t Running in
  let spawns = ref 0 and kills = ref 0 and respawns = ref 0 in
  if not (Sys.file_exists cfg.ckpt_dir) then Unix.mkdir cfg.ckpt_dir 0o755;
  (match cfg.log_dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  (match cfg.trace_dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  (* Control-plane spans: the kernel's round/step/deliver spans plus
     zero-length spawn/kill/respawn marks, merged with the nodes' per-pid
     trace files after the run. Inert without a trace_dir. *)
  let tracing = cfg.trace_dir <> None in
  let spans, ctl_spans = Obs.span_collector ~src:"ctl" () in
  let mark name ~pid ~inc ~round =
    if tracing then begin
      let ts_us = Dhw_util.Clock.now_us () in
      spans (Obs.Span_begin { name; pid; at = round; inc; ts_us });
      spans (Obs.Span_end { name; pid; at = round; inc; ts_us })
    end
  in
  let listen_fd = Transport.listen cfg.addr in
  let bound = Transport.bound_addr cfg.addr listen_fd in
  let nodes =
    Array.init cfg.t (fun pid -> { npid = pid; os_pid = -1; fd = None; incarnation = 0 })
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let io_left () =
    (* An RPC may not sleep past the watchdog. *)
    Float.max 0.05 (Float.min cfg.io_timeout_s (deadline -. Unix.gettimeofday ()))
  in
  let node_log nd =
    match cfg.log_dir with
    | None -> (Unix.stdout, Unix.stderr, fun () -> ())
    | Some d ->
        let f =
          Unix.openfile
            (Filename.concat d (Printf.sprintf "node-%d.log" nd.npid))
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
            0o644
        in
        (f, f, fun () -> Transport.close_noerr f)
  in
  let spawn nd ~recover_at =
    let base =
      [
        cfg.node_exe;
        "--addr"; Transport.addr_to_string bound;
        "--pid"; string_of_int nd.npid;
        "--protocol"; cfg.protocol;
        "-n"; string_of_int cfg.n;
        "-t"; string_of_int cfg.t;
        "--ckpt-dir"; cfg.ckpt_dir;
        "--rejoin-rounds"; string_of_int cfg.rejoin_rounds;
        "--incarnation"; string_of_int nd.incarnation;
        "--seed"; Int64.to_string cfg.seed;
      ]
    in
    let base =
      match cfg.trace_dir with
      | Some d -> base @ [ "--trace-dir"; d ]
      | None -> base
    in
    let argv =
      match recover_at with
      | None -> base
      | Some r -> base @ [ "--recover"; "--recover-at"; string_of_int r ]
    in
    let out, err, close_log = node_log nd in
    let os_pid =
      Fun.protect ~finally:close_log (fun () ->
          Unix.create_process cfg.node_exe (Array.of_list argv) devnull out err)
    in
    nd.os_pid <- os_pid;
    mark "spawn" ~pid:nd.npid ~inc:nd.incarnation
      ~round:(Option.value ~default:0 recover_at);
    incr spawns
  in
  let close_conn nd =
    match nd.fd with
    | Some fd ->
        Transport.close_noerr fd;
        nd.fd <- None
    | None -> ()
  in
  let kill nd =
    if nd.os_pid > 0 then begin
      (try Unix.kill nd.os_pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] nd.os_pid) with Unix.Unix_error _ -> ());
      nd.os_pid <- -1
    end;
    close_conn nd
  in
  (* Graceful: ask the node to exit, give it a moment, then make sure. *)
  let shutdown nd =
    (match nd.fd with
    | Some fd -> (
        try Transport.send_frame ~stats ~timeout_s:1.0 fd Frame.Shutdown
        with Transport.Timeout _ | Transport.Closed _ | Unix.Unix_error _ -> ())
    | None -> ());
    close_conn nd;
    if nd.os_pid > 0 then begin
      let rec wait tries =
        match Unix.waitpid [ Unix.WNOHANG ] nd.os_pid with
        | 0, _ ->
            if tries <= 0 then (
              (try Unix.kill nd.os_pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] nd.os_pid))
            else begin
              ignore (Unix.select [] [] [] 0.02);
              wait (tries - 1)
            end
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      wait 100;
      nd.os_pid <- -1
    end
  in
  let cleanup () =
    Array.iter kill nodes;
    Transport.close_noerr listen_fd;
    Transport.close_noerr devnull;
    match cfg.addr with
    | Transport.Unix_sock p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Transport.Tcp _ -> ()
  in
  (* The round of the latest step or revival, for a stop the kernel does
     not report. *)
  let cur = ref 0 in
  let check_watchdog r =
    cur := r;
    if Unix.gettimeofday () > deadline then raise (Transport.Timeout "watchdog")
  in
  (* Accept [nd]'s connection and check its Hello: the node's wakeup. *)
  let accept_hello nd ~welcome_round =
    let conn = Transport.accept ~timeout_s:(io_left ()) ~stats listen_fd in
    nd.fd <- Some conn;
    match Transport.recv_frame ~stats ~timeout_s:(io_left ()) conn with
    | Frame.Hello h ->
        if h.pid <> nd.npid then bad "expected hello from pid %d, got %d" nd.npid h.pid;
        if h.protocol <> cfg.protocol || h.n <> cfg.n || h.t <> cfg.t then
          bad "pid %d hello mismatch: %s n=%d t=%d (want %s n=%d t=%d)" h.pid
            h.protocol h.n h.t cfg.protocol cfg.n cfg.t;
        if h.incarnation <> nd.incarnation then
          bad "pid %d hello incarnation %d, expected %d" h.pid h.incarnation
            nd.incarnation;
        (match h.wakeup with
        | Some w when w < 0 -> bad "pid %d negative wakeup" h.pid
        | _ -> ());
        Transport.send_frame ~stats ~timeout_s:(io_left ()) conn
          (Frame.Welcome { round = welcome_round });
        h.wakeup
    | f -> bad "expected hello, got %a" Frame.pp f
  in
  (* The remote process: its state lives in the node, [init]/[recover]
     launch an incarnation and [step] is one Round_start/Step_result
     exchange. *)
  let init pid =
    let nd = nodes.(pid) in
    spawn nd ~recover_at:None;
    ((), accept_hello nd ~welcome_round:0)
  in
  let recover pid r =
    check_watchdog r;
    let nd = nodes.(pid) in
    nd.incarnation <- nd.incarnation + 1;
    spawn nd ~recover_at:(Some r);
    incr respawns;
    mark "respawn" ~pid ~inc:nd.incarnation ~round:r;
    ((), accept_hello nd ~welcome_round:r)
  in
  let step pid r () (inbox : msg envelope list) =
    check_watchdog r;
    let fd =
      match nodes.(pid).fd with Some fd -> fd | None -> bad "pid %d has no connection" pid
    in
    let inbox =
      List.map
        (fun (e : msg envelope) ->
          { Frame.src = e.src; sent_at = e.sent_at; payload = e.payload.bytes })
        inbox
    in
    Transport.send_frame ~stats ~timeout_s:(io_left ()) fd
      (Frame.Round_start { round = r; inbox });
    match Transport.recv_frame ~stats ~timeout_s:(io_left ()) fd with
    | Frame.Step_result { round; sends; work; terminate; wakeup; persists } ->
        if round <> r then bad "pid %d replied for round %d at round %d" pid round r;
        (match wakeup with
        | Some w when w <= r && not terminate ->
            bad "pid %d at round %d asked for non-future wakeup %d" pid r w
        | _ -> ());
        (* Stable-storage writes happened inside the node's step: after its
           Step, before its Work, where the simulator's recovery harness
           records them. *)
        for _ = 1 to persists do
          Metrics.record_persist metrics pid r;
          record (Obs.Persist { pid; at = r })
        done;
        {
          state = ();
          sends =
            List.map
              (fun (s : Frame.send) ->
                { dst = s.dst; payload = { bytes = s.payload; tag = s.show } })
              sends;
          work;
          terminate;
          wakeup;
        }
    | f -> bad "pid %d: expected step result, got %a" pid Frame.pp f
  in
  (* The kernel's decisions, carried out on the fleet as they are recorded:
     a crash is a SIGKILL, a termination a Shutdown. *)
  let enforce = function
    | Obs.Crash { pid; at } ->
        let nd = nodes.(pid) in
        kill nd;
        incr kills;
        mark "kill" ~pid ~inc:nd.incarnation ~round:at;
        statuses.(pid) <- Crashed at
    | Obs.Terminate { pid; at } ->
        shutdown nodes.(pid);
        statuses.(pid) <- Terminated at
    | Obs.Restart { pid; _ } -> statuses.(pid) <- Running
    | _ -> ()
  in
  let kcfg =
    Kernel.config ~fault:cfg.fault ~max_rounds:cfg.max_rounds
      ~obs:(Obs.tee [ record; enforce ])
      ?spans:(if tracing then Some spans else None)
      ~show:(fun m -> m.tag) ~n_processes:cfg.t ~n_units:cfg.n ()
  in
  (* A write to a node that died outside the plan must fail as EPIPE, not
     kill this process. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let stop =
    Fun.protect
      ~finally:(fun () ->
        cleanup ();
        Sys.set_signal Sys.sigpipe sigpipe)
      (fun () ->
        match Kernel.run ~recover ~metrics kcfg { init; step; ahead = no_ahead } with
        | res -> (
            match res.Kernel.outcome with
            | Kernel.Completed -> Completed
            | Kernel.Stalled r -> Stalled r
            | Kernel.Round_limit r -> Round_limit r)
        | exception Bad_node msg -> Node_failure (!cur, msg)
        | exception Transport.Timeout msg ->
            if Unix.gettimeofday () > deadline then Watchdog !cur
            else Node_failure (!cur, "io timeout: " ^ msg)
        | exception Transport.Closed msg -> Node_failure (!cur, "connection lost: " ^ msg)
        | exception Failure msg -> Node_failure (!cur, msg)
        | exception Unix.Unix_error (e, fn, arg) ->
            Node_failure (!cur, Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))
  in
  (* Collect the trace: control-plane spans to trace-ctl.jsonl, then merge
     every per-source file (including partial ones from SIGKILLed nodes —
     the reader skips the torn final line) into one causally-ordered
     dhw-trace/v1 stream. Runs after cleanup so every node file is final. *)
  (match cfg.trace_dir with
  | None -> ()
  | Some dir ->
      let module Sf = Dhw_util.Spanfile in
      let meta =
        [
          ("protocol", Dhw_util.Jsonw.Str cfg.protocol);
          ("n", Dhw_util.Jsonw.Int cfg.n);
          ("t", Dhw_util.Jsonw.Int cfg.t);
        ]
      in
      Sf.write_file ~meta ~source:"ctl"
        (Filename.concat dir "trace-ctl.jsonl")
        (ctl_spans ());
      let parts =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               f <> "trace.jsonl"
               && String.length f > 6
               && String.sub f 0 6 = "trace-"
               && Filename.check_suffix f ".jsonl")
        |> List.sort compare
      in
      let streams =
        List.filter_map
          (fun f ->
            match Sf.read_file (Filename.concat dir f) with
            | Ok { Sf.spans; _ } -> Some spans
            | Error _ -> None)
          parts
      in
      Sf.write_file ~meta ~source:"merged"
        (Filename.concat dir "trace.jsonl")
        (Sf.merge streams));
  {
    metrics;
    statuses;
    stop;
    events = recorded ();
    transport = stats;
    spawns = !spawns;
    kills = !kills;
    respawns = !respawns;
    wall_s = Unix.gettimeofday () -. started;
  }

(* The simulator's run of the same schedule, with its own fresh fault plan
   (plans are stateful: the fleet's has been consumed), under the fleet's
   round limit and rejoin window. *)
let sim_events cfg ~sched =
  let spec = Doall.Spec.make ~n:cfg.n ~t:cfg.t in
  let fault = Simkit.Campaign.Schedule.to_fault sched in
  let obs, recorded = Obs.memory () in
  let max_rounds = cfg.max_rounds and rejoin_rounds = cfg.rejoin_rounds in
  let recovery which =
    Doall.Recovery.run ~fault ~max_rounds ~rejoin_rounds ~obs spec which
  in
  ignore
    (match cfg.protocol with
    | "a+rec" -> recovery Doall.Recovery.A
    | "b+rec" -> recovery Doall.Recovery.B
    | "a" -> Doall.Runner.run ~fault ~max_rounds ~obs spec Doall.Protocol_a.protocol
    | _ -> Doall.Runner.run ~fault ~max_rounds ~obs spec Doall.Protocol_b.protocol);
  recorded ()

let parity cfg ~sched res =
  let head = function e :: _ -> Fmt.to_to_string Obs.pp_event e | [] -> "stream ends" in
  let rec first i sim real =
    match (sim, real) with
    | [], [] -> None
    | s :: sim', r :: real' when s = r -> first (i + 1) sim' real'
    | _ -> Some (Printf.sprintf "event %d: sim %s, real %s" i (head sim) (head real))
  in
  first 0 (sim_events cfg ~sched) res.events
