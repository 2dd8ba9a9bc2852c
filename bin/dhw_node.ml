(* One Do-All participant as a real OS process.

   Spawned by the net-run orchestrator, it connects back to the control
   plane, introduces itself with a Hello frame, and then executes the
   protocol in lockstep: each Round_start carries the round number and the
   pid's inbox, each Step_result carries the sends (with their human [show]
   strings for the orchestrator's trace), the work units, the termination
   flag, the next wakeup, and the number of stable-storage writes performed
   during the step. For the recovery-hardened protocols, every stable write
   is mirrored crash-atomically to an on-disk checkpoint file, which is what
   a restarted incarnation (--recover) reads back before rejoining. *)

module T = Simkit.Types
module Rec = Doall.Recovery
module Net = Dhw_net
module Sf = Dhw_util.Spanfile
module J = Dhw_util.Jsonw

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("dhw_node: " ^ s); exit 2) fmt

type args = {
  addr : Net.Transport.addr;
  pid : int;
  protocol : string;
  n : int;
  t : int;
  ckpt_dir : string;
  rejoin_rounds : int;
  incarnation : int;
  recover : bool;
  recover_at : int;
  io_timeout_s : float;
  trace_dir : string;  (* "" = tracing off *)
  seed : int64;  (* run seed: connect-retry jitter, chaos decisions *)
}

(* Per-incarnation span sink: trace-<pid>.jsonl in --trace-dir, opened in
   append mode so a respawned incarnation extends the same file. Every span
   line is flushed as written, so a SIGKILL loses at most the line in
   flight — the orchestrator's tolerant reader skips it. *)
let trace_oc : out_channel option ref = ref None

let open_trace a =
  match a.trace_dir with
  | "" -> ()
  | dir ->
      (try
         if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
       with Unix.Unix_error _ -> ());
      let path = Filename.concat dir (Printf.sprintf "trace-%d.jsonl" a.pid) in
      let fresh =
        (not (Sys.file_exists path)) || (Unix.stat path).Unix.st_size = 0
      in
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      if fresh then
        Sf.write_header
          ~meta:[ ("pid", J.Int a.pid) ]
          ~source:(Printf.sprintf "node-%d" a.pid)
          oc;
      trace_oc := Some oc

let with_span a ~name ~round f =
  match !trace_oc with
  | None -> f ()
  | Some oc ->
      let t0 = Dhw_util.Clock.now_us () in
      let r = f () in
      let t1 = Dhw_util.Clock.now_us () in
      Sf.write_span oc
        {
          Sf.name;
          src = "node";
          pid = a.pid;
          inc = a.incarnation;
          round;
          ts_us = t0;
          dur_us = t1 -. t0;
          args = [];
        };
      r

let parse_args () =
  let addr = ref "" in
  let pid = ref (-1) in
  let protocol = ref "" in
  let n = ref 0 in
  let t = ref 0 in
  let ckpt_dir = ref "" in
  let rejoin_rounds = ref 3 in
  let incarnation = ref 0 in
  let recover = ref false in
  let recover_at = ref 0 in
  let io_timeout = ref 120.0 in
  let trace_dir = ref "" in
  let seed = ref 1L in
  let spec =
    [
      ("--addr", Arg.Set_string addr, "ADDR orchestrator address (unix:<path> or tcp:<host>:<port>)");
      ("--pid", Arg.Set_int pid, "PID protocol participant id");
      ("--protocol", Arg.Set_string protocol, "P one of a, b, a+rec, b+rec");
      ("-n", Arg.Set_int n, "N work units");
      ("-t", Arg.Set_int t, "T processes");
      ("--ckpt-dir", Arg.Set_string ckpt_dir, "DIR on-disk checkpoint directory");
      ("--rejoin-rounds", Arg.Set_int rejoin_rounds, "R state-transfer window after recovery");
      ("--incarnation", Arg.Set_int incarnation, "K 0 for first launch, +1 per restart");
      ("--recover", Arg.Set recover, " restart: resume from the on-disk checkpoint");
      ("--recover-at", Arg.Set_int recover_at, "R the revival round (with --recover)");
      ("--io-timeout", Arg.Set_float io_timeout, "S per-frame deadline in seconds");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR write dhw-trace/v1 spans to DIR/trace-<pid>.jsonl");
      ( "--seed",
        Arg.String
          (fun s ->
            match Int64.of_string_opt s with
            | Some v -> seed := v
            | None -> die "--seed: expected an integer, got %S" s),
        "S run seed (connect jitter, chaos decisions)" );
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "dhw_node: one net-run participant";
  if !addr = "" then die "--addr is required";
  if !pid < 0 then die "--pid is required";
  if !n <= 0 || !t <= 0 then die "-n and -t are required";
  if !pid >= !t then die "--pid %d out of range for t=%d" !pid !t;
  let addr =
    match Net.Transport.addr_of_string !addr with Ok a -> a | Error e -> die "%s" e
  in
  {
    addr;
    pid = !pid;
    protocol = !protocol;
    n = !n;
    t = !t;
    ckpt_dir = !ckpt_dir;
    rejoin_rounds = !rejoin_rounds;
    incarnation = !incarnation;
    recover = !recover;
    recover_at = !recover_at;
    io_timeout_s = !io_timeout;
    trace_dir = !trace_dir;
    seed = !seed;
  }

(* The per-protocol part of the node, closed over the protocol's state and
   message types: step one round, plus the initial wakeup for the Hello. *)
type session = {
  step :
    T.round ->
    Net.Frame.envelope list ->
    Net.Frame.send list * int list * bool * T.round option;
  wakeup0 : T.round option;
}

let make_session (type s m) a (proc : (s, m) T.process) ~(enc : m -> string)
    ~(dec : string -> m) ~(show : m -> string) ~(init : s * T.round option) =
  let state = ref (fst init) in
  let step r (inbox : Net.Frame.envelope list) =
    let mail =
      List.map
        (fun e ->
          { T.src = e.Net.Frame.src; sent_at = e.Net.Frame.sent_at; payload = dec e.Net.Frame.payload })
        inbox
    in
    let o = proc.T.step a.pid r !state mail in
    state := o.T.state;
    let sends =
      List.map
        (fun s -> { Net.Frame.dst = s.T.dst; payload = enc s.T.payload; show = show s.T.payload })
        o.T.sends
    in
    (sends, o.T.work, o.T.terminate, o.T.wakeup)
  in
  { step; wakeup0 = snd init }

(* Stable storage wired to disk: every committed cell write is mirrored
   crash-atomically, and counted so the Step_result can report the step's
   persists. Seeding the cell back from disk on --recover does neither. *)
let make_stable a ~persist_pending ~booting =
  let stable_ref = ref None in
  let on_write pid _at =
    if (not !booting) && pid = a.pid then begin
      incr persist_pending;
      match !stable_ref with
      | Some stable -> (
          match Simkit.Stable.read stable pid with
          | Some v ->
              with_span a ~name:"ckpt" ~round:_at (fun () ->
                  Net.Ckpt.save ~dir:a.ckpt_dir ~pid
                    (Net.Codec.encode_last v))
          | None -> ())
      | None -> ()
    end
  in
  let stable = Simkit.Stable.create ~on_write ~n_processes:a.t () in
  stable_ref := Some stable;
  stable

let seed_from_disk a stable ~booting =
  booting := true;
  (match Net.Ckpt.load ~dir:a.ckpt_dir ~pid:a.pid with
  | Some payload -> (
      match Net.Codec.decode_last payload with
      | v -> Simkit.Stable.write stable a.pid ~at:a.recover_at v
      | exception Net.Wire.Decode _ -> ())
  | None -> ());
  booting := false

let make_recovery_session a which ~persist_pending =
  let spec = Doall.Spec.make ~n:a.n ~t:a.t in
  let grid = Doall.Grid.make spec in
  let booting = ref false in
  let stable = make_stable a ~persist_pending ~booting in
  let build (type s m) (ad : (s, m) Rec.adapter) ~(enc : m -> string)
      ~(dec : string -> m) =
    let proc = Rec.harden ad ~stable in
    let init =
      if a.recover then begin
        seed_from_disk a stable ~booting;
        Rec.recover_hook stable ~rejoin_rounds:a.rejoin_rounds a.pid a.recover_at
      end
      else proc.T.init a.pid
    in
    make_session a proc ~enc:(Net.Codec.encode_rmsg enc)
      ~dec:(Net.Codec.decode_rmsg dec) ~show:(Rec.show_rmsg ad.Rec.show) ~init
  in
  match which with
  | Rec.A ->
      build (Rec.adapter_a grid) ~enc:Net.Codec.encode_ord ~dec:Net.Codec.decode_ord
  | Rec.B -> build (Rec.adapter_b grid) ~enc:Net.Codec.encode_b ~dec:Net.Codec.decode_b

let make_plain_session a ~proto =
  let spec = Doall.Spec.make ~n:a.n ~t:a.t in
  let grid = Doall.Grid.make spec in
  match proto with
  | `A ->
      let proc = Doall.Protocol_a.proc_on_grid grid in
      make_session a proc ~enc:Net.Codec.encode_ord ~dec:Net.Codec.decode_ord
        ~show:Doall.Protocol_a.show_msg ~init:(proc.T.init a.pid)
  | `B ->
      let proc = Doall.Protocol_b.proc_on_grid grid in
      make_session a proc ~enc:Net.Codec.encode_b ~dec:Net.Codec.decode_b
        ~show:Doall.Protocol_b.show_msg ~init:(proc.T.init a.pid)

(* ---- asynchronous deployment mode (--async) ------------------------------
   No control plane: the node joins the datagram mesh under [--dir],
   exchanges protocol traffic and heartbeats with its peers directly, and
   detects failures with its own ◇P monitor. The whole driver lives in
   [Dhw_net.Async_node]; this entry point only parses flags and the chaos
   schedule. *)

let async_main () =
  let dir = ref "" in
  let pid = ref (-1) in
  let units = ref 0 in
  let procs = ref 0 in
  let plan_path = ref "" in
  let tick_ms = ref Net.Async_node.default_tick_ms in
  let epoch_ms = ref 0.0 in
  let incarnation = ref 0 in
  let recover = ref false in
  let max_ticks = ref 200_000 in
  let spec =
    [
      ("--async", Arg.Unit (fun () -> ()), " asynchronous mesh mode (this mode)");
      ("--dir", Arg.Set_string dir, "DIR run directory (sockets, ckpts, traces)");
      ("--pid", Arg.Set_int pid, "PID protocol participant id");
      ("--units", Arg.Set_int units, "N work units");
      ("--procs", Arg.Set_int procs, "T fleet size");
      ("--plan", Arg.Set_string plan_path, "FILE async-schedule v1 chaos plan");
      ("--tick-ms", Arg.Set_int tick_ms, "MS wall-clock quantum per tick");
      ("--epoch-ms", Arg.Set_float epoch_ms, "MS fleet-global start (wall ms)");
      ("--incarnation", Arg.Set_int incarnation, "K 0 first launch, +1 per restart");
      ("--recover", Arg.Set recover, " resume from the on-disk checkpoint");
      ("--max-ticks", Arg.Set_int max_ticks, "T stall bound (exit 3 beyond)");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "dhw_node --async: one mesh participant";
  if !dir = "" then die "--dir is required";
  if !pid < 0 then die "--pid is required";
  if !units <= 0 || !procs <= 0 then die "--units and --procs are required";
  if !pid >= !procs then die "--pid %d out of range for procs=%d" !pid !procs;
  let plan =
    match !plan_path with
    | "" -> Net.Chaos.none
    | p -> (
        let ic = open_in p in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        match Simkit.Campaign.Async.parse s with
        | Ok sched -> Net.Chaos.of_async sched
        | Error e -> die "--plan %s: %s" p e)
  in
  let epoch_ms =
    if !epoch_ms > 0.0 then !epoch_ms else Unix.gettimeofday () *. 1000.0
  in
  let cfg =
    Net.Async_node.config ~incarnation:!incarnation ~recover:!recover
      ~tick_ms:!tick_ms ~plan ~max_ticks:!max_ticks ~dir:!dir ~pid:!pid
      ~spec:(Doall.Spec.make ~n:!units ~t:!procs)
      ~epoch_ms ()
  in
  exit (Net.Async_node.run cfg)

let main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 0));
  if Array.exists (fun a -> a = "--async") Sys.argv then async_main ();
  let a = parse_args () in
  open_trace a;
  let persist_pending = ref 0 in
  let session =
    match a.protocol with
    | "a" -> make_plain_session a ~proto:`A
    | "b" -> make_plain_session a ~proto:`B
    | "a+rec" -> make_recovery_session a Rec.A ~persist_pending
    | "b+rec" -> make_recovery_session a Rec.B ~persist_pending
    | p -> die "unknown protocol %S" p
  in
  let stats = Net.Transport.stats () in
  let jitter_prng = Dhw_util.Prng.stream a.seed (0x7e0 + a.pid) in
  let fd = Net.Transport.connect ~stats ~prng:jitter_prng a.addr in
  let send = Net.Transport.send_frame ~stats ~timeout_s:a.io_timeout_s fd in
  send
    (Net.Frame.Hello
       {
         pid = a.pid;
         protocol = a.protocol;
         n = a.n;
         t = a.t;
         incarnation = a.incarnation;
         wakeup = session.wakeup0;
       });
  (match Net.Transport.recv_frame ~stats ~timeout_s:a.io_timeout_s fd with
  | Net.Frame.Welcome _ -> ()
  | f -> die "expected welcome, got %s" (Fmt.str "%a" Net.Frame.pp f));
  let rec loop () =
    match Net.Transport.recv_frame ~stats ~timeout_s:a.io_timeout_s fd with
    | Net.Frame.Round_start { round; inbox } ->
        let sends, work, terminate, wakeup =
          with_span a ~name:"step" ~round (fun () -> session.step round inbox)
        in
        let persists = !persist_pending in
        persist_pending := 0;
        send (Net.Frame.Step_result { round; sends; work; terminate; wakeup; persists });
        loop ()
    | Net.Frame.Heartbeat { tick } ->
        send (Net.Frame.Heartbeat { tick });
        loop ()
    | Net.Frame.Shutdown -> exit 0
    | f -> die "unexpected frame %s" (Fmt.str "%a" Net.Frame.pp f)
  in
  try loop () with
  | Net.Transport.Closed _ -> exit 0
  | Net.Transport.Timeout what ->
      prerr_endline ("dhw_node: io timeout: " ^ what);
      exit 3

let () = main ()
