(** Control-plane orchestrator for the real-process deployment mode.

    Runs the round-synchronous Do-All execution with each participant
    living in its own OS process ([dhw_node]) reached over a socket. The
    execution is one [Simkit.Kernel.run] over a remote process: its state
    lives in the node, its [step] is one [Round_start]/[Step_result]
    exchange, and its [init]/[recover] launch an incarnation and take the
    wakeup from the node's [Hello]. The kernel is the lockstep scheduler and
    message switch and consults the fault plan as in any simulator run; the
    nodes hold the protocol state and take unit steps
    ([Simkit.Types.no_ahead]). The [Obs] sink that records the execution
    also carries out the kernel's decisions on the fleet: a [Crash] is a
    real [SIGKILL], a [Terminate] a [Shutdown] frame, and a revival a real
    [exec] of a fresh incarnation that must recover from its on-disk
    checkpoint. So a schedule replayed here and in the simulator yields the
    same execution, event for event ({!parity}), whenever the real run is
    fault-free at the OS level. *)

type config = {
  node_exe : string;  (** path to the [dhw_node] binary *)
  addr : Transport.addr;
      (** listen address; [Tcp (h, 0)] picks an ephemeral port *)
  protocol : string;  (** "a" | "b" | "a+rec" | "b+rec" *)
  n : int;  (** work units *)
  t : int;  (** processes *)
  fault : Simkit.Fault.t;
      (** consulted by the kernel; [Corrupt]/[Byzantine]
          entries must be rejected by the caller — there is no tamper model
          over real sockets, so a Byzantine entry degrades to a silent
          crash, as in the kernel *)
  ckpt_dir : string;  (** per-pid checkpoint files live here *)
  log_dir : string option;
      (** node stdout/stderr go to [node-<pid>.log] here; inherit if [None] *)
  rejoin_rounds : int;
  watchdog_s : float;  (** wall-clock budget for the whole run *)
  io_timeout_s : float;  (** per-RPC deadline (spawn-to-hello, step) *)
  max_rounds : int;
  trace_dir : string option;
      (** when set, nodes are launched with [--trace-dir] and write per-pid
          [trace-<pid>.jsonl] span files there; the orchestrator adds its
          control-plane spans as [trace-ctl.jsonl] (the kernel's round,
          step and deliver spans, plus zero-length spawn/kill/respawn
          marks) and, after the run,
          merges everything — including partial files from SIGKILLed nodes
          — into one causally-ordered [dhw-trace/v1] stream at
          [trace.jsonl]. [None] (the default) traces nothing. *)
  seed : int64;
      (** run seed; nodes derive their connect-retry jitter from
          [Prng.stream seed pid], so respawn reconnect timing replays
          deterministically (default [1L]) *)
}

val config :
  ?fault:Simkit.Fault.t ->
  ?max_rounds:int ->
  ?rejoin_rounds:int ->
  ?watchdog_s:float ->
  ?io_timeout_s:float ->
  ?log_dir:string ->
  ?trace_dir:string ->
  ?seed:int64 ->
  node_exe:string ->
  addr:Transport.addr ->
  protocol:string ->
  n:int ->
  t:int ->
  ckpt_dir:string ->
  unit ->
  config

type stop =
  | Completed
  | Stalled of Simkit.Types.round
  | Round_limit of Simkit.Types.round
  | Watchdog of Simkit.Types.round
      (** wall-clock budget exhausted at the given round *)
  | Node_failure of Simkit.Types.round * string
      (** a node died or misbehaved outside the fault plan (unexpected EOF
          or EPIPE at its next step or revival, RPC timeout, malformed
          frame, protocol violation) *)

val stop_to_string : stop -> string

val to_run_outcome : stop -> Simkit.Kernel.run_outcome
(** Projection for the shared oracle stack: [Watchdog] is a time-budget
    exhaustion, so it maps to [Round_limit]; [Node_failure] means the
    execution wedged for a non-adversarial reason, so it maps to [Stalled].
    The true cause stays in the {!stop} (and the report's transport
    section). *)

type result = {
  metrics : Simkit.Metrics.t;
  statuses : Simkit.Types.status array;
  stop : stop;
  events : Simkit.Obs.event list;
      (** the execution as the orchestrator observed it, in order, with
          node-supplied [show] strings as send tags: the events a simulator
          run's [Obs] sink receives, including one [Persist] per stable
          write a node reports (after its [Step], before its [Work]). The
          audit oracles replay it as they would a simulator's stream. *)
  transport : Transport.stats;
  spawns : int;  (** total node processes launched (initial + respawns) *)
  kills : int;  (** SIGKILLs delivered by the fault plan *)
  respawns : int;  (** restart entries committed with a fresh incarnation *)
  wall_s : float;
}

val transport_json : config -> result -> (string * Dhw_util.Jsonw.t) list
(** The report's [transport] extra section: socket counters (connects,
    bounded-backoff retries, deadline timeouts, frame/byte totals) plus
    spawn/kill/respawn totals, the configured
    [io_timeout_s]/[watchdog_s] deadlines, and wall-clock time. *)

val run : config -> result
(** Execute. Never leaks child processes: every spawned node is killed and
    reaped before returning or raising, whatever the stop cause. A
    [Node_failure] or [Watchdog] stop still returns the metrics, events and
    statuses seen so far. [SIGPIPE] is ignored while the run lasts (a write
    to a dead node is a [Node_failure]), then its previous handler is
    restored. Raises [Invalid_argument] on a config that cannot be started
    (unknown protocol, [t <= 0]). *)

val parity : config -> sched:Simkit.Campaign.Schedule.t -> result -> string option
(** The sim-vs-real differential. [sched] (the schedule [config.fault] was
    built from) runs through [Doall.Runner.run] (protocols ["a"]/["b"]) or
    [Doall.Recovery.run] (["a+rec"]/["b+rec"], with [config]'s
    [rejoin_rounds]) on a fresh fault plan, under [config]'s round limit,
    into an [Obs.memory] sink. [None] when that stream equals
    [result.events] event for event; otherwise the first difference, e.g.
    ["event 103: sim [r59] p0 -> p1 : (3,g2), real [r59] p0 terminates"]
    (events counted from 0). Equal streams imply equal work, messages,
    rounds, persists, restarts and crashes. *)
