(** Control-plane orchestrator for the real-process deployment mode.

    Runs the round-synchronous Do-All execution that [Simkit.Kernel.run]
    simulates, but with each participant living in its own OS process
    ([dhw_node]) reached over a socket: the orchestrator is the lockstep
    scheduler and message switch, the nodes hold the protocol state. Every
    structural rule of the kernel loop is reproduced — delivery of round-[r]
    sends at [r+1], idle-round skipping, pid-order stepping, per-pid inboxes
    sorted by sender, the acting-crash [keep_work || delivered <> []] rule
    and delivery filter ([Simkit.Fault.split_delivery]), restart
    applicability — and the fault plan is consulted through exactly the
    same [Simkit.Fault] kernel interface, so a schedule replayed here and
    in the simulator yields the same execution, event for event
    ({!parity}), whenever the real run is fault-free at the OS level. The
    one semantic difference: a [Crash] decision is enforced with a real
    [SIGKILL], and a [Restart] entry with a real [exec] of a fresh
    incarnation that must recover from its on-disk checkpoint. *)

type config = {
  node_exe : string;  (** path to the [dhw_node] binary *)
  addr : Transport.addr;
      (** listen address; [Tcp (h, 0)] picks an ephemeral port *)
  protocol : string;  (** "a" | "b" | "a+rec" | "b+rec" *)
  n : int;  (** work units *)
  t : int;  (** processes *)
  fault : Simkit.Fault.t;
      (** consulted exactly as the kernel does; [Corrupt]/[Byzantine]
          entries must be rejected by the caller — there is no tamper model
          over real sockets, so a Byzantine entry degrades to a silent
          crash, as in the kernel *)
  ckpt_dir : string;  (** per-pid checkpoint files live here *)
  log_dir : string option;
      (** node stdout/stderr go to [node-<pid>.log] here; inherit if [None] *)
  rejoin_rounds : int;
  watchdog_s : float;  (** wall-clock budget for the whole run *)
  io_timeout_s : float;  (** per-RPC deadline (spawn-to-hello, step, kill) *)
  max_rounds : int;
  trace_dir : string option;
      (** when set, nodes are launched with [--trace-dir] and write per-pid
          [trace-<pid>.jsonl] span files there; the orchestrator adds its
          control-plane spans as [trace-ctl.jsonl] (round, per-step RPC,
          heartbeat probes, spawn/kill/respawn marks) and, after the run,
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
      (** a node died or misbehaved outside the fault plan (unexpected EOF,
          RPC timeout, malformed frame, protocol violation) *)

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
  heartbeats : int;
      (** liveness probes sent to sleeping nodes; a probe that is not
          echoed raises [Bad_node] and stops the run, so a non-zero count
          with a clean stop means every suspicion was refuted *)
  wall_s : float;
}

val transport_json : config -> result -> (string * Dhw_util.Jsonw.t) list
(** The report's [transport] extra section: socket counters (connects,
    bounded-backoff retries, deadline timeouts, frame/byte totals) plus
    spawn/kill/respawn totals, heartbeat-probe count, the configured
    [io_timeout_s]/[watchdog_s] deadlines, and wall-clock time. *)

val run : config -> result
(** Execute. Never leaks child processes: every spawned node is killed and
    reaped before returning, whatever the stop cause. Raises
    [Invalid_argument] on a config that cannot be started (unknown
    protocol, [t <= 0]). *)

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
