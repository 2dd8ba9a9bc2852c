(** The asynchronous fleet runner: spawner, chaos-schedule enforcer and
    collector — everything the orchestrator still is once the
    round-lockstep control plane is gone.

    Nodes exchange protocol traffic and heartbeats peer-to-peer over the
    {!Mesh}; failure detection is organic ([Asim.Heartbeat] inside each
    node). This runner only (1) spawns one [dhw_node --async] per pid,
    (2) enforces the schedule's [crash] entries as real SIGKILLs and its
    [restart] entries as [--recover] respawns at the prescribed ticks,
    (3) reaps children under a wall-clock watchdog, and (4) collects
    traces, checkpoints and result files into a {!report} judged by the
    async fuzzer's oracle family. *)

type config = {
  dir : string;  (** run directory (created if missing) *)
  node_exe : string;  (** path to the [dhw_node] binary *)
  spec : Doall.Spec.t;
  sched : Simkit.Campaign.Async.t;
      (** crashes/restarts enforced by this runner; link fields become the
          nodes' {!Chaos} plan; [seed] fixes every chaos coin *)
  tick_ms : int;
  watchdog_s : float;  (** wall-clock bound on the whole run *)
  max_ticks : int;  (** per-node stall bound, passed through *)
}

val config :
  ?tick_ms:int ->
  ?watchdog_s:float ->
  ?max_ticks:int ->
  dir:string ->
  node_exe:string ->
  spec:Doall.Spec.t ->
  sched:Simkit.Campaign.Async.t ->
  unit ->
  config
(** Defaults: tick [Async_node.default_tick_ms], watchdog 90 s, max_ticks
    20_000. *)

type node_report = {
  nr_pid : int;
  nr_incarnations : int;  (** 1 + respawns *)
  nr_exit : int option;  (** [None] only for a pid killed and never respawned *)
  nr_counters : (string * int) list;
      (** the node's terminal counter bag; [[]] if it never terminated *)
}

type report = {
  ok : bool;  (** conjunction of the four oracles below *)
  completed : bool;  (** every node not left dead by the schedule exited 0 *)
  no_lost_unit : bool;  (** every unit in [0,n) performed by someone *)
  detector_complete : bool;
      (** every kill window long enough for the timeout to fire produced a
          suspicion of the victim by a survivor; a kill is excused when a
          survivor heard the bye of the incarnation it hit, since that
          incarnation had already exited 0 (or was exiting) *)
  bounded_dup : bool;  (** max multiplicity <= t + restarts *)
  units_covered : int;
  max_multiplicity : int;
  total_work : int;
  kills : int;
  restarts : int;
  wall_s : float;
  watchdog_fired : bool;
  nodes : node_report list;
  spans : Dhw_util.Spanfile.span list;  (** merged across pids/incarnations *)
  detect_hist : Dhw_util.Hist.t;
      (** kill tick → earliest surviving suspicion, in ticks; a survivor's
          suspicions stop counting toward a kill once it has logged the
          [rejoin] of a later incarnation of the victim *)
  recover_hist : Dhw_util.Hist.t;
      (** suspicion → retraction latency (false-suspicion episodes), ticks *)
}

val counter : (string * int) list -> string -> int
(** Lookup with default 0. *)

val run : config -> report
(** Execute the fleet to quiescence (all expected nodes exited, or
    watchdog). Blocking; uses SIGKILL, [waitpid] and the filesystem under
    [config.dir] only. The runner sleeps to the start of the tick of the
    next scheduled kill or restart, and polls for exited children every
    millisecond, so a kill lands at its tick and collection starts within
    a millisecond of the last exit. *)
