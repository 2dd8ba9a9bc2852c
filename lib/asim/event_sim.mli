(** Asynchronous event-driven executor with a failure-detection service
    (the "completely asynchronous system equipped with a failure detection
    mechanism" of Section 2.1 and Chandra–Toueg [7]).

    Differences from the synchronous kernel:
    - there are no rounds; each message is delivered after an
      adversary-chosen delay in [1, max_delay] ticks;
    - processes are reactive: they act on message delivery, on failure-
      detector notifications, and on self-scheduled continuations (used to
      model "one unit of work per time unit");
    - the failure-detection service notifies every live process of each
      retirement (crash or termination) after an adversary-chosen lag in
      [1, max_lag] ticks. It is {e sound} (never reports a non-retired
      process) and {e complete} (every retirement is eventually reported to
      every live process) — exactly the two properties the asynchronous
      Protocol A needs. It can be switched off ([oracle_detector = false])
      when a protocol brings its own, organically fallible detection
      ({!Asim.Heartbeat} over {!Asim.Link});
    - an optional {e link adversary} ({!type:link}) makes message delivery
      unreliable: seeded per-message loss, duplication, and
      beyond-[max_delay] delays for a designated slow set. *)

type time = int

type 'm aevent =
  | Started  (** delivered once, at the process's start tick *)
  | Got of { src : Simkit.Types.pid; payload : 'm }
  | Retired_notice of Simkit.Types.pid
      (** failure-detector notification: that process has crashed or
          terminated *)
  | Continue  (** the continuation the process scheduled *)

type ('s, 'm) aoutcome = {
  state : 's;
  sends : (Simkit.Types.pid * 'm) list;
  work : int list;
  terminate : bool;
  continue_after : int option;
      (** schedule a [Continue] this many ticks from now (>= 1) *)
}

type ('s, 'm) aproc = {
  a_init : Simkit.Types.pid -> 's;
  a_handle : Simkit.Types.pid -> time -> 's -> 'm aevent -> ('s, 'm) aoutcome;
}

type link = {
  drop_bp : int;
      (** per-message drop probability in basis points (2500 = 25%); must
          lie in [0, 9999] so delivery remains possible *)
  dup_bp : int;
      (** probability, in basis points, that a delivered message is
          delivered twice (with an independently drawn second delay) *)
  corrupt_bp : int;
      (** probability, in basis points (in [0, 9999]), that a delivered
          message is garbled in flight by the tamper model's [t_corrupt]
          before delivery; inert unless {!run} is given a [?tamper] model.
          Each corruption is counted via [Simkit.Metrics.record_corruption]
          and observed as [Obs.Tamper]. *)
  slow_set : Simkit.Types.pid list;
      (** messages to or from these processes draw their delay from
          [1, slow_factor * max_delay] instead of [1, max_delay] — the
          "unboundedly late" processes an eventually-perfect detector must
          tolerate *)
  slow_factor : int;  (** >= 1; 1 makes the slow set inert *)
  severs : (Simkit.Types.pid * Simkit.Types.pid * time * time) list;
      (** directed link cuts, as [(src, dst, from, to)]: every message from
          [src] to [dst] sent while [from <= now <= to] is dropped
          {e deterministically} — the cut consumes no adversary coin, so a
          schedule without severs runs byte-identically to one that
          predates them. Each loss still counts in {!net}'s [dropped]. *)
}

val perfect_link : link
(** No loss, no duplication, no corruption, no slow set — the pre-adversary
    behaviour. Runs under [perfect_link] are byte-identical (same seed, same
    delivery order, same metrics) to runs that predate the link adversary. *)

type 'm tamper_model = {
  t_corrupt : src:Simkit.Types.pid -> dst:Simkit.Types.pid -> at:time -> 'm -> 'm;
      (** how the link adversary garbles a message in flight (drawn with
          probability [link.corrupt_bp]); must be pure *)
  t_forge : Simkit.Types.pid -> at:time -> (Simkit.Types.pid * 'm) list;
      (** the forged salvo a Byzantine-subverted process injects at a given
          tick, as [(dst, payload)] pairs; must be pure (draw any
          randomness from a dedicated stream keyed by [(pid, at)]) so runs
          replay bit-for-bit *)
}
(** How the adversary speaks the protocol's message alphabet — the
    asynchronous counterpart of [Simkit.Kernel]'s tamper model. *)

type config = {
  n_processes : int;
  n_units : int;
  crash_at : (Simkit.Types.pid * time) list;  (** silent crashes *)
  max_delay : int;  (** message delays drawn from [1, max_delay] *)
  max_lag : int;  (** detector lags drawn from [1, max_lag] *)
  seed : int64;  (** drives the delay/lag/link adversary *)
  max_ticks : time;
  false_suspicions : (Simkit.Types.pid * Simkit.Types.pid * time) list;
      (** (observer, suspect, time): deliver a [Retired_notice suspect] to
          [observer] even though the suspect is alive — deliberately breaks
          the detector's soundness, to demonstrate why Section 2.1 demands
          it ("the mechanism must be sound"). With false suspicions two
          processes can be active at once; idempotence keeps the run
          correct, but work and messages are duplicated. *)
  link : link;
  byz : (Simkit.Types.pid * time) list;
      (** Byzantine subversions, as [(pid, from_tick)]: from its activation
          tick the process stops executing its protocol (events addressed
          to it are discarded) and instead injects the tamper model's
          [t_forge] salvo once per [max_delay] ticks, for as long as an
          honest process remains live. It never retires — {!run_outcome}
          [Completed] exempts subverted pids — and an activation shadows
          any later [crash_at] entry for the same pid. Without a [?tamper]
          model the subverted process degrades to a silent crash (no
          forged traffic), still exempt from completion. The built-in
          detection service never reports a subverted pid retired;
          Byzantine campaigns therefore run over the organic
          {!Asim.Heartbeat} detection ([oracle_detector = false]), where a
          subverted process's silenced heartbeats get it suspected. *)
  oracle_detector : bool;
      (** when [false], the built-in sound-and-complete detection service is
          silent: no [Retired_notice] is generated for real retirements, and
          processes must detect failures themselves (e.g. {!Asim.Heartbeat}
          timeouts). [false_suspicions] are injected regardless. *)
  obs : Simkit.Obs.sink option;
      (** structured event sink, fed the same events {!Simkit.Metrics}
          records, stamped with ticks instead of rounds (see
          {!Simkit.Obs}) *)
  spans : Simkit.Obs.sink option;
      (** timing sink, fed [Obs.Span_begin]/[Span_end] pairs named ["tick"]
          ([pid = -1]) around each processed tick batch and ["handle"]
          around each process event handler, stamped with
          [Dhw_util.Clock.now_us]. Separate from [obs] so the deterministic
          stream stays free of wall-clock data. *)
}

val config :
  ?crash_at:(Simkit.Types.pid * time) list ->
  ?max_delay:int ->
  ?max_lag:int ->
  ?seed:int64 ->
  ?max_ticks:time ->
  ?false_suspicions:(Simkit.Types.pid * Simkit.Types.pid * time) list ->
  ?link:link ->
  ?byz:(Simkit.Types.pid * time) list ->
  ?oracle_detector:bool ->
  ?obs:Simkit.Obs.sink ->
  ?spans:Simkit.Obs.sink ->
  n_processes:int ->
  n_units:int ->
  unit ->
  config
(** Validates every field and raises [Invalid_argument] with a descriptive
    message on: [n_processes < 1], [n_units < 0], [max_delay < 1],
    [max_lag < 1], [max_ticks < 1], a [crash_at], [false_suspicions] or
    [byz] entry naming an out-of-range pid or a negative time, [drop_bp]
    or [corrupt_bp] outside [0, 9999], [dup_bp] outside [0, 10000],
    [slow_factor < 1], or a [slow_set] pid out of range. *)

type run_outcome =
  | Completed
      (** every process retired (crashed or terminated); Byzantine-subverted
          pids — which never retire — are exempt *)
  | Stalled of time
      (** live processes remain but the event queue ran dry — no pending
          delivery, continuation, crash or notice could ever wake them: an
          algorithm (or detector) liveness bug. The payload is the last
          tick at which anything happened. *)
  | Tick_limit of time  (** the [max_ticks] guard fired *)

type net = {
  sent : int;  (** protocol messages handed to the link (valid dst) *)
  dropped : int;  (** messages the link adversary lost *)
  duplicated : int;  (** extra copies the link adversary delivered *)
}

type result = {
  metrics : Simkit.Metrics.t;  (** rounds = final tick *)
  statuses : Simkit.Types.status array;
  outcome : run_outcome;
  net : net;
}

val completed : result -> bool
(** [outcome = Completed]. *)

val pp_outcome : Format.formatter -> run_outcome -> unit

val run :
  ?metrics:Simkit.Metrics.t -> ?tamper:'m tamper_model -> config -> ('s, 'm) aproc -> result
(** [metrics] supplies the accumulator the run records into (default: a
    fresh one) — pass it when an outer harness also records into it (e.g. a
    validation layer counting rejects). [tamper] gives the corruption /
    Byzantine powers of the configuration their voice; without it
    [corrupt_bp] is inert and [byz] pids degrade to silent never-retiring
    crashes.

    Cost: the queue keeps per-tick buckets, appended in place and reused
    across ticks, so a message in flight allocates its queue item and its
    [Got] event and nothing else; adversary draws allocate nothing. [Obs]
    events are built only with [obs] armed and span closures only with
    [spans] armed. Events of one tick are delivered in the order they were
    queued. *)
