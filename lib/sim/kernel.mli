(** Deterministic, event-driven executor for the synchronous model.

    The kernel advances a round counter, delivering messages sent in round
    [r] at the start of round [r+1]. A process is stepped at round [r] iff
    its inbox for [r] is non-empty or it previously asked for a wakeup at a
    round [<= r] (or is inside a range, below). Rounds in which no process
    would be stepped are skipped in O(1), so protocols with astronomically
    long timeouts (Protocol C's [2^(n+t)] deadlines) execute quickly while
    round arithmetic stays exact.

    Ranges: a process due at [r] with an empty inbox whose [ahead r]
    declares a run ({!Types.run}) is granted a range instead of a step. Its
    length is the run's, clipped to the next fault event of any live pid,
    to [max_rounds] and to what the plan grants ({!Fault.grant}); round
    [r]'s [Step]/[Work] are emitted in the pid's turn and it is due again
    when the range ends. The range's later rounds are not processed: the
    next processed round [r'] first settles every pending range (they all
    began at the same round), committing each to [Metrics] in one call,
    emitting the [Step]/[Work] events of rounds [r+1 .. r'-1] round by
    round with pids ascending, and giving a range cut short the state
    [at (r' - r)], due at [r']. Mail, restarts and fault events only happen
    in processed rounds, so they cut ranges with no check of their own.
    Every outcome settles too. Every event, status, outcome and [Metrics]
    reader is what stepping each round would give; only the count of
    processed rounds and steps, and the spans, differ (a range is one
    [step] span at its grant round).

    Faults: a silent crash ({!Fault.silent_from}) or a Byzantine activation
    ({!Fault.byzantine_from}) takes effect at the first processed round at
    or after its scheduled round, in the victim's pid-order turn; it never
    makes a round processed by itself. Only processes with something due
    are visited, so a round costs O(activity), not O(t), under every
    adversary.

    Delivery: an inbox lists its senders in increasing pid order, and one
    sender's several messages to it in the reverse of their send order
    (the stable sort by sender of an inbox collected by consing, as a
    plain round sweep delivers it). Consecutive sends of one step that
    carry the physically same payload share one immutable envelope, so
    every recipient of a broadcast receives the physically same envelope.
    A message in flight is a slot in a per-destination buffer that is
    reused from round to round; the list a step receives is built only
    when that process steps, so mail for a crashed, retired or subverted
    destination never becomes a list, and once its round is over no
    delivered envelope stays reachable from the kernel.

    Determinism: with a fixed fault plan, processes are stepped in increasing
    pid order and inboxes are ordered as above, so every run of the same
    configuration produces the identical execution. *)

open Types

type run_outcome =
  | Completed  (** every process retired (crashed or terminated) *)
  | Stalled of round
      (** live processes remain but none has a pending message or wakeup —
          a protocol liveness bug, surfaced loudly *)
  | Round_limit of round  (** the [max_rounds] guard fired *)

type 'm result = {
  metrics : Metrics.t;
  statuses : status array;
  outcome : run_outcome;
}

type 'm tamper_model = {
  mutate : Fault.tamper -> src:pid -> dst:pid -> at:round -> 'm -> 'm;
      (** corrupt one in-flight payload according to a {!Fault.tamper}
          action; must be pure (same arguments, same lie) so replays and
          parallel campaigns stay deterministic *)
  forge : pid -> at:round -> 'm send list;
      (** the messages a Byzantine [pid] emits at [at] — arbitrary but
          well-typed lies; must likewise be a pure function of its
          arguments *)
}
(** How the adversary speaks a protocol's message type. Protocol modules
    provide models (e.g. [Doall.Validate.tamper_plain]); the kernel stays
    payload-agnostic. *)

type 'm config = {
  n_processes : int;
  n_units : int;  (** sizing for per-unit multiplicity accounting *)
  fault : Fault.t;
  max_rounds : round;  (** hard abort guard; [max_int] for "no limit" *)
  obs : Obs.sink option;
      (** execution-event sink (see {!Obs}), fed every step, send, drop,
          work, crash, restart and terminate as it happens (the later
          rounds of a range when it is settled, still in execution order),
          plus a [Tamper] per corrupted payload; record a trace with
          [Obs.memory]. [None] (the default) builds no event. *)
  show : 'm -> string;
      (** payload printer for [Send]/[Drop] events' tags (unused without
          [obs]) *)
  spans : Obs.sink option;
      (** timing sink, fed only [Obs.Span_begin]/[Span_end] pairs around
          each processed round ([pid = -1]), each process step or range
          grant, and each end-of-round delivery commit, stamped with
          [Dhw_util.Clock.now_us]. Kept separate from [obs] so the
          deterministic event stream carries no wall-clock data; [None]
          (the default) costs nothing. *)
  tamper : 'm tamper_model option;
      (** enables the fault plan's [Corrupt]/[Byzantine] powers; without a
          model, corruptions are inert and Byzantine entries degrade to
          silent crashes at their activation round *)
  audit : Audit.t option;
      (** streaming invariant checker, fed every execution event [obs]
          would receive (all but [Tamper]), in the same order, as it
          happens — no event is built and no payload rendered for it. It
          allocates nothing per event; [None] (the default) costs one
          boolean test per event site. Forged Byzantine traffic is not fed:
          it reaches [obs] only as [Tamper] events. *)
  passive : 'm -> bool;
      (** which payloads an inactive process may send, for [audit]'s
          [One_active] check (see {!Audit.check}); default: none *)
}

val config :
  ?fault:Fault.t ->
  ?max_rounds:round ->
  ?obs:Obs.sink ->
  ?show:('m -> string) ->
  ?spans:Obs.sink ->
  ?tamper:'m tamper_model ->
  ?audit:Audit.t ->
  ?passive:('m -> bool) ->
  n_processes:int ->
  n_units:int ->
  unit ->
  'm config
(** Convenience constructor; defaults: no faults, [max_rounds = max_int / 2],
    no observability sink, no span sink, no tamper model, no audit
    checker.

    With a tamper model, a pid listed by {!Fault.byzantine_from} stops
    running the protocol from its activation round: each round it emits
    [forge]d messages instead (counted via [Metrics.record_corruption] and
    observed as [Obs.Tamper], never as honest sends), and it is exempt from
    the completion check — the run is [Completed] once every honest process
    retired. A surviving honest process whose round has a pending
    {!Fault.corrupts} entry has all of that round's outgoing payloads passed
    through [mutate]. Byzantine runs should set [max_rounds]: a subverted
    pid acts every round, so a liveness bug surfaces as [Round_limit]
    rather than [Stalled]. *)

val run :
  ?recover:(pid -> round -> 's * round option) ->
  ?metrics:Metrics.t ->
  'm config ->
  ('s, 'm) process ->
  'm result
(** Execute until all processes retire, a stall, or the round limit.

    Crash–recovery: if the fault plan carries a restart schedule
    ({!Fault.restarts}), each entry [(pid, rr)] revives [pid] at the start
    of the first processed round [>= rr], provided [pid] crashed strictly
    before [rr] (entries for up or terminated pids are dropped, as are
    entries at or before the pid's crash round — the adversary restarts
    machines, it does not resurrect the not-yet-dead). Revival wipes the
    volatile state and asks [recover pid r] for the rejoined state and
    wakeup; the default re-runs [proc.init pid] (amnesiac rejoin — recovery
    harnesses read stable storage instead). A wakeup [<= r] makes the
    rejoiner step in its restart round; it also receives any messages
    addressed to it in round [r - 1] (they were in flight when the machine
    came back). The run does not complete while an applicable restart entry
    is still pending, so "everyone is down but one will return" is not
    [Completed].

    [metrics] substitutes a caller-created accumulator (needed to count
    stable-storage writes from a {!Stable.create} [on_write] hook into the
    same object); by default a fresh one is created. Restarts are counted
    via {!Metrics.record_restart} and observed as [Obs.Restart].

    @raise Invalid_argument if a step returns a wakeup not strictly in the
    future. *)
