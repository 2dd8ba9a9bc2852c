(** Crash-fault adversaries.

    A fault plan decides, online, when each process crashes and — when the
    crash happens during a round in which the victim was acting — how much of
    that round's output survives. This realises the paper's adversary: "If
    process 0 crashes in the middle of a broadcast, we assume only that some
    subset of the processes receive the message", and the work-lower-bound
    adversary that kills a process "immediately after performing a unit of
    work, before reporting that unit to any other process". *)

open Types

type delivery =
  | All  (** the whole send list leaves the process *)
  | Prefix of int  (** only the first [k] sends leave *)
  | Indices of int list  (** an arbitrary subset, by position in the list *)

type decision =
  | Survive
  | Crash of { keep_work : bool; delivery : delivery }
      (** crash during this round. [keep_work = true] means the round's work
          units were performed before the crash (the classic
          "did the work, died before telling anyone"). Within a round work
          precedes sends in program order, so the kernel forces
          [keep_work = true] whenever [delivery] lets at least one message
          out. *)

val split_delivery : delivery -> 'a list -> 'a list * 'a list
(** [split_delivery d sends] is the [(delivered, dropped)] split a crash's
    [delivery] makes of the victim's round of sends, each part in send
    order. Shared by the kernel and the real-process orchestrator. *)

type tamper_kind =
  | Lying_view  (** claim a later/terminal view than reality *)
  | Replay_stale  (** re-send a stale (earlier) checkpoint view *)
  | Inflate_done  (** bump a genuine view's done-count upward *)

type tamper = { t_kind : tamper_kind; t_salt : int }
(** One corruption action: what lie to tell plus a salt seeding the exact
    forged payload (the protocol-specific tamper model interprets both, see
    [Kernel.tamper_model]). *)

val tamper_kind_to_string : tamper_kind -> string
(** ["lying-view"] / ["replay-stale"] / ["inflate-done"] — the schedule
    file syntax. *)

val tamper_kind_of_string : string -> tamper_kind option

type step_view = {
  sv_pid : pid;
  sv_round : round;
  sv_sends : int;  (** number of messages the victim is about to emit *)
  sv_works : int;  (** number of work units it is about to perform *)
  sv_terminating : bool;
  sv_works_done_before : int;  (** cumulative units this process performed in
                                   earlier rounds — lets adversaries target
                                   "after k units" *)
}

type t

val none : t
(** No process ever crashes. *)

val is_trivial : t -> bool
(** True only for plans that are statically known to never do anything:
    no crashes, no restarts, no corruption, no Byzantine subversion
    ({!none}, or degenerate constructions such as {!crash_silently_at}[ []]).
    The kernel then skips {!on_step} (and the {!step_view} it would build)
    for every step. A [false] answer is always safe. *)

val crash_silently_at : (pid * round) list -> t
(** Each listed process is dead from the start of the given round: it takes
    no action in that round or later. Duplicate pids keep the earliest
    round. *)

val crash_acting_at : (pid * round * decision) list -> t
(** Each listed process survives strictly below its round, then the given
    decision applies at the first round [>= r] in which it acts. A process
    that never acts at or after [r] is never crashed: it simply stays
    asleep. *)

val dynamic : (step_view -> decision) -> t
(** Fully online adversary: consulted every time any process acts; once it
    returns [Crash _] for a pid, that pid is dead forever. *)

val random :
  seed:int64 -> t:int -> victims:int -> window:round -> t
(** Picks [victims] distinct victims among the [t] processes (so at least one
    survives — [victims < t] is enforced) and, for each, a uniform crash
    round in [\[0, window\]] plus a uniform small prefix cut applied if the
    victim is acting at that round. Deterministic in [seed]. *)

val crash_active_after_random_work :
  seed:int64 -> min_units:int -> max_units:int -> max_crashes:int -> t
(** Like {!crash_active_after_work} but with the gap between crashes drawn
    uniformly from [\[min_units, max_units\]], so crashes land at arbitrary
    positions inside checkpoint intervals. *)

val crash_active_after_work :
  units_between_crashes:int -> max_crashes:int -> t
(** The work-wasting adversary used by the benches: watches which process is
    performing work, and kills it right after it has performed
    [units_between_crashes] further units (keeping the work, dropping all of
    that round's messages), up to [max_crashes] victims. *)

val custom :
  ?restarts:(pid * round) list ->
  ?on_restart:(pid -> round -> unit) ->
  ?corrupts:(pid -> round -> tamper option) ->
  ?byzantine_from:(pid -> round option) ->
  silent_from:(pid -> round option) ->
  on_step:(step_view -> decision) ->
  unit ->
  t
(** General constructor combining silent deaths with an online acting-crash
    rule — the building block for plans (such as
    {!Campaign.Schedule.to_fault}) that mix both kinds of entry.
    [silent_from pid] is the round from which [pid]'s current incarnation
    is silently dead ([None]: never); the kernel reads it when the run
    starts and again after each committed revival of [pid], and crashes the
    pid at the first processed round at or after it. Crashes committed by
    [on_step] need no [silent_from] entry: the kernel records them through
    {!note_crash}.

    [restarts] is the crash–recovery extension: a static schedule of
    [(pid, round)] revivals the kernel applies to pids that are down at the
    scheduled round (entries for up or terminated pids are dropped — the
    adversary cannot restart what is not crashed). [on_restart] is invoked
    when the kernel commits a revival, before [silent_from] is re-read, so
    stateful plans can advance to their next crash cycle. A plan whose
    [silent_from]/[on_step] ignore revivals would re-kill the new
    incarnation instantly; use {!with_restarts} to mask a static plan, or
    handle [on_restart].

    [corrupts] is the message-tampering extension: consulted by the kernel
    when a surviving process is about to emit messages (only when the run
    carries a tamper model); answering [Some tamper] spends that corruption —
    the query is consuming, so one-shot entries answer once. [byzantine_from]
    marks pids the adversary controls outright from a round on (see
    [Kernel]'s Byzantine execution rules). *)

val with_restarts : (pid * round) list -> t -> t
(** [with_restarts restarts base]: the base plan plus a restart schedule.
    From each pid's first revival on, the base plan is masked for that pid
    (it survives and never re-crashes) — one crash/restart cycle per pid.
    Multi-cycle schedules are built via {!custom} with [on_restart] (see
    [Campaign.Schedule.to_fault]). *)

(** {1 Kernel interface} — used by {!Kernel}, not by protocol code. *)

val silent_from : t -> pid -> round option
(** The round from which [pid] is (silently) dead: the plan's own
    [silent_from], or the round after a crash the kernel committed,
    whichever is earlier. Read by the kernel at start-up and after each
    revival. *)

val crashed_by : t -> pid -> round -> bool
(** Is [pid] (silently) dead at round [r]? Derived from {!silent_from};
    consulted before stepping by round sweeps that visit every pid. *)

val on_step : t -> step_view -> decision
(** Consulted when a live process is about to commit a round's outcome:
    the plan's decision alone. Precondition: the caller has ruled out a
    pid for which {!crashed_by} holds at that round — {!Kernel} crashes
    such a pid at its {!silent_from} event before it could step, and round
    sweeps ask {!crashed_by} first. *)

val note_crash : t -> pid -> round -> unit
(** Kernel informs the plan that it committed the crash (so that
    {!silent_from} and {!crashed_by} stay consistent for all plan kinds). *)

val restarts : t -> (pid * round) list
(** The plan's static restart schedule, in no particular order; the kernel
    sorts and consumes it. *)

val corrupts : t -> pid -> round -> tamper option
(** Should [pid]'s outgoing messages of round [r] be tampered with? A [Some]
    answer consumes the corruption entry, so call it at most once per
    (pid, round) and only when the tampering will actually be applied. *)

val byzantine_from : t -> pid -> round option
(** The round from which [pid] is adversary-controlled, if any. Static for
    the whole run. *)

val note_restart : t -> pid -> round -> unit
(** Kernel informs the plan that it committed a revival at [round]: the
    committed-crash record for the pid is forgotten (a later crash of the
    same pid re-records) and the plan's [on_restart] hook runs. *)
