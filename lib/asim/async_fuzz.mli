(** Fault campaigns for the asynchronous substrate: seeded
    {!Simkit.Campaign.Async} schedules (crashes + link adversary) run
    through the hardened asynchronous Protocol A
    ({!Async_protocol_a.run_hardened}) and judged by an oracle stack, with
    greedy shrinking of failing schedules.

    This is the asynchronous sibling of [Doall.Fuzz]: the engine is the
    generic {!Simkit.Campaign}, only the schedule type, the execution
    function and the oracles differ. [doall_cli async-fuzz] /
    [doall_cli async-replay] expose it on the command line. *)

module C = Simkit.Campaign

type subject = {
  result : Event_sim.result;
  stats : Link.stats;  (** transport + detector observables of the run *)
  spec : Doall.Spec.t;
  schedule : C.Async.t;
}

val default_max_ticks : int
(** 50_000 — low enough to keep campaigns fast, high enough that every
    honest schedule completes with a wide margin. *)

val link_of_schedule : C.Async.t -> Event_sim.link
(** The executor link record a schedule describes (loss, duplication,
    corruption, slow set). *)

val run_schedule : ?max_ticks:int -> Doall.Spec.t -> C.Async.t -> subject
(** Execute one schedule: hardened async A (organic heartbeat detection,
    ack/retransmit links) under the schedule's crashes, link adversary,
    delay bounds and executor seed. Deterministic: equal schedules give
    equal subjects. *)

(** {1 Oracles}

    Checked in order; a campaign failure names the first violated oracle. *)

val completed : subject C.oracle
(** Liveness: the run's outcome is [Completed] — every process crashed or
    terminated within the tick budget. *)

val no_lost_unit : subject C.oracle
(** Safety: if any process terminated, every unit was performed. A
    violation means a process declared success while work was missing —
    lost messages must never masquerade as completed units. *)

val default_grace : int

val detector_complete : ?grace:int -> unit -> subject C.oracle
(** Detector completeness, judged on non-completed runs: every process
    still running at the end must have suspected every peer that retired at
    least [grace] ticks (default {!default_grace}) earlier. Judged from the
    {!Link.stats.notices} log. *)

val bounded_duplication : subject C.oracle
(** Work duplication is explained by detection: the worst unit multiplicity
    is at most [1 + k] where [k] is the number of distinct processes that
    issued any retirement notice (only a notified process can take over,
    and each process activates at most once). Reports a margin. *)

val work_cap : int -> subject C.oracle
(** [work <= cap] (non-positive caps pass trivially) — an intentionally
    breakable oracle for exercising the find -> shrink -> replay loop. *)

val oracles : ?grace:int -> unit -> subject C.oracle list
(** The standard stack: {!completed}, {!no_lost_unit},
    {!detector_complete}, {!bounded_duplication}. *)

(** {1 Campaign driver} *)

val stamp : Doall.Spec.t -> C.Async.t -> C.Async.t
(** Add replay metadata ([protocol async-a], [n], [t]). *)

val default_window : ?max_ticks:int -> Doall.Spec.t -> int
(** Crash-tick window: twice the failure-free hardened running time, plus
    slack. *)

val campaign :
  ?jobs:int ->
  ?seed:int64 ->
  ?executions:int ->
  ?window:int ->
  ?grace:int ->
  ?extra:subject C.oracle list ->
  ?max_failures:int ->
  ?shrink_budget:int ->
  ?max_ticks:int ->
  Doall.Spec.t ->
  C.Async.t C.stats
(** A seeded random campaign of [executions] (default 100) schedules from
    {!Simkit.Campaign.Async.sample}, judged by {!oracles} plus [extra],
    each failure shrunk via {!Simkit.Campaign.Async.candidates}. [jobs]
    (default {!Simkit.Pool.default_jobs}) fans execution out over a
    {!Simkit.Pool} of worker domains with byte-identical results for every
    value; {!byz_campaign} takes it with the same meaning. *)

(** {1 Corruption / Byzantine campaigns}

    The asynchronous sibling of [Doall.Fuzz]'s byz campaigns: schedules
    additionally carry in-flight corruption ([corrupt_bp]) and
    Byzantine-subverted pids; the subject is either the exposed
    {!Async_protocol_a.run_hardened} baseline or the validated
    {!Async_protocol_a.run_validated}. *)

val byz_protocol_name : Doall.Fuzz.hardening -> string
(** The meta/CLI name: ["async-a"] / ["async-a+val"]. *)

val byz_hardening_of_name : string -> Doall.Fuzz.hardening option
(** Inverse of {!byz_protocol_name}; also accepts the bare ["a"] /
    ["a+val"]. *)

val run_byz_schedule :
  ?max_ticks:int -> Doall.Spec.t -> Doall.Fuzz.hardening -> C.Async.t -> subject
(** One execution under the schedule's crashes, link adversary (including
    corruption) and Byzantine subversions, with the matching wire tamper
    model wired in. *)

val no_phantom_unit : subject C.oracle
(** Safety against lies: no process reported done while units remain
    unperformed (the phantom-termination property — same invariant as
    {!no_lost_unit}, under the corruption adversary). *)

val correct_despite_lies : subject C.oracle
(** The run completed (every honest process retired within the tick budget)
    with every unit performed. *)

val validation_overhead : Doall.Spec.t -> subject C.oracle
(** ["validation-overhead-bounded"]: total work at most one full script per
    honest (non-subverted) process — airtight, since a process activates at
    most once. The margin reported on passing runs carries the signal: the
    quorum forces about [f+1] script completions. *)

val byz_oracles :
  Doall.Spec.t -> hardening:Doall.Fuzz.hardening -> subject C.oracle list
(** {!no_phantom_unit} and {!correct_despite_lies}; the hardened stack adds
    {!validation_overhead}. The crash-campaign detector/duplication oracles
    are deliberately absent — a subverted process never retires, so their
    bookkeeping does not apply. *)

val byz_stamp :
  Doall.Spec.t -> Doall.Fuzz.hardening -> C.Async.t -> C.Async.t
(** Add replay metadata ([protocol async-a] / [async-a+val], [n], [t]). *)

val byz_campaign :
  ?jobs:int ->
  ?seed:int64 ->
  ?executions:int ->
  ?window:int ->
  ?byz:int ->
  ?extra:subject C.oracle list ->
  ?max_failures:int ->
  ?shrink_budget:int ->
  ?max_ticks:int ->
  Doall.Spec.t ->
  Doall.Fuzz.hardening ->
  C.Async.t C.stats
(** Seeded corruption/Byzantine storm: [executions] (default 200) schedules
    from {!Simkit.Campaign.Async.sample_byz} with [byz] subverted pids
    (default [t/3 - 1], clamped to [0 .. t-1]) and fault ticks in
    [0, window]. Shrinking is cost-aware ({!Simkit.Campaign.Async.cost}):
    each failure is reduced to the {e cheapest} still-failing schedule. *)
