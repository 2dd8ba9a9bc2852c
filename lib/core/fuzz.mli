(** Protocol-specific instantiation of the {!Simkit.Campaign} adversary
    engine: one oracle stack per protocol (completion, the §2 correctness
    verdict, the {!Simkit.Audit} invariants, and the theorem bounds of
    {!Bounds}), plus ready-made sampled and exhaustive campaign drivers.
    No execution records a trace: the kernel feeds an audit checker as the
    run happens.

    Used by the tier-1 test suite, the E16 bench sweep, and the
    [doall_cli fuzz] / [doall_cli replay] subcommands. *)

module C := Simkit.Campaign

type subject = { report : Runner.report; audit : Simkit.Audit.t }
(** What an oracle judges: the runner's report plus the audit checker the
    kernel fed during the run, armed with the checks the matching oracle
    stack reads (none for the corruption stack). *)

val run_schedule :
  ?max_rounds:int -> Spec.t -> Protocol.t -> C.Schedule.t -> subject
(** One execution of [protocol] on [spec] under the schedule's fault plan,
    audited by [well-formed] and, for the sequential protocols (A, B, C,
    C-chunked), [one-active] and [monotone]. *)

val trace_audit : protocol:string -> Simkit.Trace.t -> Simkit.Audit.t
(** The checker {!run_schedule} (or, for ["a+rec"]/["b+rec"],
    {!run_recovery_schedule}) would arm for [protocol], fed a recorded
    trace instead — a real fleet's. A [Sent] event is passive when its text
    is the protocol's own rendering of its passive message (B's [Go_ahead],
    C's [Alive]). *)

val oracles : Spec.t -> protocol:string -> subject C.oracle list
(** The oracle stack for a protocol name (as accepted by the CLI: "a", "b",
    "c", "c-chunked", "d", "d-coord", "checkpoint", …):
    - ["completed"]: the run retired every process (no stall / round limit);
    - ["correct"]: the paper's §2 verdict ({!Runner.correct});
    - ["well-formed"] and, for the sequential protocols, ["one-active"] and
      ["monotone"] ({!Simkit.Audit}; each fails with the first violation
      of its check);
    - ["work"], ["messages"], ["rounds"]: the theorem bounds, reporting
      measured/bound margins on passing runs. Protocol D is judged against
      its revert-path envelope with [f = t-1]; unknown protocols get no
      bound oracles. *)

val work_cap : int -> subject C.oracle
(** Extra oracle asserting work [<= cap] (name ["work-cap"]). Setting
    [cap < ] the true worst case deliberately breaks the stack — the hook
    used to demonstrate shrinking and replay end-to-end. *)

val stamp : Spec.t -> Protocol.t -> C.Schedule.t -> C.Schedule.t
(** Record protocol name, [n] and [t] in the schedule's meta, making it
    self-contained for [doall_cli replay]. *)

val campaign :
  ?jobs:int ->
  ?seed:int64 ->
  ?executions:int ->
  ?window:int ->
  ?extra:subject C.oracle list ->
  ?max_failures:int ->
  ?shrink_budget:int ->
  Spec.t ->
  Protocol.t ->
  C.Schedule.t C.stats
(** Seeded-random campaign: [executions] (default 200) schedules from
    {!Simkit.Campaign.sample} with crash rounds in [0, window] (default:
    twice the failure-free running time), judged by {!oracles} plus
    [extra]. [jobs] (default {!Simkit.Pool.default_jobs}) fans execution
    out over a {!Simkit.Pool} of worker domains. The whole campaign is
    always judged, so results, failing campaigns included, are
    byte-identical for every value (see {!Simkit.Campaign.run_parallel});
    the other campaign drivers below take [jobs] with the same meaning.
    Schedule generation is sequential, so a seed names the same campaign
    regardless of [jobs]. *)

(** {1 Crash–recovery campaigns} *)

val recovery_protocol_name : Recovery.which -> string
(** The normalized meta/CLI name: ["a+rec"] / ["b+rec"]. *)

val recovery_which_of_name : string -> Recovery.which option
(** Inverse of {!recovery_protocol_name}; also accepts the bare ["a"] /
    ["b"]. *)

val run_recovery_schedule :
  ?max_rounds:int ->
  ?rejoin_rounds:int ->
  Spec.t ->
  Recovery.which ->
  C.Schedule.t ->
  subject
(** One execution of the recovery-hardened protocol under the schedule's
    fault plan (crashes and restarts), audited by [well-formed]. *)

val recovery_oracles :
  Spec.t -> Recovery.which -> horizon:int -> subject C.oracle list
(** The crash–recovery oracle stack: completion, the §2 correctness verdict,
    the well-formedness audit, and incarnation-counting envelopes — per-unit
    multiplicity, work and messages bounded by [t + restarts] incarnations,
    rounds by [horizon] (the latest possible schedule round) plus one base
    round-bound per incarnation, and stable-storage writes by the view-rank
    space. The envelopes are airtight for an arbitrary restart adversary,
    so the margins reported on passing runs carry the signal. The
    crash-stop ["one-active"] and ["monotone"] audits are deliberately
    absent: under recovery a rejoiner's staggered deadline may briefly
    overlap another active, and a rejoiner legitimately redoes old units. *)

val recovery_stamp : Spec.t -> Recovery.which -> C.Schedule.t -> C.Schedule.t
(** Record protocol name ([a+rec] / [b+rec]), [n] and [t] in the schedule's
    meta, making it self-contained for [doall_cli recovery-replay]. *)

val recovery_campaign :
  ?jobs:int ->
  ?seed:int64 ->
  ?executions:int ->
  ?window:int ->
  ?restart_gap:int ->
  ?rejoin_rounds:int ->
  ?extra:subject C.oracle list ->
  ?max_failures:int ->
  ?shrink_budget:int ->
  Spec.t ->
  Recovery.which ->
  C.Schedule.t C.stats
(** Seeded crash+restart storm campaign: [executions] (default 200)
    schedules from {!Simkit.Campaign.sample_recovery} with crash rounds in
    [0, window] (default: twice the failure-free recovery running time) and
    downtimes up to [restart_gap] (default 6), judged by
    {!recovery_oracles} plus [extra]. Runs are capped at a generous
    round budget so a liveness bug surfaces as a ["completed"] failure
    rather than a hang. *)

(** {1 Corruption / Byzantine campaigns} *)

type hardening = Unhardened | Hardened
(** Which Protocol A variant faces the corruption adversary: plain A with
    {!Validate.tamper_plain} wired in (the exposed baseline the fuzzer
    breaks) or the validated ["A+val"] of {!Validate.run}. *)

val byz_protocol_name : hardening -> string
(** The meta/CLI name: ["a"] / ["a+val"]. *)

val byz_hardening_of_name : string -> hardening option
(** Inverse of {!byz_protocol_name}. *)

val run_byz_schedule :
  ?max_rounds:int -> Spec.t -> hardening -> C.Schedule.t -> subject
(** One execution under the schedule's fault plan with the matching
    tamper model wired in, so [Corrupt]/[Byzantine] entries act. No audit
    is fed: none of {!byz_oracles} reads one. *)

val byz_oracles : Spec.t -> hardening:hardening -> subject C.oracle list
(** The corruption oracle stack:
    - ["no-phantom-unit"]: no process reported done while units remain
      unperformed — the phantom-termination safety property;
    - ["correct-despite-lies"]: the run completed (no stall / round limit)
      and satisfies the §2 correctness verdict;
    - ["validation-overhead-bounded"] (hardened only): work and messages
      within the [(f + 3 + crashes)]-scripts hardening envelope, reporting
      the work margin on passing runs.
    The crash-stop ["one-active"] / ["monotone"] audits are deliberately
    absent: forged traffic and quorum-delayed takeovers legitimately
    violate both. *)

val byz_stamp : Spec.t -> hardening -> C.Schedule.t -> C.Schedule.t
(** Record protocol name ([a] / [a+val]), [n] and [t] in the schedule's
    meta, making it self-contained for [doall_cli byz-replay]. *)

val byz_max_rounds : Spec.t -> window:int -> int
(** The round cap byz campaigns run under: the deadline ladder retires the
    last honest process by [(t+1)·L] even if no claim ever attests, so a
    liveness bug surfaces as a ["correct-despite-lies"] round-limit failure
    rather than a hang. *)

val byz_campaign :
  ?jobs:int ->
  ?seed:int64 ->
  ?executions:int ->
  ?window:int ->
  ?byz:int ->
  ?extra:subject C.oracle list ->
  ?max_failures:int ->
  ?shrink_budget:int ->
  Spec.t ->
  hardening ->
  C.Schedule.t C.stats
(** Seeded corruption/Byzantine storm: [executions] (default 200) schedules
    from {!Simkit.Campaign.sample_byz} with [byz] subverted pids (default
    [t/3 - 1], clamped to [0 .. t-1]) and fault rounds in [0, window]
    (default: twice the failure-free running time), judged by
    {!byz_oracles} plus [extra]. Shrinking is cost-aware
    ({!Simkit.Campaign.Schedule.cost}): each failure is reduced to the
    {e cheapest} still-failing schedule, so a reported counterexample never
    spends Byzantine power where a plain crash or corruption breaks the
    protocol too. *)

val exhaustive_campaign :
  ?jobs:int ->
  ?window:int ->
  ?round_step:int ->
  ?modes:C.Schedule.mode list ->
  ?extra:subject C.oracle list ->
  ?max_failures:int ->
  ?shrink_budget:int ->
  Spec.t ->
  Protocol.t ->
  C.Schedule.t C.stats
(** Bounded model check: every schedule from {!Simkit.Campaign.exhaustive}
    (default modes {!Simkit.Campaign.default_modes}; default [round_step]
    chosen so the grid has at most 8 positions). Keep instances tiny. *)
