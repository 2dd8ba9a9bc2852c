(** Cost accounting for the three complexity measures of the paper: work
    (with multiplicity), messages, and time, plus per-process breakdowns. *)

open Types

type t

val create : n_processes:int -> n_units:int -> t

val n_processes : t -> int
val n_units : t -> int

(** {1 Recording (kernel-side)} *)

val record_send : t -> pid -> unit
val record_work : t -> pid -> int -> unit

val record_work_range : t -> pid -> int -> int -> unit
(** [record_work_range t pid u0 k] is [record_work t pid u] for each
    [u = u0 .. u0 + k - 1], in one call: uncovered 64-unit words of the
    coverage bitset are set a word at a time, and units already covered
    take the per-unit path, so every reader sees the same multiplicities. *)

(** Counts a crash. Does not advance {!rounds}: a silent crash is observed
    by the kernel at the victim's next scheduling point, possibly long after
    the failure, and must not inflate the running time. *)
val record_crash : t -> pid -> round -> unit
val record_terminate : t -> pid -> round -> unit

val record_restart : t -> pid -> round -> unit
(** Counts an adversary-scheduled revival of a crashed process. Does not by
    itself advance {!rounds}: the rejoiner is stepped in its restart round,
    which advances the high-water mark through the live-activity path. *)

val record_persist : t -> pid -> round -> unit
(** Counts a stable-storage write ({!Stable.write}) — the fourth cost
    measure of the crash–recovery model. *)

val record_corruption : t -> unit
(** Counts one adversary-corrupted payload: a Byzantine forgery or an
    in-flight mutation (kernel-side, when a tamper model is active). Does
    not advance {!rounds}. *)

val record_reject : t -> unit
(** Counts one message the validation layer refused (bad authenticator,
    wrong claimant, or an unattested view) — the hardening cost's visible
    half. Recorded by [Doall.Validate]-style harnesses, not the kernel. *)

val record_round : t -> round -> unit
(** Note that activity occurred at [round]; keeps the high-water mark. *)

(** {1 Reading} *)

val messages : t -> int
(** Total messages sent (a broadcast to [k] recipients counts [k]). *)

val work : t -> int
(** Total units performed, counting multiplicity. *)

val effort : t -> int
(** [work + messages], the paper's combined measure. *)

val rounds : t -> round
(** Highest round at which anything happened (sends, work, crash,
    termination) — the execution's running time. *)

val crashes : t -> int
val terminated : t -> int

val restarts : t -> int
(** Revivals committed by the kernel (≤ the schedule's restart entries:
    entries for pids that were not down at the scheduled round are dropped). *)

val persists : t -> int
(** Total stable-storage writes. *)

val corruptions : t -> int
(** Total adversary-corrupted payloads (forged + mutated). *)

val rejected : t -> int
(** Total messages refused by a validation layer. *)

val unit_multiplicity : t -> int -> int
(** How many times a given unit was performed. *)

val units_covered : t -> int
(** Number of distinct units performed at least once. *)

val all_units_done : t -> bool

val work_by : t -> pid -> int
val messages_by : t -> pid -> int
val persists_by : t -> pid -> int

val pp_summary : Format.formatter -> t -> unit
