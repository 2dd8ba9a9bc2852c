(** Adversary campaign engine: systematic search of the crash /
    partial-delivery fault space, with greedy shrinking of failing schedules
    and a replayable line-based serialization.

    The paper's adversary may crash a process {e mid-broadcast} so that
    "only some subset of the processes receive the message" (§2). A campaign
    explores that space: it generates {!Schedule.t} values — pure data,
    unlike the closures in {!Fault} — runs each through a caller-supplied
    execution function, and judges the result with a stack of
    {!type:oracle}s. Any failure is shrunk on the spot to a locally-minimal
    counterexample and can be written out, replayed and re-judged exactly.

    The engine ({!run_parallel}) is protocol-agnostic and judges
    executions on a {!Pool} of worker domains. [Doall.Fuzz] and
    [Asim.Async_fuzz] instantiate it for the paper's protocols on both
    substrates, and [doall_cli] exposes one fuzz and one replay subcommand
    per fault model. *)

open Types

module Schedule : sig
  (** A replayable fault schedule. *)

  type mode =
    | Silent  (** dead from round [at]: takes no action in it or later *)
    | Acting of { keep_work : bool; delivery : Fault.delivery }
        (** crash at the first round [>= at] in which the victim acts, with
            the given partial-delivery cut — the mid-broadcast adversary *)
    | Restart
        (** revive the victim at round [at] (crash–recovery model): volatile
            state is wiped, stable storage survives, and the kernel asks the
            protocol's recovery hook for the rejoined state *)
    | Corrupt of Fault.tamper
        (** tamper with the victim's outgoing payloads at its first
            message-emitting round [>= at] (one-shot; requires a kernel
            tamper model, inert without one) *)
    | Byzantine
        (** the victim is adversary-controlled from round [at] on: it stops
            running the protocol and emits forged messages drawn from the
            tamper model (degrades to a silent crash without one) *)

  type entry = { victim : pid; at : round; mode : mode }

  type t = {
    meta : (string * string) list;
        (** replay context (protocol, n, t, seed, …). Keys must be single
            tokens; values must not contain newlines. *)
    entries : entry list;
  }

  val make : ?meta:(string * string) list -> entry list -> t

  val meta : t -> string -> string option

  val add_meta : t -> (string * string) list -> t
  (** Appends bindings, replacing keys already present (order of existing
      keys is preserved). *)

  val normalize : t -> t
(** The corruption/Byzantine normal form: per victim the earliest
      [Byzantine] entry wins (later ones are duplicates); a Byzantine pid's
      entries at or after its subversion round are dropped — Byzantine
      subsumes later crashes, and a subverted pid is never corrupted or
      restarted; duplicate [Corrupt] entries (same victim and round) keep
      the first. Idempotent, and applied by {!to_fault}, so a schedule and
      its normal form build identical fault plans. Crash/restart cycle
      normalization is separate (see {!to_fault}). *)

  val cost : t -> int
  (** The shrinker's cost objective — adversary power spent: 5 per
      [Byzantine] entry, 2 per [Corrupt], 1 per crash or restart. *)

  val to_fault : t -> Fault.t
  (** A fresh fault plan realizing the schedule. Entries are normalized into
      per-victim crash/restart cycles (sorted by round): within a cycle the
      earliest crash wins — the crash-only special case of which is the
      documented {!Fault.crash_silently_at} earliest-round rule — a restart
      must be strictly after its cycle's crash round, and a restart with no
      preceding crash is dropped. A victim may crash again after a restart:
      the plan advances to its next cycle when the kernel commits the
      revival. A restart whose victim is still up when its round arrives
      (e.g. an acting crash that had not fired yet) is dropped by the
      kernel, leaving the victim dead once the crash does fire —
      deterministic degradation to crash-stop. *)

  val restart_count : t -> int
  (** Number of [Restart] entries (scheduled, not necessarily committed). *)

  val print : t -> string
  (** Line-based text format:
      {v
      schedule v1
      meta protocol a
      crash 0 @3 silent
      crash 1 @7 acting keep all
      crash 2 @5 acting drop prefix 1
      crash 4 @2 acting drop indices 0,2,5
      restart 0 @9
      corrupt 3 @4 lying-view salt 17
      byz 5 @6
      end
      v} *)

  val parse : string -> (t, string) result
  (** Inverse of {!print}: [parse (print s) = Ok s] for every schedule
      respecting the meta constraints above. Blank lines and [#] comments
      are skipped. *)

  val pp : Format.formatter -> t -> unit
  (** One-line human summary (not the serialization). *)
end

(** {1 Schedule generation} *)

val exhaustive :
  t:int ->
  window:round ->
  ?round_step:int ->
  modes:Schedule.mode list ->
  unit ->
  Schedule.t Seq.t
(** Every schedule over: victim sets leaving at least one survivor × crash
    rounds on a [round_step] grid (default 1) within [0, window] × one mode
    per victim. Lazily produced; the space has
    [Σ_{k<t} C(t,k) · ((window/round_step + 1) · |modes|)^k] elements, so
    keep [t] tiny. *)

val default_modes : Schedule.mode list
(** Silent, crash-keeping-all-messages, and mid-broadcast cuts
    [Prefix 0] / [Prefix 1] — the adversary repertoire of the paper's
    proofs. *)

val sample : Dhw_util.Prng.t -> t:int -> window:round -> Schedule.t
(** One random schedule: 0 to t-1 distinct victims, uniform crash rounds in
    [0, window], modes drawn among silent, full-delivery, prefix and
    index-subset cuts. Deterministic in the generator state. *)

val sample_recovery :
  Dhw_util.Prng.t -> t:int -> window:round -> restart_gap:int -> Schedule.t
(** A crash+restart storm: the victims of {!sample}, where each victim is
    additionally revived with probability 3/4 after a downtime of up to
    [restart_gap] rounds, and a revived victim gets a whole second
    crash(/restart) cycle with probability 1/4. Deterministic in the
    generator state. *)

val sample_byz :
  Dhw_util.Prng.t -> t:int -> window:round -> byz:int -> Schedule.t
(** A corruption/Byzantine storm: exactly [byz] subverted pids (uniform
    activation rounds in [0, window]), crashes among the honest remainder
    only — at least one honest pid always survives — and up to [t] one-shot
    [Corrupt] entries with random kinds and salts. No restarts.
    Deterministic in the generator state; requires [0 <= byz < t]. *)

(** {1 Oracles} *)

type check_result =
  | Pass
  | Pass_margin of float
      (** passed; the float is a utilization ratio (measured/bound) reported
          in campaign statistics *)
  | Fail of string  (** violation, with human-readable detail *)

type 'r oracle = { name : string; check : 'r -> check_result }

val first_failure : 'r oracle list -> 'r -> (string * string) option
(** [(oracle name, detail)] of the first failing oracle, if any. *)

(** {1 Shrinking} *)

val schedule_candidates : Schedule.t -> Schedule.t Seq.t
(** The shrink moves for round-synchronous schedules, tried in order: drop a
    victim entirely; weaken a [Byzantine] entry to a [Silent] crash at the
    same round; widen a crash's delivery cut toward [All] (also
    [Prefix k → Prefix (k+1)]); let it keep its work; delay its crash
    round. *)

val shrink :
  run:('a -> 'r) ->
  oracles:'r oracle list ->
  oracle:string ->
  candidates:('a -> 'a Seq.t) ->
  ?cost:('a -> int) ->
  ?budget:int ->
  'a ->
  'a * string * int
(** [shrink ~run ~oracles ~oracle ~candidates s] greedily minimizes [s]
    while the named oracle keeps failing, restarting from the first
    improving candidate. The engine is schedule-agnostic: [candidates]
    proposes the simplifications ({!schedule_candidates} for round
    schedules, {!Async.candidates} for asynchronous ones). With [?cost]
    (e.g. {!Schedule.cost}) a candidate is considered only if its cost does
    not exceed the incumbent's — the walk then minimizes adversary power,
    reporting the {e cheapest} still-failing schedule; the cost filter is
    free (checked before running the candidate). Returns the reduced
    schedule, the failure detail it still produces, and the number of
    executions spent ([budget] caps them, default 500). *)

(** {1 Campaign execution} *)

type 'a failure = {
  schedule : 'a;  (** as generated *)
  oracle : string;  (** first failing oracle *)
  detail : string;
  shrunk : 'a;  (** locally-minimal counterexample *)
  shrunk_detail : string;
  shrink_executions : int;
}

type 'a stats = {
  schedules : int;  (** campaign schedules judged *)
  executions : int;  (** total protocol runs, including shrinking *)
  failures : 'a failure list;  (** in schedule order *)
  margins : (string * float) list;
      (** per oracle, the worst (largest) margin observed on passing runs *)
}

val run_parallel :
  ?jobs:int ->
  run:('a -> 'r) ->
  oracles:'r oracle list ->
  candidates:('a -> 'a Seq.t) ->
  ?cost:('a -> int) ->
  ?max_failures:int ->
  ?shrink_budget:int ->
  'a Seq.t ->
  'a stats
(** The campaign engine: execute and judge every schedule on [jobs] worker
    domains (default {!Pool.default_jobs}; [1] is a plain loop in the
    calling domain), then reduce the verdicts strictly in schedule order,
    shrinking the first [max_failures] (default 3) failures on the spot
    ([?cost] is forwarded to {!shrink}). The whole campaign is always
    judged, so results are byte-identical for every [jobs] value; with
    [max_failures = 0] it is judged without shrinking and no failure is
    kept. Shrinking stays sequential — the greedy walk's local-minimality
    argument depends on candidate order. *)

val pp_stats : Format.formatter -> 'a stats -> unit

(** {1 Asynchronous schedules} *)

module Async : sig
  (** A replayable fault schedule for the asynchronous executor
      ([Asim.Event_sim]): crash ticks plus the link adversary — message
      loss, duplication and slow endpoints — and the executor seed, so a
      run is reproduced bit-for-bit. Probabilities are basis points
      (hundredths of a percent, so 3000 = 30%): integers serialize
      exactly, floats would not. *)

  type crash = { victim : pid; at : int  (** tick, not round *) }

  type sever = { s_src : pid; s_dst : pid; s_from : int; s_to : int }
  (** A directed link cut: every message from [s_src] to [s_dst] sent while
      the clock is within [[s_from, s_to]] is lost (deterministically — no
      adversary coin is consumed). *)

  type t = {
    meta : (string * string) list;
        (** replay context (protocol, n, t, …) under the same token
            constraints as {!Schedule.t} meta *)
    crashes : crash list;
    restarts : crash list;
        (** respawn ticks for previously crashed pids. Only the real-process
            fleet executor ([async-net-run]) enforces them — as [--recover]
            respawns reading the on-disk checkpoint; the simulator treats
            every crash as final, which is the conservative differential
            baseline ([--diff] compares work/units, both unaffected). *)
    drop_bp : int;  (** per-message loss probability, basis points *)
    dup_bp : int;  (** per-message duplication probability, basis points *)
    corrupt_bp : int;
        (** per-message in-flight corruption probability, basis points;
            inert unless the executor is given a tamper model *)
    byz : crash list;
        (** pids adversary-controlled from the given tick on: they stop
            running the protocol and emit forged messages drawn from the
            executor's tamper model *)
    slow_set : pid list;  (** endpoints with inflated delay bound *)
    slow_factor : int;
    severs : sever list;  (** directed link cuts over tick windows *)
    max_delay : int;  (** base delivery bound (ticks) *)
    max_lag : int;  (** local-step lag bound (ticks) *)
    seed : int64;  (** executor seed — fixes every adversary coin *)
  }

  val make :
    ?meta:(string * string) list ->
    ?crashes:crash list ->
    ?restarts:crash list ->
    ?drop_bp:int ->
    ?dup_bp:int ->
    ?corrupt_bp:int ->
    ?byz:crash list ->
    ?slow_set:pid list ->
    ?slow_factor:int ->
    ?severs:sever list ->
    ?max_delay:int ->
    ?max_lag:int ->
    ?seed:int64 ->
    unit ->
    t
  (** Defaults: no crashes, no restarts, perfect link, no corruption, no
      Byzantine pids, no severs, [max_delay 5], [max_lag 3], [seed 1].
      Raises [Invalid_argument] on a sever window with [s_from < 0] or
      [s_to < s_from]. *)

  val meta : t -> string -> string option

  val add_meta : t -> (string * string) list -> t
  (** Appends bindings, replacing keys already present. *)

  val print : t -> string
  (** Line-based text format:
      {v
      async-schedule v1
      meta protocol async-a
      link drop 1200 dup 300
      corrupt 250
      slow 1,3 factor 4
      delay 5 lag 3
      seed 42
      crash 0 @17
      byz 2 @5
      end
      v}
      An empty slow set prints as [slow - factor 1]; the [corrupt] line is
      omitted when [corrupt_bp = 0], and [byz] lines when there are no
      Byzantine pids. Restart entries print as [restart 0 @40] and sever
      entries as [sever 0 1 @10 @40] (one line each, after the crash/byz
      lines); both are omitted when empty, so pre-existing schedules print
      byte-identically. *)

  val parse : string -> (t, string) result
  (** Inverse of {!print}: [parse (print s) = Ok s] for every schedule
      respecting the meta constraints. Blank lines and [#] comments are
      skipped; [link] / [slow] / [delay] / [seed] lines are each optional
      (defaulting as in {!make}) and may appear in any order. *)

  val pp : Format.formatter -> t -> unit
  (** One-line human summary (not the serialization). *)

  val sample : Dhw_util.Prng.t -> t:int -> window:int -> t
  (** One random async schedule: drop probability up to 30%, duplication up
      to 20%, each endpoint slow with probability 1/4, 0 to t-1 distinct
      crash victims with ticks in [0, window], and a fresh executor seed.
      Deterministic in the generator state. *)

  val sample_byz : Dhw_util.Prng.t -> t:int -> window:int -> byz:int -> t
  (** A corruption/Byzantine async storm: loss up to 15%, duplication up to
      10%, in-flight corruption up to 20%, exactly [byz] subverted pids
      with activation ticks in [0, window], and crashes among the honest
      remainder only (at least one honest pid survives). Deterministic in
      the generator state; requires [0 <= byz < t]. *)

  val cost : t -> int
  (** The shrinker's cost objective for async schedules: 5 per Byzantine
      pid, 2 if the corruption rate is nonzero, 1 per crash. *)

  val candidates : t -> t Seq.t
  (** Shrink moves, tried in order: drop a crash; calm the link (zero or
      halve the loss rate, zero the duplication rate, zero or halve the
      corruption rate, shrink the slow set, reset the slow factor); drop a
      Byzantine pid or demote it to a crash at the same tick; delay a
      crash. *)
end
