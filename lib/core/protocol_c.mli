(** Protocol C (Section 3, Figure 3): work-optimal Do-All with only
    [O(t log t)] messages — at the price of worst-case time exponential in
    [n + t].

    Knowledge of performed work and detected failures is spread as uniformly
    as possible: the active process tells each new fact to the process it
    considers least knowledgeable. When the active process fails, the {e
    most} knowledgeable survivor takes over — deadlines exponentially
    separated by {e reduced view} (units known done + failures known)
    guarantee that exactly one process is active at a time without any
    communication.

    To keep takeover cheap, failure detection is treated as work in its own
    right: processing is divided into [log t] levels; in level [h] the
    processes are partitioned into groups of size [2^(log t - h + 1)], and a
    newly active process polls each of its groups top-down ("Are you
    alive?"), reporting each detected failure one level up, before starting
    real work. Real work at level 0 is reported into the single level-1
    group after every [report_period] completed units: [1] gives Protocol C
    proper (Theorem 3.8: ≤ n+2t real work, ≤ n + 8t log t messages);
    [⌈n/t⌉] gives the Corollary 3.9 variant with [O(t log t)] messages.

    Instance-size limit: the deadlines reach [K(t)(n+t)2^(n+t-1)] rounds, so
    [n + t ≲ 45] is required for exact 63-bit round arithmetic; {!make}
    raises [Failure] otherwise (see DESIGN.md). Non-power-of-two [t] is
    padded internally with virtual, never-polled processes. *)

type view
(** A process's knowledge: retired set [F], work pointer and per-group
    pointers/rounds (the triple [(F_i, point_i, round_i)]). *)

type msg = Ordinary of view | Are_you_alive | Alive

val show_msg : msg -> string

val is_passive : msg -> bool
(** [Alive]: answering a poll does not make a process active. *)

val protocol : Protocol.t
(** Protocol C proper ([report_period = 1]). *)

val protocol_chunked : Protocol.t
(** The Corollary 3.9 variant: report after every [⌈n/t⌉] units. *)

val protocol_with_period : period:(Spec.t -> int) -> name:string -> Protocol.t

(** {1 Deadline functions} (exposed for tests and benches) *)

val big_k : Spec.t -> period:int -> int
(** The constant [K]: an upper bound on the rounds until every non-retired
    process has heard from a newly active process. [5t + 2 log t] for
    [period = 1]. *)

val deadline_gap : Spec.t -> period:int -> pid:int -> m:int -> int
(** [D(i, m)]: rounds a process with reduced view [m] waits after its last
    ordinary message before becoming active. @raise Failure on 63-bit
    overflow (instance too large). *)

(** {1 Internals exposed for property testing}

    View merging is correctness-critical (Lemma 3.4's knowledge ordering
    rests on it), so its algebra is exported: merge must be a join —
    idempotent, commutative up to tie-breaks, monotone, and never
    information-losing. *)
module Internal : sig
  type raw_view = {
    f : int list;  (** retired pids, sorted *)
    g0_point : int;
    g0_round : int;
    group_rounds : (int * int) list;  (** (gid, round) for set entries *)
  }

  val view_of_raw : Spec.t -> raw_view -> view
  val raw_of_view : view -> raw_view
  val merge : view -> view -> view
  val reduced_view : view -> int

  val n_group_ids : Spec.t -> int
  (** Number of group ids in the padded topology, [t' - 1]. *)
end
