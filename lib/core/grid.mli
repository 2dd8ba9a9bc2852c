(** The √t-grid structure shared by Protocols A and B (Section 2).

    The paper assumes [t] a perfect square and [n] divisible by [t]; this
    module implements the "easy modifications" it leaves to the reader:

    - processes are divided into groups of size [s = ⌈√t⌉] (the last group
      may be smaller);
    - the work is divided into [S = min t n] subchunks of near-equal size
      (balanced partition), grouped into chunks of [s] consecutive
      subchunks (the last chunk may be shorter).

    On perfect-square, divisible instances this reduces exactly to the
    paper's layout: [s = √t], [√t] groups, [t] subchunks of [n/t] units. *)

type t

val make : Spec.t -> t

val make_with_group_size : Spec.t -> int -> t
(** [make_with_group_size spec s] overrides the group size (the paper's √t)
    — used by the bench that validates the √t choice: smaller groups mean
    cheaper partial checkpoints but more groups to inform on every full
    checkpoint, larger groups the reverse. @raise Invalid_argument unless
    [1 <= s <= t]. *)

val spec : t -> Spec.t

(** {1 Groups} *)

val group_size : t -> int
(** [s = ⌈√t⌉]. *)

val n_groups : t -> int
(** Number of groups, [⌈t/s⌉]. Groups are numbered [1 .. n_groups] to match
    the paper's 1-based [g_i]. *)

val group_of : t -> int -> int
(** Group (1-based) of a process id (0-based). *)

val members : t -> int -> int * int
(** Pids of a group as a half-open range [(lo, hi)], in O(1).
    @raise Invalid_argument if the group is outside [1 .. n_groups]. *)

val members_above : t -> int -> int * int
(** Own-group members with strictly larger pid — the "remainder of group
    [g_j]" that partial checkpoints broadcast to — as a half-open range
    [(pid + 1, hi)]; empty for the last pid of a group. *)

val rank_in_group : t -> int -> int
(** The paper's [ȷ̄ = j mod √t]: 0-based rank within the group. *)

(** {1 Work partition} *)

val n_subchunks : t -> int
(** [S]; subchunks are numbered [1 .. S]. *)

val subchunk_range : t -> int -> int * int
(** Work-unit ids of subchunk [c] (1-based) as a half-open range
    [(lo, hi)] — subchunks are contiguous, so the range is the whole
    story, in O(1) space at any [n].
    @raise Invalid_argument if [c] outside [1 .. S]. *)

val subchunk_units : t -> int -> int list
(** {!subchunk_range} materialised as a list (0-based, ascending) — for
    tests and small-n callers only; allocates [hi - lo] cells. *)

val subchunk_size_max : t -> int
(** Largest subchunk size, [⌈n/S⌉]. *)

val is_chunk_end : t -> int -> bool
(** True iff completing subchunk [c] triggers a full checkpoint: [c] is a
    multiple of [s], or [c = S]. *)

val n_chunk_ends : t -> int
(** Number of subchunks for which {!is_chunk_end} holds: [⌈S/s⌉], in
    O(1). *)

(** {1 Deadline budget} *)

val max_active_rounds : t -> int
(** A safe upper bound [L] on the number of rounds any process can remain
    active under Protocol A (work + partial checkpoints + full checkpoints +
    takeover actions). Protocol A uses deadlines [DD(j) = j·L], which is the
    paper's [j(n+3t)] up to the rounding slack. *)
