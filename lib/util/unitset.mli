(** Sets of work-unit ids as sorted disjoint integer intervals.

    The Do-All state everything in this repository passes around — the
    outstanding pool [S], a process's "done" knowledge, a phase slice — is
    almost always a range minus a few worked stretches. Representing such a
    set as per-unit records or as [Set.Make(Int)] trees costs O(n) memory
    and O(n log n) time per set operation, which is what capped the benches
    at toy sizes. An interval set stores the same mathematical set in O(k)
    words where k is the number of maximal runs, and every bulk operation
    (union, intersection, difference, cardinality) is a linear merge over
    runs, independent of n.

    Values are immutable; all operations return fresh sets. Elements are
    arbitrary ints (negative ids are legal). The physical representation is
    canonical: two sets are [equal] iff they are structurally identical, so
    interval sets can be compared, hashed and serialized directly. *)

type t

val empty : t
val is_empty : t -> bool

val of_range : int -> int -> t
(** [of_range lo hi] is the half-open interval [lo, hi); empty if [hi <= lo]. *)

val singleton : int -> t
val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t

val add_range : int -> int -> t -> t
(** [add_range lo hi s] unions the half-open interval [lo, hi) into [s]. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val cardinal : t -> int
(** Number of elements; O(intervals), not O(n). *)

val intervals : t -> int
(** Number of maximal runs — the representation size. *)

val equal : t -> t -> bool
val subset : t -> t -> bool

val min_elt : t -> int
(** Smallest element; raises [Not_found] on the empty set. *)

val max_elt : t -> int
val choose : t -> int
(** [choose] = [min_elt]: deterministic, for replayable protocols. *)

val contains_range : int -> int -> t -> bool
(** [contains_range lo hi s] — is every element of [lo, hi) in [s]?
    Vacuously true when [hi <= lo]. O(log k) by binary search. *)

val run_end : int -> t -> int
(** [run_end u s] is the end (exclusive) of the maximal run of [s] that
    contains [u], or [u] when [u] is not in [s]. O(log k). *)

val nth : t -> int -> int
(** [nth s k] is the [k]-th smallest element (0-based); raises
    [Invalid_argument] when [k] is out of bounds. O(intervals). *)

val slice : t -> lo:int -> hi:int -> t
(** [slice s ~lo ~hi] keeps the elements of rank [lo .. hi-1] (0-based, by
    increasing value) — the rank-range primitive behind per-process work
    slices. Ranks outside [0, cardinal s) are clamped. *)

val iter : (int -> unit) -> t -> unit
(** Per-element iteration in increasing order. *)

val iter_ranges : (int -> int -> unit) -> t -> unit
(** [iter_ranges f s] calls [f lo hi] once per maximal run [lo, hi),
    in increasing order — the O(k) traversal. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val to_array : t -> int array
val of_list : int list -> t
(** Builds from an arbitrary (unsorted, possibly duplicated) list. *)

val pp : Format.formatter -> t -> unit
(** Prints as "[0..9] [12] [14..20]" — run-length, for debugging. *)

val invariant_ok : t -> bool
(** Representation invariant: sorted, disjoint, non-adjacent, non-empty
    runs. Exposed for the property-test suite. *)
