(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in this repository flows through this module so
    that executions are exactly reproducible from a 64-bit seed.  The
    generator is the splitmix64 mixer of Steele, Lea and Flood, which has a
    full 2^64 period and passes BigCrush; it is more than adequate for fault
    schedules and property-test case generation. *)

type t
(** Mutable generator state, held unboxed: {!int}, {!int_in}, {!bool} and
    {!float} draws allocate nothing. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. Distinct seeds give independent
    streams. *)

val copy : t -> t
(** [copy g] is a generator that will produce the same future stream as [g]
    without affecting [g]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive. @raise
    Invalid_argument if [hi < lo]. *)

val bool : t -> bool
(** Fair coin. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on empty. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement g k bound] is a sorted list of [k] distinct
    integers drawn uniformly from [\[0, bound)]. @raise Invalid_argument if
    [k < 0] or [k > bound]. *)

val split : t -> t
(** [split g] derives an independent generator and advances [g]. *)

val stream : int64 -> int -> t
(** [stream seed i] is the [i]-th independent stream of master [seed],
    derived by hashing the pair — no generator state is consumed, so
    parallel workers can materialize their streams in any order and still
    agree with a sequential run. @raise Invalid_argument if [i < 0]. *)
