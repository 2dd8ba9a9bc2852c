(** Eventually-perfect (◇P) failure detection from heartbeat timeouts — the
    organic replacement for {!Event_sim}'s oracle detection service.

    Each process broadcasts a heartbeat every [period] ticks; a monitor
    suspects a peer whose silence exceeds that peer's current timeout. Over
    lossy or slow links a live peer can be suspected {e falsely}; when later
    evidence of life arrives, the suspicion is retracted and that peer's
    timeout backs off multiplicatively, so any fixed pattern of delays is
    eventually tolerated (the classic Chandra–Toueg ◇P construction).
    Completeness is organic: a crashed or terminated peer never beats again,
    so its timeout fires and the suspicion is permanent.

    This module is the pure(ly local) core: it decides {e when} to beat and
    {e whom} to suspect. {!Link.harden} drives it from the event loop and
    turns its verdicts into [Retired_notice] events for the wrapped
    protocol. *)

open Simkit.Types

type time = int

type config = {
  period : int;  (** ticks between heartbeat broadcasts *)
  timeout : int;  (** initial per-peer suspicion timeout *)
  backoff : int;  (** timeout multiplier applied on each false suspicion *)
  max_timeout : int;  (** cap on the backed-off timeout *)
}

val config :
  ?period:int -> ?timeout:int -> ?backoff:int -> ?max_timeout:int -> unit ->
  config
(** Defaults: period 8, timeout 48, backoff 2, max_timeout 100_000. Raises
    [Invalid_argument] on [period < 1], [timeout < period], [backoff < 1]
    or [max_timeout < timeout]. *)

type t
(** A mutable monitor owned by one process. Its per-peer deadlines are
    unboxed ints, so {!alive_evidence} allocates nothing. *)

val create : ?config:config -> me:pid -> n:int -> now:time -> unit -> t
(** Monitor the [n - 1] peers of [me]; every peer starts with a full
    timeout from [now]. *)

val next_deadline : t -> time
(** The earliest tick at which {!tick} has something to do: the next beat
    or the earliest peer timeout. *)

val tick : t -> now:time -> pid list * bool
(** Advance to [now]. Returns the peers newly suspected (their timeouts
    expired) and whether a heartbeat broadcast is due. *)

val alive_evidence : t -> src:pid -> now:time -> bool
(** Any message (heartbeat or payload) from [src] proves it was recently
    alive: its deadline is pushed out. Returns [true] when this retracts a
    standing suspicion — a false suspicion, after which [src]'s timeout is
    multiplied by [backoff] (capped at [max_timeout]). No-op (returning
    [false]) for [me], out-of-range pids and stopped peers. *)

val stop : t -> pid -> unit
(** [src] is known retired: stop monitoring it (no further suspicion). *)

val rejoin : t -> pid -> now:time -> unit
(** [q] is known to have restarted (crash–recovery transports call this on
    a rejoin announcement): resume monitoring it even if {!stop}ped, clear
    any standing suspicion — counted as an un-suspect but {e not} a false
    suspicion, the peer really was down — and re-arm its deadline with the
    initial (un-backed-off) timeout. No-op for [me] and out-of-range pids. *)

val suspected : t -> pid -> bool
val suspects : t -> pid list

type stats = {
  suspicions : int;  (** timeout-fired suspicion events ({!tick}) *)
  false_suspicions : int;
      (** suspicions retracted by later evidence of life
          ({!alive_evidence}) — the detector was provably wrong *)
  unsuspects : int;
      (** suspected->trusted transitions performed: every false-suspicion
          retraction plus every {!rejoin} of a suspected peer, so
          [unsuspects >= false_suspicions] with equality in a pure
          crash-stop run *)
}
(** Detector-accuracy observables of one monitor. *)

val stats : t -> stats
