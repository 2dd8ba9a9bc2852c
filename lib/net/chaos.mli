(** Seeded chaos for the real-process mesh: drop, duplicate, delay and
    sever, byte-reproducible from a [Campaign.Async] schedule.

    Verdicts are {e content-keyed}: the fate of a transmission is a pure
    function of [(seed, src, dst, kind, key)], where the key names the
    message identity — [(seq, attempt)] for data and acks, the beat index
    for heartbeats, the copy number for byes. A real fleet's event order wobbles with OS
    scheduling; consuming a shared coin stream per decision (the
    simulator's approach) would therefore diverge between executions,
    while hashing the identity makes the same message meet the same fate
    every time the same seed runs. That property is what
    [async-net-replay] rests on. *)

type kind =
  | Data of { seq : int; attempt : int }
      (** [attempt] distinguishes retransmissions — each draws a fresh
          fate, so a lossy link delays packets rather than condemning
          them *)
  | Ack of { seq : int; attempt : int }
  | Beat of { index : int }
  | Bye of { attempt : int }
      (** one copy of a clean-exit notice; each copy draws its own fate *)

type plan = {
  drop_bp : int;  (** loss probability, basis points *)
  dup_bp : int;  (** duplication probability, basis points *)
  slow_set : Simkit.Types.pid list;
  slow_factor : int;
  severs : (Simkit.Types.pid * Simkit.Types.pid * int * int) list;
      (** directed cuts [(src, dst, from, to)] over tick windows —
          deterministic, no coin consumed *)
  max_delay : int;  (** base delivery-delay bound, ticks *)
  seed : int64;
}

val none : plan
(** No chaos: every message delivered once, immediately. *)

val of_async : Simkit.Campaign.Async.t -> plan
(** The plan a schedule prescribes; crashes and restarts are the fleet
    runner's job, not the link's. *)

type stats = {
  mutable considered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable severed : int;
}

val stats : unit -> stats

type verdict = { release_at : int list }
(** One entry per copy to deliver, each the tick at or after which it may
    be released; [[]] means the message is swallowed. *)

val judge :
  plan ->
  ?stats:stats ->
  src:Simkit.Types.pid ->
  dst:Simkit.Types.pid ->
  kind:kind ->
  now:int ->
  unit ->
  verdict
(** Decide the fate of one transmission at tick [now]. Pure in everything
    but [stats]. *)
