(** Reliable, idempotent delivery over {!Event_sim}'s unreliable links:
    positive acknowledgments, retransmission with exponential backoff, and
    sequence-number deduplication — plus, optionally, an {!Heartbeat}
    failure detector replacing the simulator's oracle notification service.

    [harden] is a combinator: it wraps any [('s, 'm) Event_sim.aproc] into
    an aproc speaking ['m wire] whose inner protocol observes the same
    interface as before — [Got] events carry the original payloads, at most
    once each, and [Retired_notice] events arrive either from the oracle
    (pass-through) or from heartbeat timeouts (organic, possibly {e false}
    under loss or slow links; the wrapped protocol must tolerate unsound
    suspicion, which the paper's idempotent work model does by design).

    Mechanics worth knowing:
    - every inner send becomes a [Data] packet with a fresh sequence number,
      retransmitted on a backoff schedule until acked or until the
      destination is believed retired;
    - receivers ack every [Data] (including duplicates — the previous ack
      may have been lost) and deliver each sequence number to the inner
      protocol at most once;
    - inner termination is {e held} while packets are still in flight: the
      wrapper drains (keeps retransmitting and heartbeating) and terminates
      only once every pending packet is acked or addressed to a peer
      believed retired. This is what lets a final broadcast survive loss.
    - any arriving packet counts as evidence of life for its sender; if the
      sender was falsely suspected, the suspicion is retracted
      ({!Heartbeat.alive_evidence}) and sends to it resume. The inner
      protocol is never "un-notified" — by Section 2.1's own argument it
      must already tolerate duplicated activity, not corrupted work.
    - sends addressed to peers currently believed retired are skipped
      outright; a false belief can therefore lose an inner message
      permanently, and recovery relies on the wrapped protocol's takeover
      redundancy (Protocol A reissues knowledge on every takeover).

    Cost: the wrapper state is one mutable record per process, updated in
    place, and the handler allocates no closures. Handling a [Beat]
    allocates only the returned outcome, plus the option and list cell of
    a newly armed wakeup when one is needed; an [Ack] also copies the
    pending list up to the acked packet. Each packet sent adds its
    [(dst, wire)] pair and list cell. Heartbeat deadlines are unboxed
    ({!Heartbeat}). *)

open Simkit.Types

type time = int

type config = {
  rto : int;  (** initial retransmission timeout (ticks) *)
  backoff : int;  (** timeout multiplier per retransmission *)
  max_rto : int;  (** backoff cap *)
  max_retries : int;
      (** retransmissions allowed per packet before it is abandoned;
          [0] means retransmit forever. A bound is essential against
          Byzantine peers: a subverted process that streams forged
          traffic (alive evidence) while never acking would otherwise
          hold every draining sender hostage forever. *)
}

val config :
  ?rto:int -> ?backoff:int -> ?max_rto:int -> ?max_retries:int -> unit -> config
(** Defaults: rto 16, backoff 2, max_rto 2048, max_retries 0 (retransmit
    forever). Raises [Invalid_argument] on [rto < 1], [backoff < 1],
    [max_rto < rto] or [max_retries < 0]. *)

type stats = {
  mutable data_sent : int;  (** first transmissions of inner messages *)
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable beats_sent : int;
  mutable dups_suppressed : int;
      (** [Data] arrivals whose sequence number was already delivered *)
  mutable recoveries : int;  (** suspicions retracted by later evidence *)
  mutable suspicions : int;
      (** heartbeat-timeout suspicion events fired, summed over every
          monitor of the run (see {!Heartbeat.stats}) *)
  mutable false_suspicions : int;
      (** of those, suspicions later retracted by evidence of life — the
          detector was provably wrong *)
  mutable unsuspects : int;
      (** suspected->trusted transitions performed; equals
          [false_suspicions] under crash-stop, and additionally counts
          every {!rejoin} that clears the suspicion of a restarted peer *)
  mutable abandoned : int;
      (** packets dropped after exhausting [config.max_retries]
          retransmissions (always 0 with the unlimited default) *)
  mutable notices : (pid * pid * time) list;
      (** every (observer, suspect, tick) retirement notification handed to
          an inner protocol — oracle-relayed or heartbeat-derived. The
          campaign oracles judge detector completeness and suspicion
          accuracy from this log. *)
  mutable suspect_log : (pid * pid * time) list;
      (** every (observer, suspect, tick) heartbeat-timeout suspicion event
          — unlike [notices], repeated suspicions of the same peer all
          appear. Paired with [unsuspect_log] this yields per-episode
          suspicion→retraction latencies (the real-fleet detector report). *)
  mutable unsuspect_log : (pid * pid * time) list;
      (** every (observer, peer, tick) suspected→trusted retraction
          performed on evidence of life *)
}

val stats : unit -> stats
(** A fresh all-zero record. One [stats] may be shared by every process of
    a run (the simulator is single-threaded). *)

type 'm wire = Data of { seq : int; payload : 'm } | Ack of int | Beat

val show_wire : ('m -> string) -> 'm wire -> string

type ('s, 'm) state
(** Wrapper state: inner state plus transport bookkeeping. Mutable: a
    handler call updates it in place and returns it as its outcome's
    state. *)

val inner_state : ('s, 'm) state -> 's
val in_flight : ('s, 'm) state -> int
(** Unacked packets currently being retransmitted. *)

val suspects : ('s, 'm) state -> pid list
(** The peers this process's heartbeat monitor currently suspects; [[]]
    without a [?heartbeat]. A node whose suspect set covers every peer has
    lost its quorum — the real-fleet driver parks on this signal. *)

val rejoin : ?stats:stats -> ('s, 'm) state -> pid -> now:time -> ('s, 'm) state
(** [rejoin st q ~now] (updates and returns [st]): [q] is known to have
    restarted, for instance
    because a crash-recovery transport saw a higher incarnation of it.
    Sends to [q] resume, and its monitor is re-armed through
    {!Heartbeat.rejoin}: a standing suspicion is cleared with the initial
    timeout restored, and counted in [stats.unsuspects] but not as a false
    suspicion, because [q] really was down. The inner protocol is not told,
    as on the evidence path. Call it before delivering [q]'s first message
    of the new incarnation, so that message is not taken as evidence
    against a correct suspicion. *)

val harden :
  ?config:config ->
  ?heartbeat:Heartbeat.config ->
  ?stats:stats ->
  n:int ->
  ('s, 'm) Event_sim.aproc ->
  (('s, 'm) state, 'm wire) Event_sim.aproc
(** [harden ~n inner] wraps [inner] (for an [n]-process run). With
    [?heartbeat] the wrapper broadcasts heartbeats and derives
    [Retired_notice] events from {!Heartbeat} timeouts — run it with
    [oracle_detector = false] for fully organic detection. The monitor is
    anchored at the tick the [Started] event arrives, so a process (or a
    respawned real-fleet incarnation) entering at a late tick grants its
    peers a full timeout rather than finding every deadline pre-expired.
    Without [?heartbeat] the wrapper only adds reliable delivery and
    relays oracle notices unchanged. *)
