(** The versioned wire protocol spoken between [dhw_node] processes and the
    control-plane orchestrator: length-prefixed frames with a strict codec.

    On the wire, every frame is [u32 body-length][body]; the body starts
    with a one-byte tag. The {!Hello} frame — the first frame a node sends
    on a fresh connection — additionally carries the protocol magic and
    version, so an orchestrator can reject a node from a different build
    before interpreting anything else. Payloads of protocol messages travel
    as opaque byte strings: only the nodes (which share the protocol
    modules) encode and decode them; the orchestrator routes, counts and
    cuts them without looking inside. *)

val magic : string
(** ["DHWN"] — four bytes inside every {!Hello}. *)

val version : int
(** Wire protocol version, bumped on any incompatible frame change (2: the
    liveness-probe frame, tag 5, is gone). *)

val max_frame_len : int
(** Cap on a frame body (16 MiB). A length prefix beyond it is rejected
    before any allocation. *)

type envelope = { src : int; sent_at : int; payload : string }
(** One routed message as delivered to a node: sender pid, the round it was
    sent in, and the opaque protocol payload. *)

type send = { dst : int; payload : string; show : string }
(** One outgoing message as reported by a node. [show] is the node's
    human rendering of the payload ([show_msg]), carried as the tag of
    the orchestrator's [Obs.Send] events, so its stream — and thus the
    audit oracles and the sim-vs-real parity check — sees exactly what the
    simulator's would. *)

type t =
  | Hello of {
      pid : int;
      protocol : string;  (** "a", "b", "a+rec", "b+rec" *)
      n : int;
      t : int;
      incarnation : int;  (** 0 for the first launch, +1 per restart *)
      wakeup : int option;  (** the node's initial (or post-recovery) wakeup *)
    }
  | Welcome of { round : int }
      (** orchestrator's handshake ack: the round the run is at *)
  | Round_start of { round : int; inbox : envelope list }
  | Step_result of {
      round : int;
      sends : send list;
      work : int list;
      terminate : bool;
      wakeup : int option;
      persists : int;  (** stable-storage writes performed during this step *)
    }
  | Shutdown

val encode : t -> string
(** The full wire representation, length prefix included. *)

val decode : string -> (t, string) result
(** Inverse of {!encode} on exactly one whole frame:
    [decode (encode f) = Ok f]. Truncated input, an oversized length
    prefix, an unknown tag, trailing bytes, and a {!Hello} with the wrong
    magic or version are all [Error] with a human-readable reason. *)

val decode_body : string -> (t, string) result
(** {!decode} for a body whose length prefix was already consumed (the
    socket read path: 4-byte header first, then exactly the body). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** One-line human summary, payload bytes elided. *)
