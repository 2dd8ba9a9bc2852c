(** Binary codecs for the Do-All protocol payloads carried opaquely inside
    {!Frame} envelopes. Only nodes use these — the orchestrator never
    interprets payload bytes.

    Every [decode_*] raises {!Wire.Decode} on malformed input; a node that
    receives an undecodable payload is talking to a peer from a different
    build and must fail loudly, not guess. *)

val encode_ord : Doall.Ckpt_script.ord -> string
val decode_ord : string -> Doall.Ckpt_script.ord

val encode_last : Doall.Ckpt_script.last -> string
val decode_last : string -> Doall.Ckpt_script.last

val encode_b : Doall.Protocol_b.msg -> string
val decode_b : string -> Doall.Protocol_b.msg

val encode_rmsg : ('m -> string) -> 'm Doall.Recovery.rmsg -> string
val decode_rmsg : (string -> 'm) -> string -> 'm Doall.Recovery.rmsg
(** Parameterized over the inner protocol's payload codec, mirroring
    [Doall.Recovery.rmsg]'s parameterization. *)

type peer_msg =
  | P_data of { src : int; inc : int; seq : int; ord : Doall.Ckpt_script.ord }
  | P_ack of { src : int; inc : int; target_inc : int; seq : int }
  | P_beat of { src : int; inc : int }
  | P_bye of { src : int; inc : int }
      (** The async deployment mode's datagram envelope around
          [Asim.Link]'s wire alphabet, plus [P_bye], the clean-exit notice
          a terminating node sends its peers. [seq] is raw (restarts at 0
          each incarnation); the receiver namespaces it by [inc], and an
          ack names the incarnation it targets so a respawned sender
          discards acks meant for its dead predecessor. *)

val encode_peer : peer_msg -> string
val decode_peer : string -> peer_msg

val encode_counters : (string * int) list -> string
val decode_counters : string -> (string * int) list
(** A node's terminal result: a flat self-describing counter bag. *)
