(** One process of an {!Event_sim.aproc}, driven by a caller-supplied
    clock and transport instead of the simulator's event queue.

    {!Event_sim} owns time and message delivery for a whole run; the
    engine owns neither. It preserves exactly the per-process event
    contract — [Started] first, one [Continue] per requested wakeup,
    [Got]/[Retired_notice] on arrival — and returns each outcome's sends
    and work to the caller, which decides what a tick means (the real
    fleet maps one tick to a fixed wall-clock quantum) and how sends
    travel (datagrams through the chaos layer). This is the "functorized
    clock/IO" seam: the hardened state machines the simulator fuzzes
    ({!Link.harden} around {!Async_protocol_a}) run byte-for-byte
    unchanged inside a real OS process. *)

open Simkit.Types

type 'm effects = {
  sends : (pid * 'm) list;  (** to transmit, in emission order *)
  work : int list;  (** units performed during the call *)
  terminated : bool;  (** the process retired during the call *)
}

type ('s, 'm) t

val create : ('s, 'm) Event_sim.aproc -> pid:pid -> ('s, 'm) t
(** Initial state via [a_init]; no event is delivered yet. *)

val start : ('s, 'm) t -> now:int -> 'm effects
(** Deliver [Started]. Raises [Invalid_argument] on a second call. *)

val deliver : ('s, 'm) t -> now:int -> src:pid -> 'm -> 'm effects
(** Deliver [Got {src; payload}] — an arrived message. *)

val notice : ('s, 'm) t -> now:int -> pid -> 'm effects
(** Deliver [Retired_notice] — an external retirement verdict. The real
    fleet calls it when a peer announces its clean exit (the Section 2.1
    service reports terminations as well as crashes); oracle-driven tests
    call it directly. *)

val advance : ('s, 'm) t -> now:int -> 'm effects
(** Fire every [Continue] wakeup scheduled at or before [now], one
    handler call per wakeup, accumulating the effects. *)

val next_wakeup : ('s, 'm) t -> int option
(** Earliest pending [Continue] time — the caller's sleep deadline.
    [None] when nothing is scheduled (quiescent until a message). *)

val map_state : ('s, 'm) t -> ('s -> 's) -> unit
(** Replace the state out of band: no event is delivered, and no effect or
    wakeup results. For transport facts the event alphabet has no word
    for, such as the real fleet seeing a restarted peer's new incarnation
    ({!Link.rejoin}). A no-op once terminated. *)

val state : ('s, 'm) t -> 's
val terminated : ('s, 'm) t -> bool
(** Once terminated the engine is inert: every further call returns empty
    effects. *)
