(** Execution auditing: structural well-formedness and the sequential
    protocols' invariants, checked as the execution happens.

    A checker is armed with the checks it should run and fed one call per
    event, in execution order. {!Kernel.run} feeds the checker of its
    [audit] field at the sites where it would build {!Trace} events, so a
    campaign judges these invariants without recording a trace. A checker
    keeps O(processes + units) state, allocates nothing per event, and
    keeps each violation as data, formatted only when printed
    ({!pp_violation}). Recorded traces (a real fleet's, or hand-built ones)
    are judged by replaying them through the same checker ({!replay} and
    the three trace functions at the end), so each invariant has one
    implementation. *)

type check =
  | Well_formed
      (** structural sanity of any execution:
          - no process acts (steps, sends, works) at a round after it
            crashed or terminated, unless a restart revived it in between;
          - rounds are non-decreasing along the execution;
          - every crash/termination ends the process's current incarnation
            (no double retire without an intervening restart);
          - restarts only revive crashed processes (never live or
            terminated ones). *)
  | One_active
      (** the sequential-protocols invariant (Protocols A, B, C; Lemma
          2.7): per round, at most one process performs work or sends
          non-passive messages. Passive messages (Protocol B's go-aheads,
          Protocol C's alive replies) are the ones inactive processes may
          send. The checker remembers only the current round's active
          process, so it agrees with a per-round table whenever rounds are
          non-decreasing (every kernel run). On an execution whose rounds
          go backwards it starts a revisited round afresh: it may miss a
          pair the table would flag, or name a different first process. *)
  | Monotone
      (** for the sequential protocols (A, B, C and the checkpoint
          baseline), which perform the work "in increasing order of process
          number" (Section 5): the {e first} performance of each unit
          happens in increasing unit order across the whole execution. Does
          not hold for Protocol D, which works in parallel slices. *)

type act = Steps | Sends | Works

type fault =
  | Acts_after_retiring of { pid : Types.pid; act : act; retired_at : Types.round }
  | Goes_backwards of { previous : Types.round }
  | Restarts_after_terminating of { pid : Types.pid; terminated_at : Types.round }
  | Restarts_while_up of { pid : Types.pid }
  | Retires_twice of { pid : Types.pid; first_at : Types.round }
  | Two_active of { first : Types.pid; second : Types.pid }
  | Late_first_performance of { pid : Types.pid; unit_id : int; after : int }

type violation = { round : Types.round; fault : fault }

val pp_violation : Format.formatter -> violation -> unit
(** ["[r<round>] <what went wrong>"]. *)

type t
(** A mutable checker. *)

val create : ?checks:check list -> processes:int -> units:int -> unit -> t
(** A checker for an execution of [processes] processes (pids
    [0 .. processes-1]) over [units] units (ids [0 .. units-1]); [checks]
    defaults to all three. Feeding a pid or, with [Monotone] armed, a unit
    id out of range raises [Invalid_argument]. *)

val violations : t -> check -> violation list
(** The violations found so far by one check, in execution order (empty =
    clean). @raise Invalid_argument if [check] was not armed. *)

(** {1 Feeding}

    One call per execution event, in order. *)

val stepped : t -> pid:Types.pid -> round:Types.round -> unit
val sent : t -> src:Types.pid -> round:Types.round -> passive:bool -> unit
val dropped : t -> round:Types.round -> unit
(** a send suppressed by a mid-broadcast crash *)

val worked : t -> pid:Types.pid -> round:Types.round -> unit_id:int -> unit
val crashed : t -> pid:Types.pid -> round:Types.round -> unit
val restarted : t -> pid:Types.pid -> round:Types.round -> unit
val terminated : t -> pid:Types.pid -> round:Types.round -> unit

(** {1 Recorded traces} *)

val replay : ?passive_msg:(string -> bool) -> ?checks:check list -> Trace.t -> t
(** A checker sized to the trace (its largest pid and unit id) and fed
    every event of it; [passive_msg] classifies a [Sent] event's rendered
    payload (default: nothing is passive). *)

val well_formed : Trace.t -> violation list
val at_most_one_active :
  ?passive_msg:(string -> bool) -> Trace.t -> violation list
val work_is_monotone : Trace.t -> violation list
