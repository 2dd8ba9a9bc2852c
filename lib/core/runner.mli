(** Execute a protocol on a problem instance under a fault plan and report
    the paper's cost measures plus a correctness verdict. *)

type report = {
  spec : Spec.t;
  protocol : string;
  metrics : Simkit.Metrics.t;
  statuses : Simkit.Types.status array;
  outcome : Simkit.Kernel.run_outcome;
}

val run :
  ?fault:Simkit.Fault.t ->
  ?max_rounds:int ->
  ?obs:Simkit.Obs.sink ->
  ?spans:Simkit.Obs.sink ->
  ?audit:Simkit.Audit.t ->
  Spec.t ->
  Protocol.t ->
  report
(** [obs] receives the run's execution events as they happen (record a
    trace with [Simkit.Obs.memory]); [audit] is fed the same events
    without building them, with the protocol's [passive] predicate (see
    {!Simkit.Kernel.config}). *)

val survivors : report -> int
(** Processes that terminated (did not crash). *)

val crashed : report -> int

val work_complete : report -> bool
(** Every unit performed at least once. *)

val correct : report -> bool
(** The paper's correctness condition: the execution ran to completion
    (no stall, no round-limit abort) and, if at least one process survived,
    all [n] units of work were performed. *)

val pp : Format.formatter -> report -> unit
