(** Core vocabulary of the synchronous crash-fault message-passing model
    (Section 2 of the paper).

    Time proceeds in rounds. In one round a process may perform local
    computation, perform one unit of work, and send/receive messages: a
    message sent in round [r] is received at the start of round [r+1].
    Processes fail only by crashing; a process that crashes while
    broadcasting delivers its messages to an adversary-chosen subset of the
    recipients. *)

type pid = int
(** Process identifier, [0 .. t-1]. *)

type round = int
(** Round counter. 63-bit; Protocol C's deadlines approach [2^(n+t)], so
    callers bound [n + t] accordingly (see DESIGN.md). *)

type 'm send = { dst : pid; payload : 'm }
(** An outgoing message for the current round. *)

type 'm envelope = { src : pid; sent_at : round; payload : 'm }
(** A received message: sent by [src] in round [sent_at], delivered in round
    [sent_at + 1]. *)

type ('s, 'm) outcome = {
  state : 's;  (** post-round protocol state *)
  sends : 'm send list;
      (** messages emitted this round, in order — the order matters because a
          crashing sender delivers a prefix/subset chosen by the adversary *)
  work : int list;
      (** work-unit ids performed this round (the model allows one per round;
          the kernel does not enforce this, protocols do) *)
  terminate : bool;  (** retire (successfully) at the end of this round *)
  wakeup : round option;
      (** next round at which the process must be stepped even if it receives
          no message; must be strictly greater than the current round.
          [None] means: step me again only upon message receipt. *)
}

type 's run = {
  unit0 : int;
  units : int;  (** [0 <= units <= len] *)
  len : int;  (** [len >= 1] *)
  at : int -> 's;
}
(** A stretch of pure work declared from a due round [r]: for [i < units]
    the process performs unit [unit0 + i] at round [r + i]; in the rounds
    [r + units .. r + len - 1] it steps and performs nothing. It sends
    nothing and does not terminate in any of the [len] rounds. [at k]
    ([1 <= k <= len]) is its state at the start of round [r + k], and its
    wakeup there is [r + k]. *)

type ('s, 'm) process = {
  init : pid -> 's * round option;
      (** initial state and first wakeup round (typically [Some 0] for the
          initially active process, a deadline for the others). *)
  step : pid -> round -> 's -> 'm envelope list -> ('s, 'm) outcome;
      (** one synchronous round: current state and this round's inbox to
          outcome. Must be pure up to its own state. *)
  ahead : round -> 's -> 's run option;
      (** [ahead r s]: the run the process makes from due round [r] in state
          [s] while no mail arrives, or [None]. Contract: for every
          [1 <= k <= len], [k] successive [step]s with an empty inbox from
          [(r, s)] perform the run's units, send nothing, do not terminate,
          end in state [at k] and ask for wakeup [r + k]. The synchronous
          kernel commits such a run as one range (see {!Kernel}); other
          executors ignore it. *)
}

val no_ahead : round -> 's -> 's run option
(** [ahead] for a process that declares no runs: every round is a step. *)

type status =
  | Running  (** still alive and not terminated *)
  | Terminated of round  (** retired successfully at the end of this round *)
  | Crashed of round  (** failed during this round *)

val is_retired : status -> bool
val status_to_string : status -> string
