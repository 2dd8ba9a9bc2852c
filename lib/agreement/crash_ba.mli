(** Byzantine agreement (crash-failure model) from work protocols, Section 5.

    The construction: the general broadcasts its value to the [t+1] {e
    senders} (processes [0..t]); the senders then run a Do-All protocol in
    which work unit [i] means "send the general's value to process [i]".
    Every process decides, at a predetermined time, on the last value it was
    told (default 0). With Protocol C, which can repeat a unit with a stale
    value, every protocol message additionally carries the sender's current
    value; with Protocols A and B the checkpoint messages deliberately do
    {e not} carry values (the correctness argument depends on it).

    Resulting message complexity: [O(n + t√t)] with A/B (matching Bracha's
    nonconstructive bound, constructively), [O(n + t log t)] with C.

    Implementation: the sender work-run executes on the synchronous kernel
    into an [Obs.memory] sink, and the recorded events are then replayed to
    track value adoption round by round — a performed unit [u] at round [r]
    delivers the performer's current value to process [u] at round [r+1];
    for Protocol C every checkpointing message also delivers the sender's
    value. Crash schedules must be silent crashes
    (crash-at-round), which is what the Section 5 analysis considers. *)

type work_protocol = A | B | C | C_chunked

type outcome = {
  decisions : int array;  (** final value per process; [-1] for crashed *)
  correct : bool array;  (** never crashed *)
  agreement : bool;  (** all correct processes decided the same value *)
  validity : bool;
      (** general correct implies every correct process decided its value
          (vacuously true when the general crashes) *)
  messages : int;
      (** stage-1 informs + sender-protocol messages + the [n] unit-informs *)
  work_messages : int;  (** the sender protocol's own messages *)
  rounds : int;
  sender_work : int;  (** units performed by the senders, with multiplicity *)
}

val run :
  n:int ->
  t_bound:int ->
  value:int ->
  ?crash_at:(Simkit.Types.pid * int) list ->
  ?general_cut:int ->
  work_protocol ->
  outcome
(** [run ~n ~t_bound ~value ?crash_at ?general_cut proto] — [n] processes,
    at most [t_bound] may crash, senders are [0..t_bound]. [crash_at] lists
    silent crashes in work-run rounds (the general's own entry should be
    [(0, 0)] when [general_cut] is used). [general_cut = Some k] makes the
    general crash during its stage-1 broadcast after informing senders
    [0..k-1].

    @raise Invalid_argument if [t_bound + 1 > n] or [t_bound < 0]. *)

(** {1 Comparison lines for bench E6} *)

val bracha_msgs : n:int -> t:int -> int
(** [n + t√t], the (nonconstructive) bound of Bracha 1984. *)

val gmy_msgs : n:int -> int
(** [O(n)] — Galil–Mayer–Yung 1995, plotted as [4n]. *)
