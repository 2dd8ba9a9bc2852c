(** The asynchronous deployment-mode node driver: one OS process running
    the exact state machines the simulator fuzzes — [Asim.Link.harden]
    (acks, retransmission, dedup, heartbeat ◇P detection) wrapped around
    [Asim.Async_protocol_a] and driven by [Asim.Engine] — over a
    {!Mesh} of unix datagram sockets, with {!Chaos} applied to its own
    outgoing traffic.

    There is no control plane in the data path: peers exchange protocol
    messages and heartbeats directly, each node derives retirement
    verdicts from its own detector, and the orchestrator only spawns,
    kills and collects. Per incarnation the node appends a
    [trace-p<pid>-i<inc>.jsonl] span stream (flushed per line — a SIGKILL
    loses at most the current line), persists its best checkpoint
    knowledge through {!Ckpt}, and on clean termination writes an atomic
    [result-p<pid>.bin] counter bag.

    A clean exit is announced: the terminating node sends each peer a few
    [Codec.P_bye] copies through {!Chaos}, and a peer that receives one
    hands it to [Asim.Engine.notice], so it stops monitoring the node and
    stops waiting for its acks, as the Section 2.1 detection service
    reports terminations. If every copy is lost, the peer's heartbeat
    timeout still retires the node. A SIGKILLed node sends nothing and is
    detected by heartbeats alone. *)

val default_tick_ms : int
(** The wall-clock length of one tick when none is given: 5 ms. The
    fleet, the node binary and the CLI all default to it. *)

type config = {
  dir : string;  (** run directory: sockets, checkpoints, traces, results *)
  pid : int;
  spec : Doall.Spec.t;
  incarnation : int;  (** 0 at first spawn, bumped per [--recover] respawn *)
  recover : bool;
      (** run [Async_protocol_a.aproc_recover] seeded from the on-disk
          checkpoint instead of the fresh state machine *)
  tick_ms : int;  (** wall-clock quantum one protocol tick maps to *)
  epoch_ms : float;
      (** fleet-global start (wall-clock ms): every node derives its tick
          counter from the same origin, so chaos windows and trace rounds
          line up across processes and incarnations *)
  plan : Chaos.plan;
  max_ticks : int;  (** stall bound; exceeded → exit 3 *)
  hb_period : int;
  hb_timeout : int;
  rto : int;
}

val config :
  ?incarnation:int ->
  ?recover:bool ->
  ?tick_ms:int ->
  ?plan:Chaos.plan ->
  ?max_ticks:int ->
  ?hb_period:int ->
  ?hb_timeout:int ->
  ?rto:int ->
  dir:string ->
  pid:int ->
  spec:Doall.Spec.t ->
  epoch_ms:float ->
  unit ->
  config
(** Defaults: incarnation 0, no recover, tick {!default_tick_ms}, no
    chaos, max_ticks 200_000, heartbeat period 10 / timeout 60 ticks, rto
    16 ticks. *)

val result_path : dir:string -> pid:int -> string
val trace_path : dir:string -> pid:int -> inc:int -> string

val boundary_sleep_s :
  epoch_ms:float -> tick_ms:int -> now_ms:float -> deadline:int -> float
(** How long a node at wall-clock [now_ms] sleeps to wake at the start of
    tick [deadline], which begins at [epoch_ms + deadline * tick_ms]: never
    negative and never above 50 ms, so arrivals stay responsive.
    [deadline = max_int] (nothing scheduled) gives the 50 ms cap. Waking at
    the tick boundary, not a whole tick after the current instant, keeps a
    step from overshooting its tick by however far into the tick the node
    woke. *)

val run : config -> int
(** Run to completion; returns the process exit code — [0] terminated
    (every unit known done, transport drained), [3] stalled past
    [max_ticks]. On [0] the node first says bye to every peer that has not
    said bye to it, and then sends each datagram still held by chaos
    delay at its release tick (at most [max_delay * slow_factor] ticks),
    so its last acks are not lost with it. Either way the result file is
    written atomically before returning. *)
