(** The asynchronous variant of Protocol A (the Section 2.1 remark): instead
    of waiting until round [DD(j)], process [j] takes over as soon as the
    failure-detection service has reported every process [< j] retired.

    Soundness of the detector gives at-most-one-active; completeness gives
    liveness. Work and message counts obey Theorem 2.3's bounds — time is
    whatever the delay adversary makes it. *)

type msg = Doall.Ckpt_script.ord
(** The only protocol payload is a checkpoint ordinal — public so the
    real-process deployment can put it on the wire with the shared
    [Ckpt_script.ord] codec instead of a parallel serializer. *)

val show_msg : msg -> string

type state
(** Per-process protocol state (awaiting the detector, or mid-script). *)

val aproc : Doall.Spec.t -> (state, msg) Event_sim.aproc
(** The bare state machine, for wrapping ({!Link.harden}) or custom
    executor configurations. *)

val aproc_recover :
  last:Doall.Ckpt_script.last -> Doall.Spec.t -> (state, msg) Event_sim.aproc
(** The state machine a {e restarted} incarnation runs: it starts waiting,
    seeded with [last] — its best checkpoint knowledge read back from disk
    — and never self-activates on [Started] (even pid 0, whose vacuous
    takeover right would duplicate the active chain on every respawn);
    activation still happens organically once every lower pid is reported
    retired. If [last] already proves all work done the incarnation
    terminates immediately. This is the async counterpart of
    {!Doall.Recovery.recover_hook}, used by the real-process fleet's
    [--recover] respawns. *)

val run :
  ?crash_at:(Simkit.Types.pid * Event_sim.time) list ->
  ?max_delay:int ->
  ?max_lag:int ->
  ?seed:int64 ->
  ?false_suspicions:(Simkit.Types.pid * Simkit.Types.pid * Event_sim.time) list ->
  ?link:Event_sim.link ->
  ?obs:Simkit.Obs.sink ->
  Doall.Spec.t ->
  Event_sim.result
(** Build and execute the asynchronous Protocol A on an instance, over the
    oracle detection service. With [false_suspicions] the detector's
    soundness is deliberately violated: the falsely-convinced process may
    become active alongside the real one, so work is duplicated — but since
    the work is idempotent, every unit is still performed (the precise
    reason Section 2.1 requires soundness is efficiency, not safety). With
    [link], messages are additionally lost/duplicated/delayed; the
    takeover chain still completes every unit, at a work and message
    overhead. *)

val default_heartbeat : max_delay:int -> Heartbeat.config
(** The heartbeat configuration {!run_hardened} derives from the delay
    bound: period [max 4 (2 * max_delay)], timeout six periods, backoff 2. *)

val run_hardened :
  ?crash_at:(Simkit.Types.pid * Event_sim.time) list ->
  ?max_delay:int ->
  ?max_lag:int ->
  ?seed:int64 ->
  ?false_suspicions:(Simkit.Types.pid * Simkit.Types.pid * Event_sim.time) list ->
  ?link:Event_sim.link ->
  ?link_config:Link.config ->
  ?heartbeat:Heartbeat.config ->
  ?stats:Link.stats ->
  ?max_ticks:Event_sim.time ->
  ?byz:(Simkit.Types.pid * Event_sim.time) list ->
  ?obs:Simkit.Obs.sink ->
  Doall.Spec.t ->
  Event_sim.result
(** Protocol A over {!Link.harden}: ack/retransmit reliable delivery plus
    an {!Heartbeat} detector instead of the oracle ([oracle_detector] is
    off — every retirement is detected organically, and suspicions can be
    organically false). Under a lossy [link] the run still completes every
    unit with every live process terminating; the overhead relative to a
    perfect-link run is the price of the unreliable network (bench E17).

    The raw-alphabet wire tamper model is wired in, so a [corrupt_bp] link
    and [byz] subversions act: this is the {e exposed} baseline the
    [byz-fuzz --async] campaign breaks — one forged or garbled
    [Full (S, g_j)] data frame retires waiting process [j] with the work
    undone. A subverted pid stops beating, so the heartbeat layer suspects
    it and the honest takeover chain stays live. Without [byz] and with
    [corrupt_bp = 0] the model is inert and runs are byte-identical to
    before it existed. *)

val validated_name : string
(** ["async-a+val"], the meta/CLI name of {!run_validated}. *)

val run_validated :
  ?crash_at:(Simkit.Types.pid * Event_sim.time) list ->
  ?max_delay:int ->
  ?max_lag:int ->
  ?seed:int64 ->
  ?false_suspicions:(Simkit.Types.pid * Simkit.Types.pid * Event_sim.time) list ->
  ?link:Event_sim.link ->
  ?link_config:Link.config ->
  ?heartbeat:Heartbeat.config ->
  ?stats:Link.stats ->
  ?max_ticks:Event_sim.time ->
  ?byz:(Simkit.Types.pid * Event_sim.time) list ->
  ?obs:Simkit.Obs.sink ->
  Doall.Spec.t ->
  Event_sim.result
(** {!run_hardened} upgraded with the [Doall.Validate] hardening layer:
    every checkpoint view travels as an authenticated
    [Doall.Validate.signed] claim inside the reliable-link frames,
    unverifiable frames are dropped ([Simkit.Metrics.rejected] /
    [Obs.Reject]), and the inner state machine only ever sees the
    [(f+1)]-quorum-attested subchunk, [f = Doall.Validate.tolerated p]. A
    waiting process therefore terminates only once [f+1] distinct signers
    — hence at least one honest process — have claimed all-done: under any
    [byz] schedule with at most [f] subverted pids, no phantom
    termination. The price is the takeover chain running [f+1] scripts to
    completion ([≈ (f+1)·n] work) instead of one; liveness never depends
    on the quorum — a subverted or retired active stops beating, so the
    next process takes over organically. *)

(** {1 Parts of the hardened runs}

    What {!run_hardened} and {!run_validated} assemble around {!aproc},
    exposed so a test can run the same protocols over a reference
    substrate. *)

val wire_tamper_plain : Doall.Grid.t -> msg Link.wire Event_sim.tamper_model
(** {!run_hardened}'s tamper model: garbles and forges [Data] frames only. *)

val wire_tamper_signed :
  Doall.Grid.t -> Doall.Validate.signed Link.wire Event_sim.tamper_model
(** {!run_validated}'s tamper model: a garbled body keeps its stale
    authenticator, so validation rejects it. *)

type vstate
(** The validation layer's state around the inner one. *)

val validate_wrap :
  Doall.Grid.t ->
  on_reject:(pid:Simkit.Types.pid -> at:Event_sim.time -> unit) ->
  (state, msg) Event_sim.aproc ->
  (vstate, Doall.Validate.signed) Event_sim.aproc
(** {!run_validated}'s validation layer. *)

val byz_link_config :
  Link.config option ->
  (Simkit.Types.pid * Event_sim.time) list option ->
  Link.config option
(** The link configuration a run with [byz] subversions uses when the
    caller chose none: retransmissions bounded at 8, so a subverted peer
    that never acks cannot hold a draining sender forever. *)
