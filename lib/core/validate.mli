(** Validated-message hardening of Protocol A against corruption and
    Byzantine adversaries (the [Corrupt]/[Byzantine] powers of
    [Simkit.Fault] schedules).

    The crash-stop protocols trust every checkpoint view they receive:
    [Ckpt_script.knows_all_done] accepts a single [(S)] or [(S, g_j)]
    message, so one forged "all done" retires a waiting process with the
    work unperformed — the {e phantom-termination} attack (demonstrably
    found by [doall_cli byz-fuzz] against plain A). This module wraps
    Protocol A with two mechanisms:

    {ul
    {- {e Authenticated views.} Every message carries a per-sender keyed
       digest over its view payload ({!signed}). A receiver drops anything
       whose authenticator does not verify against the named claimant
       ({!verify}), so in-flight corruption and impersonation are rejected
       outright (counted via [Simkit.Metrics.record_reject] / observed as
       [Obs.Reject]). A Byzantine process still signs lies with its own
       key — authentication alone cannot stop it.}
    {- {e Quorum attestation.} Each process folds verified claims into a
       per-signer table of claimed completed subchunks (monotone) and
       believes only the [(f+1)]-th largest claim, [f = {!tolerated} p]:
       any [f+1] distinct signers include an honest one, and honest claims
       are anchored — an honest process only claims subchunks derived from
       its own work or from previously attested views — so the attested
       prefix is truly done. The inner protocol sees exactly one synthetic
       message per step (the attested subchunk, as a partial checkpoint)
       and nothing else.}}

    Correctness: under any schedule with [b <= f] Byzantine processes,
    ["A+val"] never reports an unprocessed unit done — a process terminates
    only on an attested all-done view. The price is redundancy: a
    completion claim is only believed once [f+1] distinct processes have
    independently reached it, so worst-case (and, with [b] subverted
    workers, typical) work is [≈ (f+1)·n] — the overhead bench E20
    measures. Liveness never depends on the quorum: the deadline ladder
    fires regardless, so starved processes take over and do the work
    themselves. *)

open Simkit.Types

(** {1 Authenticated views} *)

type signed = {
  body : Ckpt_script.ord;
  claimant : pid;  (** who claims the view (must equal the wire source) *)
  auth : int64;  (** keyed digest over [(claimant, body)] *)
}

val show_signed : signed -> string

val sign : pid -> Ckpt_script.ord -> signed

val verify : src:pid -> signed -> bool
(** True iff the claimant is the wire source and the authenticator matches.
    The digest is a keyed splitmix64 mix — enough to make forging another
    process's signature impossible for the simulated adversary, which never
    attempts inversion. *)

val tolerated : int -> int
(** [tolerated p = (p - 1) / 3]: the Byzantine tolerance [f] of a [p]-process
    instance ([p >= 3f + 1]). *)

val claimed_subchunk : Ckpt_script.ord -> int
(** The completed subchunk a view vouches for — what quorum attestation
    cross-checks across signers. *)

val attested : f:int -> int option array -> (pid * int) option
(** The [(f+1)]-th largest per-signer claimed subchunk (claims descending,
    claimant ascending), as [(claimant, subchunk)] — [None] until [f+1]
    distinct signers have claimed anything. The quorum rule both the sync
    and async validation wrappers believe. *)

(** {1 Tamper models}

    How the adversary speaks each message type (consumed by
    [Simkit.Kernel]'s [?tamper]). Both are pure: forged traffic is drawn
    from dedicated PRNG streams keyed by [(pid, round)], never from
    generator state, so runs replay bit-for-bit at any [--jobs] level. *)

val mutate_body :
  Grid.t -> Simkit.Fault.tamper -> dst:pid -> Ckpt_script.ord -> Ckpt_script.ord
(** The in-flight garbling both substrates share: [Lying_view] rewrites to
    [Full (S, g_dst)], [Replay_stale] regresses to a salted stale partial,
    [Inflate_done] bumps the claimed subchunk. *)

val forge_plain : Grid.t -> pid -> at:int -> (pid * Ckpt_script.ord) list
(** The raw-alphabet forged salvo of a Byzantine [pid] at a round/tick: 1–2
    [(dst, body)] lies, mostly phantom-termination shaped, drawn from a
    dedicated stream keyed by [(pid, at)] (pure — replays bit-for-bit). *)

val forge_signed : Grid.t -> pid -> at:int -> (pid * signed) list
(** The authenticated-alphabet salvo: the same lies, self-signed — plus an
    occasional impersonation with a junk authenticator (rejected). *)

val tamper_plain : Grid.t -> Protocol_a.msg Simkit.Kernel.tamper_model
(** Lies in the raw checkpoint alphabet. [mutate] realizes the
    [Fault.tamper] kinds — [Lying_view] rewrites the payload to
    [Full (S, g_dst)] (the exact shape [knows_all_done] accepts),
    [Replay_stale] regresses it to a salted stale partial, [Inflate_done]
    bumps the claimed subchunk. [forge] sends 1–2 such lies per round,
    mostly phantom-termination shaped. *)

val tamper_signed : Grid.t -> signed Simkit.Kernel.tamper_model
(** The same lies against the hardened protocol. [mutate] garbles the body
    but keeps the stale authenticator (the receiver rejects it); [forge]
    signs lies with the Byzantine process's own key — the attack quorum
    attestation exists to absorb — and occasionally attempts an
    impersonation with a junk authenticator (rejected). *)

(** {1 The hardened protocol} *)

type vstate
(** Wrapper state: inner Protocol A state, the per-signer claim table, and
    the rank of the last attested view delivered. *)

val proc_validated :
  Grid.t -> on_reject:(pid:pid -> at:round -> unit) -> (vstate, signed) process
(** The raw wrapped process — what {!run} executes. [on_reject] fires once
    per dropped message (the metrics/observability hook). *)

val name : string
(** ["A+val"], the protocol name in reports. *)

val run :
  ?fault:Simkit.Fault.t ->
  ?max_rounds:int ->
  ?obs:Simkit.Obs.sink ->
  Spec.t ->
  Runner.report
(** Execute hardened Protocol A under [fault], with {!tamper_signed} wired
    into the kernel so [Corrupt]/[Byzantine] schedule entries act. The
    report's metrics include {!Simkit.Metrics.corruptions} (adversary
    activity) and {!Simkit.Metrics.rejected} (messages the validation layer
    refused); [obs] receives the execution events plus a [Tamper] per
    corrupted payload and a [Reject] per refusal. Byzantine runs should set
    [max_rounds] — a subverted pid acts every round, so a liveness bug
    surfaces as [Round_limit]. *)

val run_unhardened :
  ?fault:Simkit.Fault.t ->
  ?max_rounds:int ->
  ?obs:Simkit.Obs.sink ->
  Spec.t ->
  Runner.report
(** Plain Protocol A with {!tamper_plain} wired in — the exposed baseline
    the byz fuzzer breaks (protocol name ["A"]). Against it, a single
    forged [Full (S, g_j)] retires process [j] with the work undone. *)
