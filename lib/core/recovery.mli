(** Recovery-hardened Do-All: Protocols A and B under the crash–recovery
    fault model.

    The crash-stop protocols of the paper assume a crashed process is gone
    for good. This module wraps them for the stronger adversary of
    [Simkit.Fault] restart schedules, in which a crashed machine can come
    back with its volatile state wiped. Three mechanisms make the wrapped
    protocols survive that:

    {ul
    {- {e Stable-storage checkpointing.} Every process mirrors its best
       checkpoint view — the strongest [Ckpt_script.last] it has sent or
       received — to its [Simkit.Stable] cell, writing only on strict
       improvement so the persistence budget ({!Simkit.Metrics.persists})
       stays bounded by the number of distinct view ranks.}
    {- {e State-transfer handshake.} A rejoiner spends [rejoin_rounds]
       rounds rebooting: it broadcasts [Announce], live peers reply with
       [Transfer] of their best view, and it resumes from the maximum of
       the replies and its own stable cell via the protocol's
       [resume_state] (a passive state with a fresh, pid-staggered
       deadline).}
    {- {e Inbox sanitization.} Under crash–recovery two active processes
       can briefly overlap (a rejoiner's staggered deadline may fire inside
       another active's era), breaking the protocols' one-active-sender
       assumption. The wrapper delivers at most one view-carrying message
       per round to the inner protocol — the best-ranked one — so stale
       checkpoints can never overwrite fresher news.}}

    Correctness under restart storms (checked by [Fuzz] recovery oracles):
    every execution completes, all [n] units are performed whenever a
    process survives, and per-unit multiplicity stays below the incarnation
    count [t + restarts]. *)

type which = A | B

val name : which -> string
(** ["A+rec"] / ["B+rec"], the protocol name in reports. *)

val view_rank : Ckpt_script.last -> int * int
(** Total preorder on checkpoint views, lexicographic: completed subchunk,
    then partial [<] full ordered by informed-group index. Exposed for
    tests. *)

(** {1 Deployment hooks}

    The pieces [run] composes, exported so a real [dhw_node] process can
    host exactly the same recovery-hardened per-pid process over sockets:
    the wrapper message type, the protocol adapters, the hardening
    combinator and the restart hook. The node supplies a
    [Simkit.Stable.t] whose [on_write] mirrors the cell to disk
    ([Dhw_net.Ckpt]), which is what makes "persist survives a crash" true
    under a real [SIGKILL]. *)

type 'm rmsg =
  | Payload of 'm  (** an inner-protocol message, passed through *)
  | Announce  (** rejoiner's state-transfer request, broadcast on revival *)
  | Transfer of Ckpt_script.last  (** a peer's reply: its best durable view *)

val show_rmsg : ('m -> string) -> 'm rmsg -> string

type 's rstate
(** Wrapper state: the inner protocol's state (or a rejoin handshake in
    progress) plus the best checkpoint view seen. *)

type ('s, 'm) adapter = {
  n_procs : int;
  init : Simkit.Types.pid -> 's * Simkit.Types.round option;
  step :
    Simkit.Types.pid ->
    Simkit.Types.round ->
    's ->
    'm Simkit.Types.envelope list ->
    ('s, 'm) Simkit.Types.outcome;
  show : 'm -> string;
  passive : 'm -> bool;  (** as {!Protocol.packed}'s *)
  view_of : 'm -> Ckpt_script.ord option;
  resume :
    Simkit.Types.pid ->
    at:Simkit.Types.round ->
    Ckpt_script.last ->
    's * Simkit.Types.round option;
}
(** How the wrapper speaks one inner protocol: its process function, its
    view-extraction map and its post-rejoin resume state. *)

val adapter_a : Grid.t -> (Protocol_a.state, Protocol_a.msg) adapter
val adapter_b : Grid.t -> (Protocol_b.pstate, Protocol_b.msg) adapter

val harden :
  ('s, 'm) adapter ->
  stable:Ckpt_script.last Simkit.Stable.t ->
  ('s rstate, 'm rmsg) Simkit.Types.process
(** The recovery-hardened per-pid process: checkpoint mirroring on strict
    view-rank improvement, Announce/Transfer state transfer, and best-rank
    inbox sanitization — the exact process [run] feeds the kernel. *)

val recover_hook :
  Ckpt_script.last Simkit.Stable.t ->
  rejoin_rounds:int ->
  Simkit.Types.pid ->
  Simkit.Types.round ->
  's rstate * Simkit.Types.round option
(** The state a restarted incarnation adopts at its revival round: a
    rejoin handshake window seeded from the pid's stable cell. *)

val run :
  ?fault:Simkit.Fault.t ->
  ?max_rounds:int ->
  ?obs:Simkit.Obs.sink ->
  ?spans:Simkit.Obs.sink ->
  ?audit:Simkit.Audit.t ->
  ?rejoin_rounds:int ->
  Spec.t ->
  which ->
  Runner.report
(** Execute the recovery-hardened protocol under [fault] (typically built
    from a schedule with restart entries). The returned report's metrics
    include committed restarts and stable-storage writes
    ({!Simkit.Metrics.restarts} / {!Simkit.Metrics.persists}).
    [rejoin_rounds] (default 3) is the state-transfer window: announce,
    peer replies in flight, absorb — a rejoiner resumes at
    [restart round + rejoin_rounds]. With [rejoin_rounds = 0] a rejoiner
    resumes immediately from its own stable cell alone. [obs] receives the
    execution events as in {!Runner.run} plus one [Persist] per stable
    write, inside the writer's step (after its [Step], before its [Work]).
    [audit] is fed as in {!Runner.run}; the wrapper's own
    [Announce]/[Transfer] traffic is not passive. *)
