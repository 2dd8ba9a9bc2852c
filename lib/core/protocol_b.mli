(** Protocol B (Sections 2.3–2.4, Figure 2).

    Same active-process behaviour as Protocol A, but with message-relative
    deadlines and a polling {e preactive} phase that together bring the
    worst-case running time down from [O(nt + t²)] to [O(n + t)] rounds
    (Theorem 2.8: ≤ 3n work, ≤ 10t√t messages, all retired by round
    [3n + 8t], up to rounding slack on non-perfect-square instances).

    A process [j] whose last ordinary message arrived from [i] at round [r']
    becomes {e preactive} at round [r' + DDB(j,i)]; it then sends [go_ahead]
    probes to the lower-numbered members of its group that it cannot prove
    retired, one every [PTO] rounds. A probed live process becomes active
    (its first takeover action is an own-group broadcast, which reaches the
    prober within a round). If no probe is answered the prober becomes
    active itself.

    By convention every process pretends to have received a fictitious
    ordinary message [(0, G)] from process 0 at round 0, which seeds the
    deadline recursion.

    Deviation from the published pseudocode (documented in DESIGN.md): a
    probed process becomes active regardless of whether its last checkpoint
    [c] equals the final subchunk. The published "[c < t]" guard would let a
    probed process silently ignore the probe, after which both the prober
    and (later) the probed process become active — violating the
    at-most-one-active invariant the correctness proof depends on. A probed
    process that knows all work is done merely finishes the outstanding full
    checkpoint and terminates. *)

type msg = Ord of Ckpt_script.ord | Go_ahead

val show_msg : msg -> string

val is_passive : msg -> bool
(** [Go_ahead]: a probed process's reply does not make it active. *)

val protocol : Protocol.t

(** {1 Deadline functions} (exposed for tests and benches) *)

val pto : Grid.t -> int
(** Process timeout: [n/t + 2] in the paper's units. *)

val gto : Grid.t -> int -> int
(** [gto grid i] — group timeout [GTO(i)]. *)

val ddb : Grid.t -> int -> int -> int
(** [ddb grid j i] — the deadline [DDB(j, i)]. *)

val round_bound : Grid.t -> int
(** The Theorem 2.8(c) bound on the retirement round, computed with this
    implementation's (slightly slackened) constants:
    [n + 3t + TT(t-1, 0)]. *)

(** {1 Crash–recovery hooks} (consumed by [Doall.Recovery]) *)

type pstate
(** A process state: passive, preactive (probing) or active. *)

val proc_on_grid : Grid.t -> (pstate, msg) Simkit.Types.process
(** The raw process function, un-packed — what {!protocol} wraps. *)

val resume_state :
  Grid.t ->
  Simkit.Types.pid ->
  at:Simkit.Types.round ->
  Ckpt_script.last ->
  pstate * Simkit.Types.round option
(** [resume_state grid pid ~at last] is the passive state a rejoiner adopts
    after its state-transfer handshake: the recovered view (the fictitious
    round-0 message when [last] is [No_msg]; re-attributed to process 0 when
    its sender's group is above the rejoiner's, where [DDB] is undefined)
    with [last_at = at] and a fresh [DDB]-relative deadline. The returned
    wakeup is [at + 1] when the view already proves all work done. *)
