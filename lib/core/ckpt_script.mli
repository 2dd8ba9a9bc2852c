(** The checkpointing work script shared by Protocols A and B (Figure 1's
    [DoWork], [Partialcheckpoint] and [Fullcheckpoint] procedures).

    Both protocols have the same active-process behaviour — perform the work
    subchunk by subchunk, partially checkpointing each subchunk to the
    own-group remainder and fully checkpointing each chunk to every higher
    group — and differ only in how a process decides to {e become} active.

    As in Figure 1, where an active process's place is just the last
    completed subchunk [c] and the group [g] being informed, a {!script} is
    an O(1) cursor over that sequence, not a list of its actions: the
    next unit of subchunk [c], the partial checkpoint of [c], the full
    checkpoint [(c, g)] to group [g], its echo to the own-group
    remainder, or finished. {!run_active} takes one action per
    round and moves the cursor in O(1); a takeover only picks the starting
    position. *)

open Simkit.Types

type ord = Partial of int | Full of int * int
(** Ordinary messages: [(c)] and [(c, g)] of the paper. *)

val show_ord : ord -> string

type script
(** An active process's position in its script: O(1) words, immutable. *)

val script_rounds : script -> int
(** Number of synchronous rounds the script takes to drain: one per
    broadcast (recipients or not), one per work unit. *)

type last = No_msg | Last_ord of { ord : ord; src : pid }
(** A process's knowledge: the last ordinary message it received. *)

val c_of_last : last -> int
(** Highest completed subchunk the message vouches for; [0] for [No_msg]. *)

val work_script : Grid.t -> pid -> int -> script
(** [work_script grid j from_sub] — Figure 1 lines 10–14: perform subchunks
    [from_sub .. S], checkpointing as required, as process [j]. O(1). *)

val takeover_script : Grid.t -> pid -> last -> script
(** [takeover_script grid j last] — Figure 1 lines 1–9 followed by the work
    script: complete the checkpoint the previous active process died in,
    then resume the work after the last completed subchunk. The first action
    is always a broadcast to [j]'s own-group remainder (Protocol B's
    one-round go-ahead response relies on this). O(1). *)

val knows_all_done : Grid.t -> pid -> last -> bool
(** True iff the message says all work is done and [j]'s obligations are
    discharged: [(S)] or [(S, g_j)] (Section 2.1 termination rule). *)

val run_active :
  inject:(ord -> 'm) ->
  ?map_dst:(pid -> pid) ->
  ?map_unit:(int -> int) ->
  round ->
  script ->
  (script, 'm) outcome
(** Take the script's current action as this round's outcome and advance
    the cursor; the round that takes the last action terminates, as does a
    step on a finished script. A broadcast's sends share one [inject]ed
    payload. [map_dst]/[map_unit] translate script-local ranks and unit
    indices to real pids and unit ids (used by Protocol D's embedded copy of
    Protocol A, which runs over the surviving processes and the remaining
    units). *)

val ahead : (script -> 's) -> script -> 's run option
(** The run the script makes from its current position with the identity
    unit map: a subchunk's remaining units, after which the next state is
    the partial checkpoint; [None] at any broadcast or when finished.
    [wrap] turns the script into the process state. Each of the run's
    rounds equals a {!run_active} step without [map_unit]; Protocol D's
    embedded copy of A maps its units and declares no runs. *)
