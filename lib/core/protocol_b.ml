open Simkit.Types
open Ckpt_script

type msg = Ord of Ckpt_script.ord | Go_ahead

let show_msg = function Ord o -> show_ord o | Go_ahead -> "go_ahead"
let is_passive = function Go_ahead -> true | Ord _ -> false

type mode =
  | Passive
  | Preactive of { next_target : pid }
  | Active of script

type pstate = { mode : mode; last : last; last_at : round }

(* Deadline machinery (Section 2.3). On perfect-square divisible instances
   these reduce to the paper's PTO = n/t + 2, GTO(i) = n/√t + 3√t +
   (√t - ī - 1)PTO + 1; the generalized chunk time [s·⌈n/S⌉ + s + 2G] adds
   only rounding slack. *)

let pto grid = Grid.subchunk_size_max grid + 2

let chunk_time grid =
  let s = Grid.group_size grid in
  (s * Grid.subchunk_size_max grid) + s + (2 * Grid.n_groups grid)

let gto_rank grid rank =
  let s = Grid.group_size grid in
  chunk_time grid + ((s - rank - 1) * pto grid) + 1

let gto grid i = gto_rank grid (Grid.rank_in_group grid i)

let ddb grid j i =
  let gj = Grid.group_of grid j and gi = Grid.group_of grid i in
  if gj = gi then pto grid
  else begin
    assert (gj > gi);
    gto grid i + ((gj - gi - 1) * gto_rank grid 0)
  end

let tt grid j i =
  let gj = Grid.group_of grid j and gi = Grid.group_of grid i in
  if gj = gi then (Grid.rank_in_group grid j - Grid.rank_in_group grid i) * pto grid
  else ddb grid j i + (Grid.rank_in_group grid j * pto grid)

let round_bound grid =
  let t = Spec.processes (Grid.spec grid) in
  Grid.max_active_rounds grid + tt grid (t - 1) 0 + 1

let proc_on_grid grid =
  let inject o = Ord o in
  (* Fictitious round-0 message "(0, G)" from process 0 (Section 2.3): seeds
     the deadline recursion and makes every takeover prologue well-formed
     without reaching the No_msg case. Using g = G makes the prologue's
     continuation Fullcheckpoint(0, G+1) empty. *)
  let fictitious = Last_ord { ord = Full (0, Grid.n_groups grid); src = 0 } in
  let init pid =
    if pid = 0 then ({ mode = Active (work_script grid 0 1); last = fictitious; last_at = 0 }, Some 0)
    else ({ mode = Passive; last = fictitious; last_at = 0 }, Some (ddb grid pid 0))
  in
  let step pid r st inbox =
    let go_active last last_at script_last =
      let o = run_active ~inject r (takeover_script grid pid script_last) in
      {
        state = { mode = Active o.state; last; last_at };
        sends = o.sends;
        work = o.work;
        terminate = o.terminate;
        wakeup = o.wakeup;
      }
    in
    match st.mode with
    | Active script ->
        let o = run_active ~inject r script in
        { state = { st with mode = Active o.state }; sends = o.sends; work = o.work;
          terminate = o.terminate; wakeup = o.wakeup }
    | Passive | Preactive _ -> (
        let ords =
          List.filter_map
            (fun { src; payload; _ } ->
              match payload with Ord o -> Some (src, o) | Go_ahead -> None)
            inbox
        in
        let got_go_ahead =
          List.exists (fun { payload; _ } -> payload = Go_ahead) inbox
        in
        (* At most one active sender per round; keep the latest. *)
        let last, last_at =
          List.fold_left
            (fun (_, _) (src, ord) -> (Last_ord { ord; src }, r))
            (st.last, st.last_at) ords
        in
        if knows_all_done grid pid last then
          { state = { st with last; last_at }; sends = []; work = [];
            terminate = true; wakeup = None }
        else if got_go_ahead then
          (* A probed live process becomes active immediately; its first
             action is an own-group broadcast, which reaches the prober. *)
          go_active last last_at last
        else if ords <> [] then
          (* Fresh news: back to passive with a renewed deadline. *)
          let src = match last with Last_ord { src; _ } -> src | No_msg -> 0 in
          { state = { mode = Passive; last; last_at }; sends = []; work = [];
            terminate = false; wakeup = Some (r + ddb grid pid src) }
        else
          (* Woken by a deadline with an empty inbox. *)
          let src = match st.last with Last_ord { src; _ } -> src | No_msg -> 0 in
          let first_target =
            match st.mode with
            | Preactive { next_target } -> next_target
            | Passive | Active _ ->
                (* entering the preactive phase (PreactivePhase, Figure 2) *)
                if Grid.group_of grid src <> Grid.group_of grid pid then
                  (Grid.group_of grid pid - 1) * Grid.group_size grid
                else src + 1
          in
          if first_target >= pid then go_active st.last st.last_at st.last
          else
            {
              state = { st with mode = Preactive { next_target = first_target + 1 } };
              sends = [ { dst = first_target; payload = Go_ahead } ];
              work = [];
              terminate = false;
              wakeup = Some (r + pto grid);
            })
  in
  let ahead _r st =
    match st.mode with
    | Active script -> Ckpt_script.ahead (fun s -> { st with mode = Active s }) script
    | Passive | Preactive _ -> None
  in
  { init; step; ahead }

let resume_state grid pid ~at last =
  (* A rejoiner resumes passive with its recovered view. Guard the
     transferred source: a state-transfer reply can carry a view whose
     sender sits in a {e higher} group than the rejoiner — a configuration
     unreachable under normal operation (an active's full checkpoints go
     only to groups above its own), for which DDB(j, i) is undefined.
     Re-attribute such a view to process 0 (group 0): the checkpoint
     content is what matters for resumption, and DDB(j, 0) is the most
     conservative (largest) deadline, so the rejoiner defers longest before
     probing. *)
  let fictitious = Last_ord { ord = Full (0, Grid.n_groups grid); src = 0 } in
  let last =
    match last with
    | No_msg -> fictitious
    | Last_ord { ord; src } ->
        if Grid.group_of grid src > Grid.group_of grid pid then
          Last_ord { ord; src = 0 }
        else last
  in
  let src = match last with Last_ord { src; _ } -> src | No_msg -> 0 in
  let wake =
    if knows_all_done grid pid last then at + 1 else at + ddb grid pid src
  in
  ({ mode = Passive; last; last_at = at }, Some wake)

let make spec =
  let grid = Grid.make spec in
  Protocol.Packed
    { proc = proc_on_grid grid; show = show_msg; passive = is_passive }

let protocol =
  {
    Protocol.name = "B";
    describe = "work-optimal, O(t^1.5) msgs, O(n+t) rounds (Thm 2.8)";
    make;
  }
