open Simkit.Types
open Ckpt_script

type msg = Ckpt_script.ord = Partial of int | Full of int * int

let show_msg = Ckpt_script.show_ord

(* A waiting process carries its own takeover deadline: for the original
   incarnations it is the static [DD(j) = j·L] ladder, but a rejoiner
   resumed by [Doall.Recovery] gets a fresh deadline staggered into the
   future relative to its restart round. *)
type state = Waiting of { last : last; deadline : round } | Active of script

let deadline grid j = j * Grid.max_active_rounds grid

let proc_on_grid grid =
  let inject = Fun.id in
  let init pid =
    if pid = 0 then (Active (work_script grid 0 1), Some 0)
    else
      ( Waiting { last = No_msg; deadline = deadline grid pid },
        Some (deadline grid pid) )
  in
  let step pid r st inbox =
    match st with
    | Active script ->
        let o = run_active ~inject r script in
        { o with state = Active o.state }
    | Waiting { last; deadline = dl } ->
        (* At most one process is active, so at most one ordinary message
           arrives per round; the fold keeps the latest for robustness. *)
        let last =
          List.fold_left
            (fun _acc { src; payload; _ } -> Last_ord { ord = payload; src })
            last inbox
        in
        if knows_all_done grid pid last then
          { state = Waiting { last; deadline = dl }; sends = []; work = [];
            terminate = true; wakeup = None }
        else if r >= dl then
          let o = run_active ~inject r (takeover_script grid pid last) in
          { o with state = Active o.state }
        else
          {
            state = Waiting { last; deadline = dl };
            sends = [];
            work = [];
            terminate = false;
            wakeup = Some dl;
          }
  in
  let ahead _r = function
    | Active script -> Ckpt_script.ahead (fun s -> Active s) script
    | Waiting _ -> None
  in
  { init; step; ahead }

let resume_state grid pid ~at last =
  (* A fresh deadline ladder relative to the rejoin round, staggered by pid
     so simultaneous rejoiners never share a takeover round; [pid + 1]
     leaves a full era for whoever is currently active to finish and
     broadcast the news. *)
  let dl = at + ((pid + 1) * Grid.max_active_rounds grid) in
  let wake = if knows_all_done grid pid last then at + 1 else dl in
  (Waiting { last; deadline = dl }, Some wake)

let make_on_grid grid =
  Protocol.Packed
    { proc = proc_on_grid grid; show = show_msg; passive = Protocol.no_passive }

let protocol =
  {
    Protocol.name = "A";
    describe = "work-optimal, O(t^1.5) msgs, O(nt) worst-case rounds (Thm 2.3)";
    make = (fun spec -> make_on_grid (Grid.make spec));
  }

let protocol_with_group_size s =
  {
    Protocol.name = Printf.sprintf "A[s=%d]" s;
    describe = "Protocol A with a non-standard checkpoint-group size";
    make = (fun spec -> make_on_grid (Grid.make_with_group_size spec s));
  }
