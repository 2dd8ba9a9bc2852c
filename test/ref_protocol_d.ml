(* Reference model of Doall.Protocol_d: the list-based version it replaced.
   Each broadcast rebuilds its [View] payload per recipient, [agree_step]
   collects a list of (sender, S, T, done) tuples, turns the senders into
   a set and unions every view's T, and a reverted waiter finds a sender's
   A-rank by a linear scan. The library's one-pass merge over scratch
   bitmaps must take the same steps; test_protocol_d_diff.ml runs both
   under the same kernel and fault plan and compares everything a run
   exposes. Only the packaging differs from the library: [proc] returns
   the process with its state type visible, and the alpha range check is
   the library's. Both sides seat a pid that reverts to A from outside the
   live set T as the lowest-priority waiter; before that fix both raised
   on it, and a reference that raises checks nothing. *)

open Simkit.Types
module Ckpt_script = Doall.Ckpt_script
module Grid = Doall.Grid
module Spec = Doall.Spec
module ISet = Set.Make (Int)
module Uset = Dhw_util.Unitset
module Intmath = Dhw_util.Intmath

(* Process sets (T, U) are ISets — size <= t, fine. Unit sets (S and its
   derivatives) are {!Dhw_util.Unitset} interval sets: S starts as the single
   run [0, n) and only ever shrinks by removing contiguous slices, so it
   stays a handful of runs no matter how large n is — O(t) words instead of
   an O(n) tree per process, and inter/diff in O(runs). *)
type msg =
  | View of { phase : int; s : Uset.t; live : ISet.t; done_ : bool }
  | AOrd of Ckpt_script.ord  (** embedded-Protocol-A traffic after a revert *)

let show_msg = function
  | View { phase; s; live; done_ } ->
      Printf.sprintf "view(p%d,|S|=%d,|T|=%d,%b)" phase (Uset.cardinal s)
        (ISet.cardinal live) done_
  | AOrd o -> "A:" ^ Ckpt_script.show_ord o

(* Context of the embedded Protocol A after a revert: A-rank k is the k-th
   smallest surviving pid, A-unit k the k-th smallest outstanding unit. *)
type ra_ctx = {
  ra_grid : Grid.t;
  ra_units : Uset.t;  (* A-unit k = k-th smallest outstanding unit *)
  ra_ranks : int array;
  ra_my_rank : int;
  ra_deadline : round;
}

type working_st = {
  w_phase : int;
  s_after : Uset.t;  (* S minus my own slice *)
  w_live : ISet.t;  (* T from the previous agreement *)
  w_round0 : int;  (* 1 in phase 1 (no grace round), 0 afterwards *)
  slice : Uset.t;
  slice_n : int;  (* [Uset.cardinal slice], precomputed *)
  idx : int;  (* rounds of this work phase already spent *)
  block : int;  (* ⌈|S|/|T|⌉ = total work-phase rounds *)
  (* agreement traffic that arrived early from peers one round ahead: *)
  stash_s : Uset.t;
  stash_t : ISet.t;
  stash_done : (Uset.t * ISet.t) option;
}

type agreeing_st = {
  a_phase : int;
  a_s : Uset.t;
  a_live_new : ISet.t;  (* T being re-accumulated, starts {j} ∪ stash *)
  a_u : ISet.t;  (* processes not suspected; starts as the old T *)
  a_old_live : ISet.t;  (* T' for the revert test *)
  a_round0 : int;
  a_iter : int;
  a_adopted : (Uset.t * ISet.t) option;
}

type mode =
  | Working of working_st
  | Agreeing of agreeing_st
  | RWaiting of { ra : ra_ctx; last : Ckpt_script.last }
  | RActive of { ra : ra_ctx; script : Ckpt_script.script }

let iset_of_range k = ISet.of_list (List.init k Fun.id)

let grade set x = ISet.cardinal (ISet.filter (fun y -> y < x) set)

let slice_of s live pid block =
  let rank = grade live pid in
  let lo = rank * block in
  Uset.slice s ~lo ~hi:(lo + block)

(* The process itself, with its state type visible, so the differential law
   can watch which branches a run takes. *)
let proc ~alpha spec =
  let n = Spec.n spec in
  let t = Spec.processes spec in
  let revert_needed ~old_live ~live_new =
    float_of_int (ISet.cardinal live_new)
    < alpha *. float_of_int (ISet.cardinal old_live)
  in
  let enter_work ~phase ~s ~live ~round0 pid =
    let block = max 1 (Intmath.ceil_div (Uset.cardinal s) (ISet.cardinal live)) in
    let slice = slice_of s live pid block in
    Working
      {
        w_phase = phase;
        s_after = Uset.diff s slice;
        slice_n = Uset.cardinal slice;
        w_live = live;
        w_round0 = round0;
        slice;
        idx = 0;
        block;
        stash_s = s (* an upper bound; intersections only shrink it *);
        stash_t = ISet.empty;
        stash_done = None;
      }
  in
  let enter_revert ~s ~live pid r =
    let ra_units = s in
    let ra_ranks = Array.of_list (ISet.elements live) in
    let k = Array.length ra_ranks in
    let sub_spec = Spec.make ~n:(Uset.cardinal ra_units) ~t:k in
    let ra_grid = Grid.make sub_spec in
    (* A pid outside T (an amnesiac rejoiner that adopted a done view
       without it) has no A-rank of its own: it waits as the lowest-
       priority waiter, rank k - 1, with a takeover slot after every
       member's, so it only ever terminates on a knows-all-done view or
       by finishing a takeover. Nobody maps its pid to a rank, so members
       ignore its messages. *)
    let member = ISet.mem pid live in
    let ra_my_rank = if member then grade live pid else k - 1 in
    let slot = if member then ra_my_rank else k in
    (* Deadlines are relative to each process's own agreement-completion
       round; completions skew by at most one round, absorbed by the +2. *)
    let base = r + 1 in
    let ra_deadline = base + (slot * (Grid.max_active_rounds ra_grid + 2)) in
    let ra = { ra_grid; ra_units; ra_ranks; ra_my_rank; ra_deadline } in
    if slot = 0 then
      (RActive { ra; script = Ckpt_script.work_script ra_grid 0 1 }, Some base)
    else (RWaiting { ra; last = Ckpt_script.No_msg }, Some ra_deadline)
  in
  let run_ra ra r script =
    let o =
      Ckpt_script.run_active
        ~inject:(fun o -> AOrd o)
        ~map_dst:(fun rank -> ra.ra_ranks.(rank))
        ~map_unit:(fun k -> Uset.nth ra.ra_units k)
        r script
    in
    {
      state = RActive { ra; script = o.state };
      sends = o.sends;
      work = o.work;
      terminate = o.terminate;
      wakeup = o.wakeup;
    }
  in
  let rank_of_pid ra pid =
    let rec find i =
      if i >= Array.length ra.ra_ranks then None
      else if ra.ra_ranks.(i) = pid then Some i
      else find (i + 1)
    in
    find 0
  in
  let init pid =
    let all = iset_of_range t in
    let units = Uset.of_range 0 n in
    (enter_work ~phase:1 ~s:units ~live:all ~round0:1 pid, Some 0)
  in
  (* One agreement iteration: merge the inbox, apply removals, decide
     doneness, broadcast, and either continue, move to the next work
     phase, revert to Protocol A, or terminate. *)
  let agree_step pid r a inbox =
    let views =
      List.filter_map
        (fun { src; payload; _ } ->
          match payload with
          | View { phase; s; live; done_ } when phase = a.a_phase ->
              Some (src, s, live, done_)
          | View _ | AOrd _ -> None)
        inbox
    in
    let received = ISet.of_list (List.map (fun (src, _, _, _) -> src) views) in
    let s, live_new, adopted =
      List.fold_left
        (fun (s, tn, ad) (_, vs, vt, done_) ->
          if done_ then (vs, vt, Some (vs, vt))
          else (Uset.inter s vs, ISet.union tn vt, ad))
        (a.a_s, a.a_live_new, a.a_adopted)
        views
    in
    let counter = a.a_round0 + a.a_iter - 1 in
    let u' =
      if counter >= 1 then ISet.add pid (ISet.inter a.a_u received) else a.a_u
    in
    let stable = ISet.equal u' a.a_u in
    let s, live_new =
      match adopted with Some (s, tn) -> (s, tn) | None -> (s, live_new)
    in
    let done_ = adopted <> None || (stable && counter >= 1) in
    let bcast =
      List.map
        (fun dst ->
          { dst; payload = View { phase = a.a_phase; s; live = live_new; done_ } })
        (ISet.elements (ISet.remove pid u'))
    in
    if not done_ then
      {
        state =
          Agreeing
            { a with a_s = s; a_live_new = live_new; a_u = u';
              a_iter = a.a_iter + 1; a_adopted = adopted };
        sends = bcast;
        work = [];
        terminate = false;
        wakeup = Some (r + 1);
      }
    else if Uset.is_empty s then
      { state = Agreeing a; sends = bcast; work = []; terminate = true; wakeup = None }
    else if revert_needed ~old_live:a.a_old_live ~live_new then begin
      let mode, wakeup = enter_revert ~s ~live:live_new pid r in
      { state = mode; sends = bcast; work = []; terminate = false; wakeup }
    end
    else
      {
        state = enter_work ~phase:(a.a_phase + 1) ~s ~live:live_new ~round0:0 pid;
        sends = bcast;
        work = [];
        terminate = false;
        wakeup = Some (r + 1);
      }
  in
  let step pid r st inbox =
    match st with
    | Working w ->
        (* Stash agreement traffic from peers up to one round ahead. *)
        let w =
          List.fold_left
            (fun w { payload; _ } ->
              match payload with
              | View { phase; s; live; done_ } when phase = w.w_phase ->
                  if done_ then { w with stash_done = Some (s, live) }
                  else
                    {
                      w with
                      stash_s = Uset.inter w.stash_s s;
                      stash_t = ISet.union w.stash_t live;
                    }
              | View _ | AOrd _ -> w)
            w inbox
        in
        let work = if w.idx < w.slice_n then [ Uset.nth w.slice w.idx ] else [] in
        if w.idx < w.block - 1 then
          {
            state = Working { w with idx = w.idx + 1 };
            sends = [];
            work;
            terminate = false;
            wakeup = Some (r + 1);
          }
        else begin
          (* Last work round: piggyback the first agreement broadcast
             (the model allows one unit of work plus one round of
             communication per time unit). *)
          let s = Uset.inter w.s_after w.stash_s in
          let live_new = ISet.add pid w.stash_t in
          let bcast =
            List.map
              (fun dst ->
                {
                  dst;
                  payload =
                    View
                      { phase = w.w_phase; s; live = ISet.singleton pid; done_ = false };
                })
              (ISet.elements (ISet.remove pid w.w_live))
          in
          {
            state =
              Agreeing
                {
                  a_phase = w.w_phase;
                  a_s = s;
                  a_live_new = live_new;
                  a_u = w.w_live;
                  a_old_live = w.w_live;
                  a_round0 = w.w_round0;
                  a_iter = 1;
                  a_adopted = w.stash_done;
                };
            sends = bcast;
            work;
            terminate = false;
            wakeup = Some (r + 1);
          }
        end
    | Agreeing a -> agree_step pid r a inbox
    | RWaiting { ra; last } ->
        let last =
          List.fold_left
            (fun acc { src; payload; _ } ->
              match (payload, rank_of_pid ra src) with
              | AOrd ord, Some rank -> Ckpt_script.Last_ord { ord; src = rank }
              | (AOrd _ | View _), _ -> acc)
            last inbox
        in
        if Ckpt_script.knows_all_done ra.ra_grid ra.ra_my_rank last then
          {
            state = RWaiting { ra; last };
            sends = [];
            work = [];
            terminate = true;
            wakeup = None;
          }
        else if r >= ra.ra_deadline then
          run_ra ra r (Ckpt_script.takeover_script ra.ra_grid ra.ra_my_rank last)
        else
          {
            state = RWaiting { ra; last };
            sends = [];
            work = [];
            terminate = false;
            wakeup = Some ra.ra_deadline;
          }
    | RActive { ra; script } -> run_ra ra r script
  in
  { init; step; ahead = no_ahead }
