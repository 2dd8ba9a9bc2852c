open Simkit.Types
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

(* A work phase. Its round cursor lives beside it in [Working], so an
   ordinary work round allocates a two-field block, not a copy of this. *)
type working_st = {
  w_phase : int;
  s_after : Uset.t;  (* S minus my own slice *)
  w_live : ISet.t;  (* T from the previous agreement *)
  w_round0 : int;  (* 1 in phase 1 (no grace round), 0 afterwards *)
  slice : Uset.t;
  slice_n : int;  (* [Uset.cardinal slice], precomputed *)
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
  | Working of { w : working_st; idx : int (* work rounds already spent *) }
  | Agreeing of agreeing_st
  | RWaiting of { ra : ra_ctx; last : Ckpt_script.last }
  | RActive of { ra : ra_ctx; script : Ckpt_script.script }

let iset_of_range k = ISet.of_list (List.init k Fun.id)

let grade set x = ISet.cardinal (ISet.filter (fun y -> y < x) set)

(* One envelope per member of [set] other than [pid], in increasing pid
   order, every one carrying the same [payload]. *)
let broadcast set pid payload =
  List.rev
    (ISet.fold (fun dst acc -> if dst = pid then acc else { dst; payload } :: acc) set [])

let marked b p = Bytes.get b p <> '\000'
let mark b p = Bytes.set b p '\001'

let slice_of s live pid block =
  let rank = grade live pid in
  let lo = rank * block in
  Uset.slice s ~lo ~hi:(lo + block)

let protocol_with_alpha ~alpha ~name =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Protocol_d: alpha must be in (0,1)";
  let make spec =
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
          w =
            {
              w_phase = phase;
              s_after = Uset.diff s slice;
              slice_n = Uset.cardinal slice;
              w_live = live;
              w_round0 = round0;
              slice;
              block;
              stash_s = s (* an upper bound; intersections only shrink it *);
              stash_t = ISet.empty;
              stash_done = None;
            };
          idx = 0;
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
    (* [ra_ranks] comes from [ISet.elements], so it is sorted. *)
    let rank_of_pid ra pid =
      let rec find lo hi =
        if lo >= hi then None
        else
          let mid = (lo + hi) / 2 in
          let p = ra.ra_ranks.(mid) in
          if p = pid then Some mid
          else if p < pid then find (mid + 1) hi
          else find lo mid
      in
      find 0 (Array.length ra.ra_ranks)
    in
    let all = iset_of_range t in
    let units = Uset.of_range 0 n in
    let init pid = (enter_work ~phase:1 ~s:units ~live:all ~round0:1 pid, Some 0) in
    (* One agreement iteration: merge the inbox, apply removals, decide
       doneness, broadcast, and either continue, move to the next work
       phase, revert to Protocol A, or terminate. *)
    let agree_step pid r a inbox =
      (* One pass over the inbox into two scratch bitmaps that never leave
         this step: [heard] marks this phase's senders, plus [pid] itself
         so that u' is [a_u] physically when nobody is newly suspected;
         [t_bits] accumulates T. The last done view is adopted wholesale,
         which makes every undone view irrelevant, so undone views stop
         contributing once one is adopted. *)
      let heard = Bytes.make t '\000' and t_bits = Bytes.make t '\000' in
      let mark_t = mark t_bits in
      mark heard pid;
      let s = ref a.a_s in
      (* the last done view's (S, T), boxed once after the pass *)
      let done_s = ref a.a_s and done_t = ref a.a_live_new and heard_done = ref false in
      List.iter
        (fun { src; payload; _ } ->
          match payload with
          | View { phase; s = vs; live; done_ } when phase = a.a_phase ->
              mark heard src;
              if done_ then begin
                done_s := vs;
                done_t := live;
                heard_done := true
              end
              else if not !heard_done && Option.is_none a.a_adopted then begin
                s := Uset.inter !s vs;
                ISet.iter mark_t live
              end
          | View _ | AOrd _ -> ())
        inbox;
      let adopted = if !heard_done then Some (!done_s, !done_t) else a.a_adopted in
      let counter = a.a_round0 + a.a_iter - 1 in
      let u' =
        if counter >= 1 then ISet.add pid (ISet.filter (marked heard) a.a_u) else a.a_u
      in
      let stable = u' == a.a_u || ISet.equal u' a.a_u in
      let s, live_new =
        match adopted with
        | Some view -> view
        | None ->
            ISet.iter mark_t a.a_live_new;
            (!s, ISet.filter (marked t_bits) all)
      in
      let done_ = Option.is_some adopted || (stable && counter >= 1) in
      let bcast =
        broadcast u' pid (View { phase = a.a_phase; s; live = live_new; done_ })
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
      | Working { w; idx } ->
          (* Stash agreement traffic from peers up to one round ahead. *)
          let w =
            match inbox with
            | [] -> w
            | _ ->
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
          let work = if idx < w.slice_n then [ Uset.nth w.slice idx ] else [] in
          if idx < w.block - 1 then
            {
              state = Working { w; idx = idx + 1 };
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
              broadcast w.w_live pid
                (View { phase = w.w_phase; s; live = ISet.singleton pid; done_ = false })
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
    (* A work round before the last is pure: one unit of a contiguous stretch
       of the slice, then idle rounds once the slice is spent, which run to
       [block - 1] so that a short last slice does not cut everyone's range
       every round. The reverted A maps its units through [Uset.nth] and
       declares no runs. *)
    let ahead _r = function
      | Working { w; idx } when idx < w.block - 1 ->
          let rest = w.block - 1 - idx in
          let at k = Working { w; idx = idx + k } in
          if idx >= w.slice_n then Some { unit0 = 0; units = 0; len = rest; at }
          else
            let u0 = Uset.nth w.slice idx in
            let units = min rest (Uset.run_end u0 w.slice - u0) in
            let len = if idx + units >= w.slice_n then rest else units in
            Some { unit0 = u0; units; len; at }
      | Working _ | Agreeing _ | RWaiting _ | RActive _ -> None
    in
    Protocol.Packed
    { proc = { init; step; ahead }; show = show_msg; passive = Protocol.no_passive }
  in
  {
    Protocol.name;
    describe =
      "parallel phases + crash-model agreement; n/t+O(1) rounds failure-free (Thm 4.1)";
    make;
  }

let alpha_default = 0.5

let protocol = protocol_with_alpha ~alpha:alpha_default ~name:"D"
