open Simkit.Types
module ISet = Set.Make (Int)
module Uset = Dhw_util.Unitset
module Intmath = Dhw_util.Intmath

type config = {
  arrivals : (int * int * int) list;
  horizon : int;
  idle_block : int;
}

(* Job-id sets (known/done/mine) are interval sets: arrivals are scattered
   but sparse, and the done set grows by contiguous slices, so runs stay
   few. Process sets stay ISets. *)
type msg = {
  v_phase : int;
  v_known : Uset.t;
  v_done : Uset.t;
  v_live : ISet.t;
  v_final : bool;
}

let show_msg m =
  Printf.sprintf "oview(p%d,k%d,d%d,|T|=%d,%b)" m.v_phase
    (Uset.cardinal m.v_known) (Uset.cardinal m.v_done) (ISet.cardinal m.v_live)
    m.v_final

type working_st = {
  w_phase : int;
  mine : Uset.t;  (* every unit that ever arrived at this site; monotone,
                     survives view adoption *)
  known : Uset.t;
  done_ : Uset.t;  (* includes my own units as I perform them *)
  w_live : ISet.t;
  w_round0 : int;
  slice : Uset.t;
  slice_n : int;
  idx : int;
  block : int;
  stash_known : Uset.t;
  stash_done : Uset.t;
  stash_live : ISet.t;
  stash_final : (Uset.t * Uset.t * ISet.t) option;  (* known, done, live *)
}

type agreeing_st = {
  a_phase : int;
  a_mine : Uset.t;
  a_known : Uset.t;
  a_done : Uset.t;
  a_live : ISet.t;  (* T being re-accumulated *)
  a_u : ISet.t;
  a_round0 : int;
  a_iter : int;
  a_adopted : (Uset.t * Uset.t * ISet.t) option;
}

type mode = Working of working_st | Agreeing of agreeing_st

let grade set x = ISet.cardinal (ISet.filter (fun y -> y < x) set)

let protocol cfg =
  if cfg.idle_block < 1 then invalid_arg "Protocol_d_online: idle_block >= 1";
  if List.exists (fun (r, _, _) -> r >= cfg.horizon || r < 0) cfg.arrivals then
    invalid_arg "Protocol_d_online: arrivals must land in [0, horizon)";
  let arrivals_for pid r =
    List.filter_map
      (fun (ar, u, site) -> if site = pid && ar = r then Some u else None)
      cfg.arrivals
  in
  (* Arrivals between two consecutive steps of a live process: processes
     step every round in this protocol, so "at round r" suffices. *)
  let make spec =
    let t = Spec.processes spec in
    let enter_work ~phase ~mine ~known ~done_ ~live ~round0 pid =
      let known = Uset.union known mine in
      let outstanding = Uset.diff known done_ in
      let block =
        if Uset.is_empty outstanding then cfg.idle_block
        else max 1 (Intmath.ceil_div (Uset.cardinal outstanding) (ISet.cardinal live))
      in
      let rank = grade live pid in
      let lo = rank * block in
      let slice = Uset.slice outstanding ~lo ~hi:(lo + block) in
      Working
        {
          w_phase = phase;
          mine;
          known;
          done_;
          w_live = live;
          w_round0 = round0;
          slice;
          slice_n = Uset.cardinal slice;
          idx = 0;
          block;
          stash_known = Uset.empty;
          stash_done = Uset.empty;
          stash_live = ISet.empty;
          stash_final = None;
        }
    in
    let init pid =
      let all = ISet.of_list (List.init t Fun.id) in
      ( enter_work ~phase:1 ~mine:Uset.empty ~known:Uset.empty ~done_:Uset.empty
          ~live:all ~round0:1 pid,
        Some 0 )
    in
    let agree_step pid r a inbox =
      let views =
        List.filter_map
          (fun { src; payload; _ } ->
            if payload.v_phase = a.a_phase then Some (src, payload) else None)
          inbox
      in
      let received = ISet.of_list (List.map fst views) in
      let known, done_, live, adopted =
        List.fold_left
          (fun (k, d, tv, ad) (_, v) ->
            if v.v_final then
              (v.v_known, v.v_done, v.v_live, Some (v.v_known, v.v_done, v.v_live))
            else (Uset.union k v.v_known, Uset.union d v.v_done, ISet.union tv v.v_live, ad))
          (a.a_known, a.a_done, a.a_live, a.a_adopted)
          views
      in
      let counter = a.a_round0 + a.a_iter - 1 in
      let u' =
        if counter >= 1 then ISet.add pid (ISet.inter a.a_u received) else a.a_u
      in
      let stable = ISet.equal u' a.a_u in
      let known, done_, live =
        match adopted with
        | Some (k, d, tv) ->
            (* an adopted final view must not erase units that arrived here
               and were never shared *)
            (Uset.union k a.a_mine, d, tv)
        | None -> (known, done_, live)
      in
      let final = adopted <> None || (stable && counter >= 1) in
      let bcast =
        List.map
          (fun dst ->
            {
              dst;
              payload =
                { v_phase = a.a_phase; v_known = known; v_done = done_;
                  v_live = live; v_final = final };
            })
          (ISet.elements (ISet.remove pid u'))
      in
      if not final then
        {
          state =
            Agreeing
              { a with a_known = known; a_done = done_; a_live = live; a_u = u';
                a_iter = a.a_iter + 1; a_adopted = adopted };
          sends = bcast;
          work = [];
          terminate = false;
          wakeup = Some (r + 1);
        }
      else if Uset.subset known done_ && r >= cfg.horizon then
        { state = Agreeing a; sends = bcast; work = []; terminate = true; wakeup = None }
      else
        {
          state =
            enter_work ~phase:(a.a_phase + 1) ~mine:a.a_mine ~known ~done_ ~live
              ~round0:0 pid;
          sends = bcast;
          work = [];
          terminate = false;
          wakeup = Some (r + 1);
        }
    in
    let step pid r st inbox =
      match st with
      | Working w ->
          (* absorb my own fresh arrivals and any early agreement traffic *)
          let fresh = Uset.of_list (arrivals_for pid r) in
          let w =
            { w with known = Uset.union w.known fresh; mine = Uset.union w.mine fresh }
          in
          let w =
            List.fold_left
              (fun w { payload = v; _ } ->
                if v.v_phase <> w.w_phase then w
                else if v.v_final then
                  { w with stash_final = Some (v.v_known, v.v_done, v.v_live) }
                else
                  {
                    w with
                    stash_known = Uset.union w.stash_known v.v_known;
                    stash_done = Uset.union w.stash_done v.v_done;
                    stash_live = ISet.union w.stash_live v.v_live;
                  })
              w inbox
          in
          let work, done_ =
            if w.idx < w.slice_n then
              let u = Uset.nth w.slice w.idx in
              ([ u ], Uset.add u w.done_)
            else ([], w.done_)
          in
          let w = { w with done_ } in
          if w.idx < w.block - 1 then
            {
              state = Working { w with idx = w.idx + 1 };
              sends = [];
              work;
              terminate = false;
              wakeup = Some (r + 1);
            }
          else begin
            let known = Uset.union w.known w.stash_known in
            let done_all = Uset.union w.done_ w.stash_done in
            let bcast =
              List.map
                (fun dst ->
                  {
                    dst;
                    payload =
                      { v_phase = w.w_phase; v_known = known; v_done = w.done_;
                        v_live = ISet.singleton pid; v_final = false };
                  })
                (ISet.elements (ISet.remove pid w.w_live))
            in
            {
              state =
                Agreeing
                  {
                    a_phase = w.w_phase;
                    a_mine = w.mine;
                    a_known = known;
                    a_done = done_all;
                    a_live = ISet.add pid w.stash_live;
                    a_u = w.w_live;
                    a_round0 = w.w_round0;
                    a_iter = 1;
                    a_adopted = w.stash_final;
                  };
              sends = bcast;
              work;
              terminate = false;
              wakeup = Some (r + 1);
            }
          end
      | Agreeing a ->
          let fresh = Uset.of_list (arrivals_for pid r) in
          let a =
            { a with
              a_known = Uset.union a.a_known fresh;
              a_mine = Uset.union a.a_mine fresh }
          in
          agree_step pid r a inbox
    in
    Protocol.Packed
    {
      proc = { init; step; ahead = no_ahead };
      show = show_msg;
      passive = Protocol.no_passive;
    }
  in
  {
    Protocol.name = "D-online";
    describe = "Protocol D with dynamic work arrival (periodic agreement)";
    make;
  }
