open Simkit.Types
module ISet = Set.Make (Int)
module Uset = Dhw_util.Unitset
module Intmath = Dhw_util.Intmath

(* As in [Protocol_d]: process sets are ISets, unit sets are interval sets
   (S shrinks by contiguous slices, so it stays a few runs at any n). *)
type msg =
  | Up of { u_phase : int; u_s : Uset.t }  (* worker's view, to the coordinator *)
  | Decision of { d_phase : int; d_s : Uset.t; d_live : ISet.t }
  | Help
  | FOrd of Ckpt_script.ord  (* fallback Protocol A traffic *)

let show_msg = function
  | Up { u_phase; u_s } -> Printf.sprintf "up(p%d,|S|=%d)" u_phase (Uset.cardinal u_s)
  | Decision { d_phase; d_s; d_live } ->
      Printf.sprintf "decision(p%d,|S|=%d,|T|=%d)" d_phase (Uset.cardinal d_s)
        (ISet.cardinal d_live)
  | Help -> "help?"
  | FOrd o -> "F:" ^ Ckpt_script.show_ord o

type working_st = {
  w_phase : int;
  s_after : Uset.t;
  w_live : ISet.t;
  slice : Uset.t;
  slice_n : int;  (* [Uset.cardinal slice], precomputed *)
  idx : int;
  block : int;
}

type collecting_st = {
  c_phase : int;
  c_s : Uset.t;
  c_live : ISet.t;  (* senders seen so far, plus self *)
  stage : int;  (* two collection rounds absorb one round of skew *)
}

type awaiting_st = {
  a_phase : int;
  a_s : Uset.t;
  a_live : ISet.t;
  helps_left : int;
  next_act : round;  (* only send helps / give up at this round *)
}

type mode =
  | Working of working_st
  | Collecting of collecting_st
  | Awaiting of awaiting_st
  | FWait of { deadline : round; own_c : int; last : Ckpt_script.last }
  | FActive of Ckpt_script.script

type state = { latest : (int * Uset.t * ISet.t) option; mode : mode }

let grade set x = ISet.cardinal (ISet.filter (fun y -> y < x) set)

let make spec =
  let n = Spec.n spec in
  let t = Spec.processes spec in
  let all_units = Uset.of_range 0 n in
  let grid = Grid.make spec in
  let big_l = Grid.max_active_rounds grid in
  (* Every coordinator-phase activity ends below t_max; fallback windows are
     aligned multiples of w0 so that help-exhaustion times landing in the
     same window share a deadline base, and consecutive windows cannot
     overlap (w0 > t·(L+2) + L). *)
  let t_max = ((t + 3) * (n + (2 * t) + 10)) + 10 in
  let w0 = max t_max (t * (big_l + 3)) + 1 in
  let others pid = List.filter (fun k -> k <> pid) (List.init t Fun.id) in
  let enter_work ~phase ~s ~live pid =
    let block = max 1 (Intmath.ceil_div (Uset.cardinal s) (ISet.cardinal live)) in
    let slice =
      if not (ISet.mem pid live) then Uset.empty
      else
        let rank = grade live pid in
        let lo = rank * block in
        Uset.slice s ~lo ~hi:(lo + block)
    in
    Working
      { w_phase = phase; s_after = s; w_live = live; slice;
        slice_n = Uset.cardinal slice; idx = 0; block }
  in
  (* Adopt a decision: move to the next work phase or terminate. *)
  let adopt pid r (phase, s, live) replies =
    let latest = Some (phase, s, live) in
    if Uset.is_empty s then
      { state =
          { latest;
            mode = Awaiting { a_phase = phase; a_s = s; a_live = live;
                              helps_left = 0; next_act = r } };
        sends = replies; work = []; terminate = true; wakeup = None }
    else
      { state = { latest; mode = enter_work ~phase:(phase + 1) ~s ~live pid };
        sends = replies; work = []; terminate = false; wakeup = Some (r + 1) }
  in
  (* Synthetic Protocol-A knowledge from an outstanding set: the largest
     prefix of subchunks whose units are all known done. *)
  let synthetic_c s =
    let done_set = Uset.diff all_units s in
    let rec go c =
      if c >= Grid.n_subchunks grid then c
      else
        let lo, hi = Grid.subchunk_range grid (c + 1) in
        if Uset.contains_range lo hi done_set then go (c + 1) else c
    in
    go 0
  in
  let enter_fallback pid r s =
    let base = ((r / w0) + 1) * w0 in
    let deadline = base + (pid * (big_l + 2)) in
    ( FWait { deadline; own_c = synthetic_c s; last = Ckpt_script.No_msg },
      Some deadline )
  in
  let run_fa r script =
    let o = Ckpt_script.run_active ~inject:(fun o -> FOrd o) r script in
    (FActive o.state, o.sends, o.work, o.terminate, o.wakeup)
  in
  let init pid =
    ( { latest = None; mode = enter_work ~phase:1 ~s:all_units ~live:(ISet.of_list (List.init t Fun.id)) pid },
      Some 0 )
  in
  let step pid r st inbox =
    (* help replies are answered from any phase-system mode *)
    let help_replies =
      match st.latest with
      | Some (p, s, live) when (match st.mode with FWait _ | FActive _ -> false | _ -> true) ->
          List.filter_map
            (fun { src; payload; _ } ->
              if payload = Help then
                Some { dst = src; payload = Decision { d_phase = p; d_s = s; d_live = live } }
              else None)
            inbox
      | _ -> []
    in
    let best_decision ~min_phase =
      List.fold_left
        (fun acc { payload; _ } ->
          match payload with
          | Decision { d_phase; d_s; d_live } when d_phase >= min_phase -> (
              match acc with
              | Some (p, _, _) when p >= d_phase -> acc
              | _ -> Some (d_phase, d_s, d_live))
          | _ -> acc)
        None inbox
    in
    match st.mode with
    | Working w -> (
        match best_decision ~min_phase:w.w_phase with
        | Some d ->
            (* resync: abandon the stale phase and adopt *)
            adopt pid r d help_replies
        | None ->
            let work = if w.idx < w.slice_n then [ Uset.nth w.slice w.idx ] else [] in
            let s_after =
              List.fold_left (fun acc u -> Uset.remove u acc) w.s_after work
            in
            if w.idx < w.block - 1 then
              { state = { st with mode = Working { w with idx = w.idx + 1; s_after } };
                sends = help_replies; work; terminate = false; wakeup = Some (r + 1) }
            else begin
              (* last work round: report to the coordinator — or start
                 collecting if I am the coordinator *)
              let coord = ISet.min_elt w.w_live in
              if pid = coord then
                { state =
                    { st with
                      mode =
                        Collecting
                          { c_phase = w.w_phase; c_s = s_after;
                            c_live = ISet.singleton pid; stage = 1 } };
                  sends = help_replies; work; terminate = false; wakeup = Some (r + 1) }
              else
                { state =
                    { st with
                      mode =
                        Awaiting
                          { a_phase = w.w_phase; a_s = s_after; a_live = w.w_live;
                            helps_left = t + 1; next_act = r + 3 } };
                  sends =
                    { dst = coord; payload = Up { u_phase = w.w_phase; u_s = s_after } }
                    :: help_replies;
                  work; terminate = false; wakeup = Some (r + 3) }
            end)
    | Collecting c ->
        let c =
          List.fold_left
            (fun c { src; payload; _ } ->
              match payload with
              | Up { u_phase; u_s } when u_phase = c.c_phase ->
                  { c with c_s = Uset.inter c.c_s u_s; c_live = ISet.add src c.c_live }
              | Up _ | Decision _ | Help | FOrd _ -> c)
            c inbox
        in
        if c.stage = 1 then
          { state = { st with mode = Collecting { c with stage = 2 } };
            sends = help_replies; work = []; terminate = false; wakeup = Some (r + 1) }
        else begin
          (* decide and broadcast to everyone (including the excluded, so
             laggards resynchronise) *)
          let decision =
            Decision { d_phase = c.c_phase; d_s = c.c_s; d_live = c.c_live }
          in
          let bcast = List.map (fun dst -> { dst; payload = decision }) (others pid) in
          let o = adopt pid r (c.c_phase, c.c_s, c.c_live) [] in
          { o with sends = bcast @ help_replies @ o.sends }
        end
    | Awaiting a -> (
        match best_decision ~min_phase:a.a_phase with
        | Some d -> adopt pid r d help_replies
        | None ->
            if r < a.next_act then
              (* message-triggered step without a decision: just answer helps *)
              { state = st; sends = help_replies; work = []; terminate = false;
                wakeup = Some a.next_act }
            else if a.helps_left > 0 then
              { state =
                  { st with
                    mode =
                      Awaiting
                        { a with helps_left = a.helps_left - 1; next_act = r + 2 } };
                sends =
                  List.map (fun dst -> { dst; payload = Help }) (others pid)
                  @ help_replies;
                work = []; terminate = false; wakeup = Some (r + 2) }
            else begin
              (* no live process holds a decision: the phase system is dead *)
              let mode, wakeup = enter_fallback pid r a.a_s in
              { state = { latest = None; mode }; sends = help_replies; work = [];
                terminate = false; wakeup }
            end)
    | FWait { deadline; own_c; last } ->
        let last =
          List.fold_left
            (fun acc { src; payload; _ } ->
              match payload with
              | FOrd ord -> Ckpt_script.Last_ord { ord; src }
              | Up _ | Decision _ | Help -> acc)
            last inbox
        in
        if Ckpt_script.knows_all_done grid pid last then
          { state = { st with mode = FWait { deadline; own_c; last } };
            sends = []; work = []; terminate = true; wakeup = None }
        else if r >= deadline then begin
          let effective =
            if Ckpt_script.c_of_last last >= own_c then last
            else Ckpt_script.Last_ord { ord = Ckpt_script.Partial own_c; src = pid }
          in
          let mode, sends, work, terminate, wakeup =
            run_fa r (Ckpt_script.takeover_script grid pid effective)
          in
          { state = { st with mode }; sends; work; terminate; wakeup }
        end
        else
          { state = { st with mode = FWait { deadline; own_c; last } };
            sends = []; work = []; terminate = false; wakeup = Some deadline }
    | FActive script ->
        let mode, sends, work, terminate, wakeup = run_fa r script in
        { state = { st with mode }; sends; work; terminate; wakeup }
  in
  Protocol.Packed
    {
      proc = { init; step; ahead = no_ahead };
      show = show_msg;
      passive = Protocol.no_passive;
    }

let protocol =
  {
    Protocol.name = "D-coord";
    describe = "Protocol D with coordinator-routed agreement: 2(t-1) msgs/phase failure-free";
    make;
  }
