open Simkit.Types
module Intmath = Dhw_util.Intmath
module ISet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Group topology. t is padded to a power of two; the virtual processes
   t .. t_pad-1 are never polled, never counted in reduced views, and exist
   only so every level partitions evenly. Levels run 1 .. L (L = log2 t_pad);
   level h has 2^(h-1) groups of size 2^(L-h+1). Groups are numbered
   globally: gid = 2^(h-1) - 1 + (index within level). *)

type topo = { t_real : int; t_pad : int; levels : int; n_group_ids : int }

let topo_make t_real =
  let t_pad = Intmath.next_power_of_two t_real in
  let levels = if t_pad = 1 then 0 else Intmath.ilog2 t_pad in
  { t_real; t_pad; levels; n_group_ids = t_pad - 1 }

let group_size topo h = 1 lsl (topo.levels - h + 1)
let gid_of topo h pid = (1 lsl (h - 1)) - 1 + (pid / group_size topo h)

let level_of_gid topo gid =
  let h = Intmath.ilog2 (gid + 1) + 1 in
  assert (h >= 1 && h <= topo.levels);
  h

let members_range topo gid =
  let h = level_of_gid topo gid in
  let size = group_size topo h in
  let idx = gid - ((1 lsl (h - 1)) - 1) in
  (idx * size, size)

let lowest_member topo gid = fst (members_range topo gid)

let next_cyclic topo gid q =
  let lo, size = members_range topo gid in
  lo + ((q - lo + 1) mod size)

(* ------------------------------------------------------------------ *)
(* Views: the triple (F_i, point_i, round_i) of Section 3.1. Arrays are
   treated as immutable (copy on update) so views can be shipped in
   messages without aliasing. *)

type view = {
  f : ISet.t;  (* real retired pids known *)
  g0_point : int;  (* next work unit, 1-based; n+1 = all done *)
  g0_round : round;
  points : int array;  (* per gid: pid the pointer rests on *)
  rounds : round array;
}

let view_init topo =
  {
    f = ISet.empty;
    g0_point = 1;
    g0_round = 0;
    points = Array.init topo.n_group_ids (fun gid -> lowest_member topo gid);
    rounds = Array.make topo.n_group_ids 0;
  }

let reduced_view v = v.g0_point - 1 + ISet.cardinal v.f

let merge_views mine theirs =
  let g0_point, g0_round =
    if
      theirs.g0_point > mine.g0_point
      || (theirs.g0_point = mine.g0_point && theirs.g0_round > mine.g0_round)
    then (theirs.g0_point, theirs.g0_round)
    else (mine.g0_point, mine.g0_round)
  in
  let points = Array.copy mine.points in
  let rounds = Array.copy mine.rounds in
  Array.iteri
    (fun gid r ->
      if r > rounds.(gid) then begin
        rounds.(gid) <- r;
        points.(gid) <- theirs.points.(gid)
      end)
    theirs.rounds;
  { f = ISet.union mine.f theirs.f; g0_point; g0_round; points; rounds }

(* First pollable/reportable process at or after the pointer: skips self,
   known-retired, and virtual pids. None when the group minus F is {self}. *)
let effective topo view self gid =
  let lo, size = members_range topo gid in
  let rec scan q steps =
    if steps = size then None
    else if q <> self && q < topo.t_real && not (ISet.mem q view.f) then Some q
    else scan (lo + ((q - lo + 1) mod size)) (steps + 1)
  in
  scan view.points.(gid) 0

let bump_group topo view gid recipient r =
  let points = Array.copy view.points in
  let rounds = Array.copy view.rounds in
  points.(gid) <- next_cyclic topo gid recipient;
  rounds.(gid) <- r;
  { view with points; rounds }

(* ------------------------------------------------------------------ *)
(* Deadlines. *)

let big_k spec ~period =
  let t = Spec.processes spec in
  let tp = Intmath.next_power_of_two t in
  let l = if tp = 1 then 0 else Intmath.ilog2 tp in
  (4 * tp) + (2 * l) + (tp * period)

let deadline_gap spec ~period ~pid ~m =
  let n = Spec.n spec and t = Spec.processes spec in
  let cap = n + t in
  if m < 0 || m > cap - 1 then invalid_arg "Protocol_c.deadline_gap";
  let k = big_k spec ~period in
  try
    if m >= 1 then
      Intmath.checked_mul (Intmath.checked_mul k (cap - m)) (Intmath.pow 2 (cap - 1 - m))
    else
      Intmath.checked_mul
        (Intmath.checked_mul (Intmath.checked_mul k (t - pid)) cap)
        (Intmath.pow 2 (cap - 1))
  with Failure _ ->
    failwith
      (Printf.sprintf
         "Protocol C: instance n=%d t=%d too large for exact 63-bit deadlines \
          (need n+t <= ~45)"
         n t)

(* ------------------------------------------------------------------ *)
(* Messages and process state. *)

type msg = Ordinary of view | Are_you_alive | Alive

let show_msg = function
  | Ordinary v -> Printf.sprintf "ord(m=%d,w=%d,|F|=%d)" (reduced_view v) v.g0_point
                    (ISet.cardinal v.f)
  | Are_you_alive -> "are_you_alive?"
  | Alive -> "alive"

let is_passive = function Alive -> true | Ordinary _ | Are_you_alive -> false

type phase =
  | Polling of int  (* level h: resolve a target and send "Are you alive?" *)
  | Awaiting of { h : int; target : pid }  (* poll sent at r; decide at r+2 *)
  | Reporting_failure of int  (* send the new F entry into level h+1, resume h *)
  | Working
  | Reporting_work

type mode = Inactive of { deadline : round } | Activeph of phase

type state = { view : view; mode : mode }

(* What the active process does this round, after skipping free transitions
   (exhausted groups, missing report recipients). *)
type act =
  | Halt
  | Do_unit_now
  | Send_poll of { target : pid; h : int }
  | Send_report of { target : pid; gid : int; resume : phase }

let rec resolve topo n pid view phase =
  match phase with
  | Polling h ->
      if h = 0 then resolve topo n pid view Working
      else (
        match effective topo view pid (gid_of topo h pid) with
        | None -> resolve topo n pid view (Polling (h - 1))
        | Some q -> Send_poll { target = q; h })
  | Working -> if view.g0_point > n then Halt else Do_unit_now
  | Reporting_work -> (
      if topo.levels = 0 then resolve topo n pid view Working
      else
        match effective topo view pid (gid_of topo 1 pid) with
        | None -> resolve topo n pid view Working
        | Some z -> Send_report { target = z; gid = gid_of topo 1 pid; resume = Working })
  | Reporting_failure h -> (
      match effective topo view pid (gid_of topo (h + 1) pid) with
      | None -> resolve topo n pid view (Polling h)
      | Some z ->
          Send_report
            { target = z; gid = gid_of topo (h + 1) pid; resume = Polling h })
  | Awaiting _ -> assert false (* handled in [step], needs the inbox *)

let protocol_with_period ~period ~name =
  let make spec =
    let n = Spec.n spec in
    let t = Spec.processes spec in
    let topo = topo_make t in
    let period = period spec in
    if period < 1 then invalid_arg "Protocol_c: period >= 1";
    (* Fail fast if deadlines overflow 63-bit rounds. *)
    ignore (deadline_gap spec ~period ~pid:0 ~m:0);
    let dgap pid m = deadline_gap spec ~period ~pid ~m in
    let should_report w =
      (* after completing 1-based unit w *)
      topo.levels > 0 && (w mod period = 0 || w = n)
    in
    (* Execute the resolved action as this round's outcome. *)
    let perform _pid r view act =
      match act with
      | Halt ->
          {
            state = { view; mode = Activeph Working };
            sends = [];
            work = [];
            terminate = true;
            wakeup = None;
          }
      | Do_unit_now ->
          let w = view.g0_point in
          let view = { view with g0_point = w + 1; g0_round = r } in
          let next = if should_report w then Reporting_work else Working in
          {
            state = { view; mode = Activeph next };
            sends = [];
            work = [ w - 1 ];
            terminate = false;
            wakeup = Some (r + 1);
          }
      | Send_poll { target; h } ->
          {
            state = { view; mode = Activeph (Awaiting { h; target }) };
            sends = [ { dst = target; payload = Are_you_alive } ];
            work = [];
            terminate = false;
            wakeup = Some (r + 2);
          }
      | Send_report { target; gid; resume } ->
          let view = bump_group topo view gid target r in
          {
            state = { view; mode = Activeph resume };
            sends = [ { dst = target; payload = Ordinary view } ];
            work = [];
            terminate = false;
            wakeup = Some (r + 1);
          }
    in
    let init pid =
      let view = view_init topo in
      if pid = 0 then
        ({ view; mode = Activeph (Polling topo.levels) }, Some 0)
      else
        let deadline = dgap pid 0 in
        ({ view; mode = Inactive { deadline } }, Some deadline)
    in
    let step pid r st inbox =
      match st.mode with
      | Activeph (Awaiting { h; target }) ->
          let alive =
            List.exists
              (fun { src; payload; _ } -> src = target && payload = Alive)
              inbox
          in
          if alive then
            (* found a live process at level h: leave the level *)
            perform pid r st.view (resolve topo n pid st.view (Polling (h - 1)))
          else begin
            (* timeout: record the failure, report it one level up (except at
               the top level), then continue polling level h *)
            let view = { st.view with f = ISet.add target st.view.f } in
            let points = Array.copy view.points in
            points.(gid_of topo h pid) <- next_cyclic topo (gid_of topo h pid) target;
            let view = { view with points } in
            let next = if h <> topo.levels then Reporting_failure h else Polling h in
            perform pid r view (resolve topo n pid view next)
          end
      | Activeph phase -> perform pid r st.view (resolve topo n pid st.view phase)
      | Inactive { deadline } ->
          let replies =
            List.filter_map
              (fun { src; payload; _ } ->
                if payload = Are_you_alive then Some { dst = src; payload = Alive }
                else None)
              inbox
          in
          let ords =
            List.filter_map
              (fun { payload; _ } ->
                match payload with Ordinary v -> Some v | _ -> None)
              inbox
          in
          let view = List.fold_left merge_views st.view ords in
          if r >= deadline then
            (* become active: fault detection top-down, then the work *)
            let o = perform pid r view (resolve topo n pid view (Polling topo.levels)) in
            { o with sends = replies @ o.sends }
          else
            let deadline =
              if ords <> [] then r + dgap pid (reduced_view view) else deadline
            in
            {
              state = { view; mode = Inactive { deadline } };
              sends = replies;
              work = [];
              terminate = false;
              wakeup = Some deadline;
            }
    in
    Protocol.Packed
      {
        proc = { init; step; ahead = no_ahead };
        show = show_msg;
        passive = is_passive;
      }
  in
  { Protocol.name; describe = "knowledge-spreading, O(t log t) msgs (Thm 3.8)"; make }

let protocol =
  protocol_with_period ~period:(fun _ -> 1) ~name:"C"

module Internal = struct
  type raw_view = {
    f : int list;
    g0_point : int;
    g0_round : int;
    group_rounds : (int * int) list;
  }

  let view_of_raw spec raw =
    let topo = topo_make (Spec.processes spec) in
    let base = view_init topo in
    let points = Array.copy base.points in
    let rounds = Array.copy base.rounds in
    List.iter
      (fun (gid, r) ->
        if gid >= 0 && gid < topo.n_group_ids then begin
          rounds.(gid) <- r;
          (* a deterministic pointer position derived from the round, so
             that equal rounds always carry equal pointers *)
          let lo, size = members_range topo gid in
          points.(gid) <- lo + (r mod size)
        end)
      raw.group_rounds;
    {
      f = ISet.of_list (List.filter (fun p -> p < topo.t_real) raw.f);
      g0_point = max 1 raw.g0_point;
      g0_round = raw.g0_round;
      points;
      rounds;
    }

  let raw_of_view (v : view) =
    {
      f = ISet.elements v.f;
      g0_point = v.g0_point;
      g0_round = v.g0_round;
      group_rounds =
        Array.to_list (Array.mapi (fun gid r -> (gid, r)) v.rounds)
        |> List.filter (fun (_, r) -> r > 0);
    }

  let merge = merge_views
  let reduced_view = reduced_view
  let n_group_ids spec = (topo_make (Spec.processes spec)).n_group_ids
end

let protocol_chunked =
  protocol_with_period
    ~period:(fun spec ->
      max 1 (Intmath.ceil_div (Spec.n spec) (Spec.processes spec)))
    ~name:"C-chunked"
