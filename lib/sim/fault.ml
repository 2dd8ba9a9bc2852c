open Types
module Prng = Dhw_util.Prng

type delivery = All | Prefix of int | Indices of int list

type decision = Survive | Crash of { keep_work : bool; delivery : delivery }

let split_delivery decision sends =
  match decision with
  | All -> (sends, [])
  | Prefix k ->
      let rec split i acc = function
        | [] -> (List.rev acc, [])
        | rest when i = k -> (List.rev acc, rest)
        | s :: rest -> split (i + 1) (s :: acc) rest
      in
      split 0 [] sends
  | Indices idx ->
      let keep = List.sort_uniq compare idx in
      let kept, dropped =
        List.fold_left
          (fun (i, (k, d)) s ->
            if List.mem i keep then (i + 1, (s :: k, d)) else (i + 1, (k, s :: d)))
          (0, ([], []))
          sends
        |> snd
      in
      (List.rev kept, List.rev dropped)

type tamper_kind = Lying_view | Replay_stale | Inflate_done

type tamper = { t_kind : tamper_kind; t_salt : int }

let tamper_kind_to_string = function
  | Lying_view -> "lying-view"
  | Replay_stale -> "replay-stale"
  | Inflate_done -> "inflate-done"

let tamper_kind_of_string = function
  | "lying-view" -> Some Lying_view
  | "replay-stale" -> Some Replay_stale
  | "inflate-done" -> Some Inflate_done
  | _ -> None

type step_view = {
  sv_pid : pid;
  sv_round : round;
  sv_sends : int;
  sv_works : int;
  sv_terminating : bool;
  sv_works_done_before : int;
}

type t = {
  plan_silent_from : pid -> round option;
      (* the round from which the pid's current incarnation is silently
         dead; re-read by the kernel after every committed revival *)
  plan_on_step : step_view -> decision;
  plan_restarts : (pid * round) list;
      (* static restart schedule, consumed by the kernel *)
  plan_on_restart : pid -> round -> unit;
      (* plan-side notification that the kernel committed a revival *)
  plan_corrupts : pid -> round -> tamper option;
      (* consuming query: a [Some] answer spends that corruption entry *)
  plan_byzantine_from : pid -> round option;
  plan_trivial : bool;
      (* statically known to never crash/corrupt/subvert/restart anything;
         lets the kernel skip consulting [plan_on_step] entirely *)
  committed : (pid, round) Hashtbl.t;
      (* crashes the kernel actually committed; authoritative for all plans *)
}

let make ?(trivial = false) ?(restarts = []) ?(on_restart = fun _ _ -> ())
    ?(corrupts = fun _ _ -> None) ?(byzantine_from = fun _ -> None)
    ?(silent_from = fun _ -> None) ~on_step () =
  {
    plan_silent_from = silent_from;
    plan_on_step = on_step;
    plan_restarts = restarts;
    plan_on_restart = on_restart;
    plan_corrupts = corrupts;
    plan_byzantine_from = byzantine_from;
    plan_trivial = trivial && restarts = [];
    committed = Hashtbl.create 16;
  }

let custom ?restarts ?on_restart ?corrupts ?byzantine_from ~silent_from ~on_step
    () =
  make ?restarts ?on_restart ?corrupts ?byzantine_from ~silent_from ~on_step ()

(* A committed crash at [r] reads as a silent death from [r + 1] on. *)
let silent_from t pid =
  match (Hashtbl.find_opt t.committed pid, t.plan_silent_from pid) with
  | Some r, Some s -> Some (min (r + 1) s)
  | Some r, None -> Some (r + 1)
  | None, s -> s

let crashed_by t pid round =
  match silent_from t pid with Some s -> round >= s | None -> false

let on_step t view = t.plan_on_step view

let note_crash t pid round =
  match Hashtbl.find_opt t.committed pid with
  | Some r when r <= round -> ()
  | _ -> Hashtbl.replace t.committed pid round

let restarts t = t.plan_restarts

let corrupts t pid round = t.plan_corrupts pid round

let byzantine_from t pid = t.plan_byzantine_from pid

let note_restart t pid round =
  (* Forget the committed crash so a later crash of the same pid re-records;
     then let the plan mask itself (a static plan would otherwise keep
     answering [silent_from] for the revived incarnation). *)
  Hashtbl.remove t.committed pid;
  t.plan_on_restart pid round

let none = make ~trivial:true ~on_step:(fun _ -> Survive) ()

let is_trivial t = t.plan_trivial

let earliest_per_pid entries key_of =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let pid, r = key_of e in
      match Hashtbl.find_opt tbl pid with
      | Some (r', _) when r' <= r -> ()
      | _ -> Hashtbl.replace tbl pid (r, e))
    entries;
  tbl

let crash_silently_at entries =
  let tbl = earliest_per_pid entries (fun (p, r) -> (p, r)) in
  let silent_from pid = Option.map fst (Hashtbl.find_opt tbl pid) in
  make ~trivial:(entries = []) ~silent_from ~on_step:(fun _ -> Survive) ()

let crash_acting_at entries =
  let tbl = earliest_per_pid entries (fun (p, r, _) -> (p, r)) in
  let on_step view =
    match Hashtbl.find_opt tbl view.sv_pid with
    | Some (r, (_, _, decision)) when view.sv_round >= r -> decision
    | _ -> Survive
  in
  make ~on_step ()

(* A pid crashed by [on_step] stays dead through the kernel's committed-crash
   record, so online plans need no silent-death table of their own. *)
let dynamic f = make ~on_step:f ()

let random ~seed ~t ~victims ~window =
  if victims >= t then invalid_arg "Fault.random: victims must be < t";
  let g = Prng.create seed in
  let pids = Prng.sample_without_replacement g victims t in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun pid ->
      let r = Prng.int_in g 0 (max 0 window) in
      let cut = Prng.int_in g 0 4 in
      Hashtbl.replace tbl pid (r, cut))
    pids;
  let silent_from pid =
    (* A victim acting at exactly its crash round crashes via [on_step]
       (partial delivery); a victim idle at its crash round is dead from
       the next round on. *)
    Option.map (fun (r, _) -> r + 1) (Hashtbl.find_opt tbl pid)
  in
  let on_step view =
    match Hashtbl.find_opt tbl view.sv_pid with
    | Some (r, cut) when view.sv_round >= r ->
        Crash { keep_work = false; delivery = Prefix cut }
    | _ -> Survive
  in
  make ~silent_from ~on_step ()

let crash_active_after_random_work ~seed ~min_units ~max_units ~max_crashes =
  if min_units < 1 || max_units < min_units then
    invalid_arg "Fault.crash_active_after_random_work";
  let g = Prng.create seed in
  let crashes = ref 0 in
  let units_since_last = ref 0 in
  let next_gap = ref (Prng.int_in g min_units max_units) in
  let on_step view =
    if view.sv_works = 0 || !crashes >= max_crashes then Survive
    else begin
      units_since_last := !units_since_last + view.sv_works;
      if !units_since_last >= !next_gap then begin
        units_since_last := 0;
        next_gap := Prng.int_in g min_units max_units;
        incr crashes;
        Crash { keep_work = true; delivery = Prefix 0 }
      end
      else Survive
    end
  in
  make ~on_step ()

let with_restarts restarts base =
  (* From a pid's first revival on, the base plan's answers for that pid are
     masked: its closures (e.g. [crash_silently_at] tables) know nothing of
     the new incarnation and would keep it dead forever. The wrapped plan
     therefore gives each pid at most one crash/restart cycle; multi-cycle
     adversaries are built directly via [make]'s [on_restart] hook (see
     [Campaign.Schedule.to_fault]). *)
  let revived : (pid, round) Hashtbl.t = Hashtbl.create 8 in
  let silent_from pid =
    if Hashtbl.mem revived pid then None else base.plan_silent_from pid
  in
  let on_step view =
    match Hashtbl.find_opt revived view.sv_pid with
    | Some rr when view.sv_round >= rr -> Survive
    | _ -> base.plan_on_step view
  in
  let on_restart pid r =
    Hashtbl.replace revived pid r;
    base.plan_on_restart pid r
  in
  make ~restarts ~on_restart ~corrupts:base.plan_corrupts
    ~byzantine_from:base.plan_byzantine_from ~silent_from ~on_step ()

let crash_active_after_work ~units_between_crashes ~max_crashes =
  let crashes = ref 0 in
  let units_since_last = ref 0 in
  let on_step view =
    if view.sv_works = 0 || !crashes >= max_crashes then Survive
    else begin
      units_since_last := !units_since_last + view.sv_works;
      if !units_since_last >= units_between_crashes then begin
        units_since_last := 0;
        incr crashes;
        Crash { keep_work = true; delivery = Prefix 0 }
      end
      else Survive
    end
  in
  make ~on_step ()
