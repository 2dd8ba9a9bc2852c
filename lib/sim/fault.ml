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

(* Units since a plan's last crash, counted in round order as the kernel
   consults it. [reserved] holds the units granted to pending ranges
   beyond their grant round: they are counted when the kernel reports
   what it took. *)
type counter = {
  mutable since : int;
  mutable gap : int;  (* the crash lands on the unit that makes [since] reach it *)
  mutable crashes : int;
  mutable reserved : int;
  max_crashes : int;
  gap_lo : int;
  gap_hi : int;
  draw : Prng.t option;  (* next gaps from [gap_lo, gap_hi]; fixed at [gap_lo] without *)
}

(* What a plan answers when the kernel asks how many of a pid's next pure
   rounds [on_step] would let survive. *)
type grant =
  | Grant_until of (pid -> round)
      (* first round from which [on_step] may crash the pid's current
         incarnation *)
  | Grant_counting of counter

(* [on_step] answers [Survive] to every pure round. *)
let grant_all = Grant_until (fun _ -> max_int)

(* An opaque [on_step]: every round is consulted. *)
let grant_none = Grant_until (fun _ -> 0)

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
  plan_grant : grant;
  mutable committed : int array;
      (* by pid: the round of the crash the kernel actually committed, -1
         for none; authoritative for all plans. Grown on the first crash, so
         building a plan allocates no table. *)
}

let make ?(trivial = false) ?(restarts = []) ?(on_restart = fun _ _ -> ())
    ?(corrupts = fun _ _ -> None) ?(byzantine_from = fun _ -> None)
    ?(silent_from = fun _ -> None) ~grant ~on_step () =
  {
    plan_silent_from = silent_from;
    plan_on_step = on_step;
    plan_restarts = restarts;
    plan_on_restart = on_restart;
    plan_corrupts = corrupts;
    plan_byzantine_from = byzantine_from;
    plan_trivial = trivial && restarts = [];
    plan_grant = grant;
    committed = [||];
  }

let custom ?restarts ?on_restart ?corrupts ?byzantine_from ~acts_from ~silent_from
    ~on_step () =
  make ?restarts ?on_restart ?corrupts ?byzantine_from ~silent_from
    ~grant:(Grant_until acts_from) ~on_step ()

let committed_at t pid =
  if pid >= 0 && pid < Array.length t.committed then t.committed.(pid) else -1

(* A committed crash at [r] reads as a silent death from [r + 1] on. *)
let silent_from t pid =
  let r = committed_at t pid in
  match t.plan_silent_from pid with
  | Some s when r >= 0 -> Some (min (r + 1) s)
  | None when r >= 0 -> Some (r + 1)
  | s -> s

let crashed_by t pid round =
  match silent_from t pid with Some s -> round >= s | None -> false

let on_step t view = t.plan_on_step view

let note_crash t pid round =
  let n = Array.length t.committed in
  if pid >= n then begin
    let grown = Array.make (max 8 (2 * (pid + 1))) (-1) in
    Array.blit t.committed 0 grown 0 n;
    t.committed <- grown
  end;
  let r = t.committed.(pid) in
  if r < 0 || r > round then t.committed.(pid) <- round

let restarts t = t.plan_restarts

let corrupts t pid round = t.plan_corrupts pid round

let byzantine_from t pid = t.plan_byzantine_from pid

let note_restart t pid round =
  (* Forget the committed crash so a later crash of the same pid re-records;
     then let the plan mask itself (a static plan would otherwise keep
     answering [silent_from] for the revived incarnation). *)
  if committed_at t pid >= 0 then t.committed.(pid) <- -1;
  t.plan_on_restart pid round

let none = make ~trivial:true ~grant:grant_all ~on_step:(fun _ -> Survive) ()

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
  make ~trivial:(entries = []) ~silent_from ~grant:grant_all
    ~on_step:(fun _ -> Survive) ()

let crash_acting_at entries =
  let tbl = earliest_per_pid entries (fun (p, r, _) -> (p, r)) in
  let on_step view =
    match Hashtbl.find_opt tbl view.sv_pid with
    | Some (r, (_, _, decision)) when view.sv_round >= r -> decision
    | _ -> Survive
  in
  let acts_from pid =
    match Hashtbl.find_opt tbl pid with Some (r, _) -> r | None -> max_int
  in
  make ~grant:(Grant_until acts_from) ~on_step ()

(* A pid crashed by [on_step] stays dead through the kernel's committed-crash
   record, so online plans need no silent-death table of their own. *)
let dynamic f = make ~grant:grant_none ~on_step:f ()

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
  let acts_from pid =
    match Hashtbl.find_opt tbl pid with Some (r, _) -> r | None -> max_int
  in
  make ~silent_from ~grant:(Grant_until acts_from) ~on_step ()

(* The work-wasting adversaries: a crash on the consulted unit that makes
   the count since the last crash reach the current gap, keeping the work
   and dropping the round's messages. *)
let counting c =
  let on_step view =
    if view.sv_works = 0 || c.crashes >= c.max_crashes then Survive
    else begin
      c.since <- c.since + view.sv_works;
      if c.since >= c.gap then begin
        c.since <- 0;
        (match c.draw with Some g -> c.gap <- Prng.int_in g c.gap_lo c.gap_hi | None -> ());
        c.crashes <- c.crashes + 1;
        Crash { keep_work = true; delivery = Prefix 0 }
      end
      else Survive
    end
  in
  make ~grant:(Grant_counting c) ~on_step ()

let crash_active_after_random_work ~seed ~min_units ~max_units ~max_crashes =
  if min_units < 1 || max_units < min_units then
    invalid_arg "Fault.crash_active_after_random_work";
  let g = Prng.create seed in
  counting
    {
      since = 0;
      gap = Prng.int_in g min_units max_units;
      crashes = 0;
      reserved = 0;
      max_crashes;
      gap_lo = min_units;
      gap_hi = max_units;
      draw = Some g;
    }

let with_restarts restarts base =
  (* From a pid's first revival on, the base plan's answers for that pid are
     masked: its closures (e.g. [crash_silently_at] tables) know nothing of
     the new incarnation and would keep it dead forever. The wrapped plan
     therefore gives each pid at most one crash/restart cycle; multi-cycle
     adversaries are built directly via [make]'s [on_restart] hook (see
     [Campaign.Schedule.to_fault]). The wrapped plan grants no ranges. *)
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
    ~byzantine_from:base.plan_byzantine_from ~silent_from
    ~grant:grant_none ~on_step ()

let crash_active_after_work ~units_between_crashes ~max_crashes =
  counting
    {
      since = 0;
      gap = units_between_crashes;
      crashes = 0;
      reserved = 0;
      max_crashes;
      gap_lo = units_between_crashes;
      gap_hi = units_between_crashes;
      draw = None;
    }

(* ---- grants ---------------------------------------------------------- *)

(* A grant counts the unit of its first round at once, as a consulted step
   in that pid's turn would, and reserves the rest below the next crash. *)
let counting_grant c ~units ~len =
  if units = 0 then len
  else
    let budget =
      if c.crashes >= c.max_crashes then units else c.gap - 1 - c.since - c.reserved
    in
    if budget <= 0 then 0
    else begin
      let g = min units budget in
      c.since <- c.since + 1;
      c.reserved <- c.reserved + g - 1;
      if g = units then len else g
    end

let grant t pid r ~units ~len =
  match t.plan_grant with
  | Grant_until acts_from -> max 0 (min len (acts_from pid - r))
  | Grant_counting c -> counting_grant c ~units ~len

let took t ~granted ~used =
  match t.plan_grant with
  | Grant_counting c when granted > 0 ->
      c.reserved <- c.reserved - (granted - 1);
      c.since <- c.since + (used - 1)
  | Grant_counting _ | Grant_until _ -> ()

let holds t =
  match t.plan_grant with
  | Grant_counting c -> c.crashes >= c.max_crashes || c.since + c.reserved < c.gap
  | Grant_until _ -> true
