open Types

type check = Well_formed | One_active | Monotone
type act = Steps | Sends | Works

type fault =
  | Acts_after_retiring of { pid : pid; act : act; retired_at : round }
  | Goes_backwards of { previous : round }
  | Restarts_after_terminating of { pid : pid; terminated_at : round }
  | Restarts_while_up of { pid : pid }
  | Retires_twice of { pid : pid; first_at : round }
  | Two_active of { first : pid; second : pid }
  | Late_first_performance of { pid : pid; unit_id : int; after : int }

type violation = { round : round; fault : fault }

let act_name = function Steps -> "stepped" | Sends -> "sent" | Works -> "worked"

let pp_fault ppf = function
  | Acts_after_retiring { pid; act; retired_at } ->
      Format.fprintf ppf "process %d %s after retiring at r%d" pid
        (act_name act) retired_at
  | Goes_backwards { previous } ->
      Format.fprintf ppf "trace goes backwards (previous round %d)" previous
  | Restarts_after_terminating { pid; terminated_at } ->
      Format.fprintf ppf "process %d restarts after terminating at r%d" pid
        terminated_at
  | Restarts_while_up { pid } ->
      Format.fprintf ppf "process %d restarts while not crashed" pid
  | Retires_twice { pid; first_at } ->
      Format.fprintf ppf "process %d retires twice (first at r%d)" pid first_at
  | Two_active { first; second } ->
      Format.fprintf ppf "two active processes: %d and %d" first second
  | Late_first_performance { pid; unit_id; after } ->
      Format.fprintf ppf "process %d first-performs unit %d after unit %d" pid
        unit_id after

let pp_violation ppf v = Format.fprintf ppf "[r%d] %a" v.round pp_fault v.fault

(* Per-pid incarnation state for [Well_formed]: [status] is live, crashed or
   terminated, and [retired_at] the round of the retirement that ended the
   current incarnation. [One_active] keeps the current round and its first
   active pid; [Monotone] a bitset of first-performed units and the highest
   of them. Violation lists are kept newest first. *)
let live = '\000'
let crashed_c = '\001'
let terminated_c = '\002'

type t = {
  wf : bool;
  oa : bool;
  mono : bool;
  status : Bytes.t;
  retired_at : int array;
  mutable last_round : round;
  mutable active_round : round;
  mutable active : pid;  (* -1: no active process noted yet *)
  seen : Bytes.t;
  n_units : int;
  mutable highest_first : int;
  mutable wf_v : violation list;
  mutable oa_v : violation list;
  mutable mono_v : violation list;
}

let create ?(checks = [ Well_formed; One_active; Monotone ]) ~processes ~units
    () =
  let wf = List.mem Well_formed checks and mono = List.mem Monotone checks in
  {
    wf;
    oa = List.mem One_active checks;
    mono;
    status = Bytes.make (if wf then processes else 0) live;
    retired_at = (if wf then Array.make processes 0 else [||]);
    last_round = 0;
    active_round = 0;
    active = -1;
    seen = Bytes.make (if mono then (units + 7) / 8 else 0) '\000';
    n_units = (if mono then units else 0);
    highest_first = min_int;
    wf_v = [];
    oa_v = [];
    mono_v = [];
  }

let violations t check =
  let on, vs =
    match check with
    | Well_formed -> (t.wf, t.wf_v)
    | One_active -> (t.oa, t.oa_v)
    | Monotone -> (t.mono, t.mono_v)
  in
  if not on then invalid_arg "Audit.violations: check not armed";
  List.rev vs

let note_wf t round fault = t.wf_v <- { round; fault } :: t.wf_v

(* [Well_formed]'s round order, checked for every event. *)
let advance t round =
  if round < t.last_round then
    note_wf t round (Goes_backwards { previous = t.last_round });
  if round > t.last_round then t.last_round <- round

let check_live t pid round act =
  if Bytes.get t.status pid <> live && round > t.retired_at.(pid) then
    note_wf t round
      (Acts_after_retiring { pid; act; retired_at = t.retired_at.(pid) })

let retire t pid round kind =
  if Bytes.get t.status pid <> live then
    note_wf t round (Retires_twice { pid; first_at = t.retired_at.(pid) })
  else begin
    Bytes.set t.status pid kind;
    t.retired_at.(pid) <- round
  end

let note_active t pid round =
  if t.active < 0 || round <> t.active_round then begin
    t.active_round <- round;
    t.active <- pid
  end
  else if pid <> t.active then
    t.oa_v <- { round; fault = Two_active { first = t.active; second = pid } } :: t.oa_v

let stepped t ~pid ~round =
  if t.wf then begin
    advance t round;
    check_live t pid round Steps
  end

let sent t ~src ~round ~passive =
  if t.wf then begin
    advance t round;
    check_live t src round Sends
  end;
  if t.oa && not passive then note_active t src round

let dropped t ~round = if t.wf then advance t round

let worked t ~pid ~round ~unit_id =
  if t.wf then begin
    advance t round;
    check_live t pid round Works
  end;
  if t.oa then note_active t pid round;
  if t.mono then begin
    if unit_id < 0 || unit_id >= t.n_units then
      invalid_arg "Audit.worked: unit id out of range";
    let i = unit_id lsr 3 and bit = 1 lsl (unit_id land 7) in
    let byte = Char.code (Bytes.unsafe_get t.seen i) in
    if byte land bit = 0 then begin
      Bytes.unsafe_set t.seen i (Char.unsafe_chr (byte lor bit));
      if unit_id < t.highest_first then
        t.mono_v <-
          {
            round;
            fault =
              Late_first_performance { pid; unit_id; after = t.highest_first };
          }
          :: t.mono_v
      else t.highest_first <- unit_id
    end
  end

let crashed t ~pid ~round =
  if t.wf then begin
    advance t round;
    retire t pid round crashed_c
  end

let terminated t ~pid ~round =
  if t.wf then begin
    advance t round;
    retire t pid round terminated_c
  end

(* A restart legitimately un-retires a crashed process; restarting a live or
   terminated one is a kernel bug. *)
let restarted t ~pid ~round =
  if t.wf then begin
    advance t round;
    let s = Bytes.get t.status pid in
    if s = crashed_c then Bytes.set t.status pid live
    else if s = terminated_c then
      note_wf t round
        (Restarts_after_terminating { pid; terminated_at = t.retired_at.(pid) })
    else note_wf t round (Restarts_while_up { pid })
  end

let feed ?(passive_msg = fun _ -> false) t = function
  | Trace.Stepped { pid; round } -> stepped t ~pid ~round
  | Trace.Sent { src; round; what; _ } ->
      sent t ~src ~round ~passive:(passive_msg what)
  | Trace.Dropped { round; _ } -> dropped t ~round
  | Trace.Worked { pid; round; unit_id } -> worked t ~pid ~round ~unit_id
  | Trace.Crashed_ev { pid; round } -> crashed t ~pid ~round
  | Trace.Restarted_ev { pid; round } -> restarted t ~pid ~round
  | Trace.Terminated_ev { pid; round } -> terminated t ~pid ~round

let replay ?passive_msg ?checks trace =
  let events = Trace.events trace in
  let processes, units =
    List.fold_left
      (fun (p, u) ev ->
        match ev with
        | Trace.Worked { pid; unit_id; _ } -> (max p (pid + 1), max u (unit_id + 1))
        | Trace.Stepped { pid; _ }
        | Trace.Crashed_ev { pid; _ }
        | Trace.Restarted_ev { pid; _ }
        | Trace.Terminated_ev { pid; _ }
        | Trace.Sent { src = pid; _ } -> (max p (pid + 1), u)
        | Trace.Dropped _ -> (p, u))
      (0, 0) events
  in
  let t = create ?checks ~processes ~units () in
  List.iter (feed ?passive_msg t) events;
  t

let replay_one ?passive_msg check trace =
  violations (replay ?passive_msg ~checks:[ check ] trace) check

let well_formed trace = replay_one Well_formed trace
let at_most_one_active ?passive_msg trace = replay_one ?passive_msg One_active trace
let work_is_monotone trace = replay_one Monotone trace
