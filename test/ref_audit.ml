(* The post-hoc trace audits that Simkit.Audit's streaming checker
   replaced, kept as the reference of test_audit.ml's differential law: a
   per-pid retirement table, a per-round active table and a table of
   first-performed units, each built by one pass over a recorded event
   stream. Like the checker, they read only execution events: a harness's
   persists, tampers and rejects, and timing spans, are dropped first. *)

open Simkit
open Types

type violation = { round : round; message : string }

let pp_violation ppf v = Format.fprintf ppf "[r%d] %s" v.round v.message

let v round fmt = Format.kasprintf (fun message -> { round; message }) fmt

let execution =
  List.filter (function
    | Obs.Persist _ | Obs.Tamper _ | Obs.Reject _ | Obs.Span_begin _ | Obs.Span_end _ ->
        false
    | _ -> true)

let well_formed events =
  let retired : (pid, round * [ `Crash | `Term ]) Hashtbl.t = Hashtbl.create 16 in
  let violations = ref [] in
  let note x = violations := x :: !violations in
  let check_live pid round what =
    match Hashtbl.find_opt retired pid with
    | Some (r, _) when round > r ->
        note (v round "process %d %s after retiring at r%d" pid what r)
    | _ -> ()
  in
  let last_round = ref 0 in
  List.iter
    (fun ev ->
      let round = Obs.at ev in
      if round < !last_round then
        note (v round "trace goes backwards (previous round %d)" !last_round);
      last_round := max !last_round round;
      match ev with
      | Obs.Step { pid; _ } -> check_live pid round "stepped"
      | Obs.Send { src; _ } -> check_live src round "sent"
      | Obs.Work { pid; _ } -> check_live pid round "worked"
      | Obs.Restart { pid; _ } -> (
          (* A restart legitimately un-retires a crashed process; restarting
             a live or terminated one is a kernel bug. *)
          match Hashtbl.find_opt retired pid with
          | Some (_, `Crash) -> Hashtbl.remove retired pid
          | Some (r, `Term) ->
              note (v round "process %d restarts after terminating at r%d" pid r)
          | None -> note (v round "process %d restarts while not crashed" pid))
      | Obs.Crash { pid; _ } | Obs.Terminate { pid; _ } -> (
          let kind = match ev with Obs.Crash _ -> `Crash | _ -> `Term in
          match Hashtbl.find_opt retired pid with
          | Some (r, _) ->
              note (v round "process %d retires twice (first at r%d)" pid r)
          | None -> Hashtbl.replace retired pid (round, kind))
      | _ -> ())
    (execution events);
  List.rev !violations

let at_most_one_active ?(passive_msg = fun _ -> false) events =
  let per_round : (round, pid) Hashtbl.t = Hashtbl.create 97 in
  let violations = ref [] in
  let note pid round =
    match Hashtbl.find_opt per_round round with
    | None -> Hashtbl.replace per_round round pid
    | Some p when p = pid -> ()
    | Some p ->
        violations := v round "two active processes: %d and %d" p pid :: !violations
  in
  List.iter
    (fun ev ->
      match ev with
      | Obs.Work { pid; at; _ } -> note pid at
      | Obs.Send { src; at; tag; _ } when not (passive_msg tag) -> note src at
      | _ -> ())
    (execution events);
  List.rev !violations

let work_is_monotone events =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 97 in
  let highest_first = ref min_int in
  let violations = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Obs.Work { pid; at = round; unit_id } ->
          if not (Hashtbl.mem seen unit_id) then begin
            Hashtbl.replace seen unit_id ();
            if unit_id < !highest_first then
              violations :=
                v round "process %d first-performs unit %d after unit %d" pid
                  unit_id !highest_first
                :: !violations;
            highest_first := max !highest_first unit_id
          end
      | _ -> ())
    (execution events);
  List.rev !violations
