open Doall
module Intmath = Dhw_util.Intmath

type work_protocol = A | B | C | C_chunked

type outcome = {
  decisions : int array;
  correct : bool array;
  agreement : bool;
  validity : bool;
  messages : int;
  work_messages : int;
  rounds : int;
  sender_work : int;
}

let protocol_of = function
  | A -> Protocol_a.protocol
  | B -> Protocol_b.protocol
  | C -> Protocol_c.protocol
  | C_chunked -> Protocol_c.protocol_chunked

(* With Protocol C every message carries the sender's current value; with A
   and B only the unit-informs do (Section 5's correctness argument for A/B
   depends on checkpoints NOT carrying values). *)
let messages_carry_value = function A | B -> false | C | C_chunked -> true

let run ~n ~t_bound ~value ?(crash_at = []) ?general_cut proto =
  if t_bound < 0 || t_bound + 1 > n then invalid_arg "Crash_ba.run";
  let n_senders = t_bound + 1 in
  let crash_at =
    match general_cut with
    | Some _ when not (List.mem_assoc 0 crash_at) -> (0, 0) :: crash_at
    | _ -> crash_at
  in
  let crash_round pid =
    List.fold_left
      (fun acc (p, r) -> if p = pid then Some (min r (Option.value ~default:r acc)) else acc)
      None crash_at
  in
  (* Stage 1: the general (process 0) informs the senders. *)
  let informed_senders =
    match (general_cut, crash_round 0) with
    | Some k, _ -> min k n_senders
    | None, Some 0 -> 0 (* crashed before broadcasting anything *)
    | None, _ -> n_senders
  in
  (* Stage 2: the senders run the work protocol; unit i = inform process i. *)
  let spec = Spec.make ~n ~t:n_senders in
  let sender_crashes = List.filter (fun (p, _) -> p < n_senders) crash_at in
  let fault = Simkit.Fault.crash_silently_at sender_crashes in
  let obs, recorded = Simkit.Obs.memory () in
  let report = Runner.run ~fault ~obs spec (protocol_of proto) in
  (* Replay the events to track value adoption. All events of a round are
     applied deliveries-first (a process that receives and then acts within
     round r acts with the updated value). *)
  let values = Array.make n 0 in
  for s = 0 to informed_senders - 1 do
    values.(s) <- value
  done;
  let alive_at pid r = match crash_round pid with None -> true | Some c -> r < c in
  (* (delivery_round, recipient, send_round, sender) *)
  let informs =
    List.filter_map
      (fun ev ->
        match ev with
        | Simkit.Obs.Work { pid; at; unit_id } -> Some (at + 1, unit_id, at, pid)
        | Simkit.Obs.Send { src; dst; at; tag }
          when messages_carry_value proto
               (* only Protocol C's *checkpointing* (ordinary) messages carry
                  the value — polls and replies do not; the payload printer
                  renders ordinaries as "ord(...)" *)
               && String.length tag >= 3
               && String.sub tag 0 3 = "ord" ->
            Some (at + 1, dst, at, src)
        | _ -> None)
      (recorded ())
  in
  let informs =
    List.stable_sort (fun (d1, _, _, _) (d2, _, _, _) -> compare d1 d2) informs
  in
  (* The stream is chronological and deliveries happen one round after sends,
     so by processing deliveries in delivery-round order, each sender's value
     is read after all its adoptions from strictly earlier rounds — and a
     sender that was informed in its own send round already appears earlier
     in the sorted list (delivery round = send round). *)
  List.iter
    (fun (delivery, recipient, _send_round, sender) ->
      if recipient >= 0 && recipient < n && alive_at recipient delivery then
        values.(recipient) <- values.(sender))
    informs;
  let correct = Array.init n (fun pid -> crash_round pid = None) in
  let decisions =
    Array.init n (fun pid -> if correct.(pid) then values.(pid) else -1)
  in
  let decided = Array.to_list decisions |> List.filter (fun v -> v >= 0) in
  let agreement =
    match decided with [] -> true | v :: rest -> List.for_all (( = ) v) rest
  in
  let validity = (not correct.(0)) || List.for_all (( = ) value) decided in
  let work_messages = Simkit.Metrics.messages report.metrics in
  let sender_work = Simkit.Metrics.work report.metrics in
  {
    decisions;
    correct;
    agreement;
    validity;
    messages = informed_senders + work_messages + sender_work;
    work_messages;
    rounds = Simkit.Metrics.rounds report.metrics + 1;
    sender_work;
  }

let bracha_msgs ~n ~t = n + (t * Intmath.isqrt_up t)
let gmy_msgs ~n = 4 * n
