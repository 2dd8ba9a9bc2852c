open Simkit.Types
module Intmath = Dhw_util.Intmath

type msg = Know of int

let show_msg (Know c) = Printf.sprintf "know(%d)" c

type mode =
  | Naive_waiting of { known : int; deadline : round }
  | Naive_active of { next_unit : int; pending : int option }
      (** [pending = Some u]: unit [u] was just performed, report it this
          round to process [u mod t] *)

let make spec =
  let n = Spec.n spec in
  let t = Spec.processes spec in
  (* K: rounds for an active process to have reported to every other
     process — t consecutive unit/report pairs. *)
  let k = (2 * t) + 2 in
  let dgap pid m =
    let cap = n + t in
    try
      if m >= 1 then
        Intmath.checked_add
          (Intmath.checked_mul (Intmath.checked_mul k (cap - m))
             (Intmath.pow 2 (cap - 1 - m)))
          ((t - pid) * k)
      else
        Intmath.checked_mul
          (Intmath.checked_mul (Intmath.checked_mul k (t - pid)) cap)
          (Intmath.pow 2 (cap - 1))
    with Failure _ ->
      failwith
        (Printf.sprintf
           "Protocol C (naive): instance n=%d t=%d too large for 63-bit deadlines" n t)
  in
  let init pid =
    if pid = 0 then (Naive_active { next_unit = 1; pending = None }, Some 0)
    else
      let deadline = dgap pid 0 in
      (Naive_waiting { known = 0; deadline }, Some deadline)
  in
  let activate r known =
    if known >= n then
      (* everything done: halt immediately *)
      {
        state = Naive_active { next_unit = n + 1; pending = None };
        sends = [];
        work = [];
        terminate = true;
        wakeup = None;
      }
    else
      let u = known + 1 in
      {
        state = Naive_active { next_unit = u; pending = Some u };
        sends = [];
        work = [ u - 1 ];
        terminate = false;
        wakeup = Some (r + 1);
      }
  in
  let step pid r st inbox =
    match st with
    | Naive_active { next_unit; pending } -> (
        match pending with
        | Some u ->
            (* report units 1..u to process u mod t *)
            let target = u mod t in
            let sends =
              if target = pid then [] else [ { dst = target; payload = Know u } ]
            in
            let done_all = u >= n in
            {
              state = Naive_active { next_unit = u + 1; pending = None };
              sends;
              work = [];
              terminate = done_all;
              wakeup = (if done_all then None else Some (r + 1));
            }
        | None ->
            let u = next_unit in
            {
              state = Naive_active { next_unit = u; pending = Some u };
              sends = [];
              work = [ u - 1 ];
              terminate = false;
              wakeup = Some (r + 1);
            })
    | Naive_waiting { known; deadline } ->
        let known =
          List.fold_left (fun acc { payload = Know c; _ } -> max acc c) known inbox
        in
        if known >= n then
          {
            state = Naive_waiting { known; deadline };
            sends = [];
            work = [];
            terminate = true;
            wakeup = None;
          }
        else if r >= deadline then activate r known
        else
          let deadline = if inbox <> [] then r + dgap pid known else deadline in
          {
            state = Naive_waiting { known; deadline };
            sends = [];
            work = [];
            terminate = false;
            wakeup = Some deadline;
          }
  in
  Protocol.Packed
    {
      proc = { init; step; ahead = no_ahead };
      show = show_msg;
      passive = Protocol.no_passive;
    }

let protocol =
  {
    Protocol.name = "C-naive";
    describe = "knowledge spreading without fault detection; Θ(n+t²) worst case";
    make;
  }
