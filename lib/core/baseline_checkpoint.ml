open Simkit.Types

type msg = Ckpt of int  (** [Ckpt c]: the first [c] units are done *)

let show_msg (Ckpt c) = Printf.sprintf "ckpt(%d)" c

type state =
  | Waiting of { completed : int }  (** highest checkpoint received *)
  | Active of { next : int; announce : bool }
      (** the first [next] units are done; this round announces them if
          [announce], else performs unit [next] (none left once [next = n]) *)

let make ~period spec =
  let n = Spec.n spec in
  let t = Spec.processes spec in
  let n_ckpts = Dhw_util.Intmath.ceil_div n period in
  (* Active lifetime: at most one round per unit plus one per checkpoint. *)
  let lifetime = n + n_ckpts + 2 in
  let deadline j = j * lifetime in
  let run_active pid r next announce =
    if announce then
      let payload = Ckpt next in
      let rec others k acc =
        if k < 0 then acc
        else others (k - 1) (if k = pid then acc else { dst = k; payload } :: acc)
      in
      {
        state = Active { next; announce = false };
        sends = others (t - 1) [];
        work = [];
        terminate = next >= n;
        wakeup = Some (r + 1);
      }
    else if next >= n then
      (* Only reachable on takeover with everything already done. *)
      { state = Active { next; announce }; sends = []; work = []; terminate = true;
        wakeup = None }
    else
      let c = next + 1 in
      (* the last unit is always announced, so a work round never terminates *)
      {
        state = Active { next = c; announce = c mod period = 0 || c = n };
        sends = [];
        work = [ next ];
        terminate = false;
        wakeup = Some (r + 1);
      }
  in
  let init pid =
    if pid = 0 then (Active { next = 0; announce = false }, Some 0)
    else (Waiting { completed = 0 }, Some (deadline pid))
  in
  let step pid r st inbox =
    match st with
    | Active { next; announce } -> run_active pid r next announce
    | Waiting { completed } ->
        let completed =
          List.fold_left (fun acc { payload = Ckpt c; _ } -> max acc c) completed inbox
        in
        if completed >= n then
          {
            state = Waiting { completed };
            sends = [];
            work = [];
            terminate = true;
            wakeup = None;
          }
        else if r >= deadline pid then run_active pid r completed false
        else
          {
            state = Waiting { completed };
            sends = [];
            work = [];
            terminate = false;
            wakeup = Some (deadline pid);
          }
  in
  Protocol.Packed
    {
      proc = { init; step; ahead = no_ahead };
      show = show_msg;
      passive = Protocol.no_passive;
    }

let protocol ~period =
  if period < 1 then invalid_arg "Baseline_checkpoint.protocol: period >= 1";
  {
    Protocol.name = Printf.sprintf "checkpoint/%d" period;
    describe =
      "single active process, checkpoint broadcast to all after every period units";
    make = make ~period;
  }
