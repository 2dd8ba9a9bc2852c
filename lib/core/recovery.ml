open Simkit.Types
open Ckpt_script

type which = A | B

let name = function A -> "A+rec" | B -> "B+rec"

(* ------------------------------------------------------------------ *)
(* Checkpoint views and their ordering                                 *)
(* ------------------------------------------------------------------ *)

let view_rank = function
  | No_msg -> (-1, -1)
  | Last_ord { ord = Partial c; _ } -> (c, 0)
  | Last_ord { ord = Full (c, g); _ } -> (c, g + 1)

(* Strictly-better: higher completed subchunk wins; at equal subchunks a
   full checkpoint beats a partial one and a further-propagated full beats
   a less-propagated one. Ties keep the incumbent, so the fold below is
   deterministic under the kernel's src-sorted inboxes. *)
let better a b = view_rank a > view_rank b

let max_view = List.fold_left (fun b v -> if better v b then v else b)

let show_last = function
  | No_msg -> "-"
  | Last_ord { ord; src } -> Printf.sprintf "%s<%d" (show_ord ord) src

(* ------------------------------------------------------------------ *)
(* The wrapper protocol                                                *)
(* ------------------------------------------------------------------ *)

type 'm rmsg =
  | Payload of 'm  (** an inner-protocol message, passed through *)
  | Announce  (** rejoiner's state-transfer request, broadcast on revival *)
  | Transfer of last  (** a peer's reply: its best durable view *)

let show_rmsg show = function
  | Payload m -> show m
  | Announce -> "announce"
  | Transfer l -> "xfer " ^ show_last l

let rmsg_passive passive = function
  | Payload m -> passive m
  | Announce | Transfer _ -> false

type 's imode = Run of 's | Rejoin of { until : round; announced : bool }

type 's rstate = {
  inner : 's imode;
  best : last;  (** best view seen; mirrored to stable storage on improvement *)
  iw : round option;  (** the inner process's pending wakeup, if any *)
}

type ('s, 'm) adapter = {
  n_procs : int;
  init : pid -> 's * round option;
  step : pid -> round -> 's -> 'm envelope list -> ('s, 'm) outcome;
  show : 'm -> string;
  passive : 'm -> bool;
  view_of : 'm -> ord option;
  resume : pid -> at:round -> last -> 's * round option;
}

let harden (type s m) (ad : (s, m) adapter) ~(stable : last Simkit.Stable.t) :
    (s rstate, m rmsg) process =
  let init pid =
    let s, w = ad.init pid in
    ({ inner = Run s; best = No_msg; iw = w }, w)
  in
  let step pid r st inbox =
    let payloads =
      List.filter_map
        (fun e ->
          match e.payload with
          | Payload m -> Some { src = e.src; sent_at = e.sent_at; payload = m }
          | Announce | Transfer _ -> None)
        inbox
    in
    let announcers =
      List.filter_map
        (fun e -> match e.payload with Announce -> Some e.src | _ -> None)
        inbox
    in
    let inbound_views =
      List.filter_map
        (fun e -> match e.payload with Transfer l -> Some l | _ -> None)
        inbox
      @ List.filter_map
          (fun e ->
            match ad.view_of e.payload with
            | Some ord -> Some (Last_ord { ord; src = e.src })
            | None -> None)
          payloads
    in
    let best = max_view st.best inbound_views in
    (* Persist-on-improvement (write-ahead: the write is durable even if
       this very round is the victim's crash round), then answer any
       state-transfer requests with the freshest view. *)
    let finish ~best ~inner ~iw ~sends ~work ~terminate ~wakeup =
      if better best st.best then Simkit.Stable.write stable pid ~at:r best;
      let sends =
        sends
        @ List.map (fun src -> { dst = src; payload = Transfer best }) announcers
      in
      { state = { inner; best; iw }; sends; work; terminate; wakeup }
    in
    match st.inner with
    | Run s ->
        (* Inbox sanitization: deliver at most one view-carrying inner
           message — the best-ranked one. The inner protocols assume at
           most one active sender per round and keep the latest message;
           under crash–recovery two actives can overlap (a rejoiner's
           staggered deadline may fire inside another active's era), and
           an unsanitized inbox would let a stale checkpoint overwrite
           fresher news — including the all-done announcement. *)
        let chosen =
          List.fold_left
            (fun acc e ->
              match ad.view_of e.payload with
              | None -> acc
              | Some ord -> (
                  let rk = view_rank (Last_ord { ord; src = e.src }) in
                  match acc with
                  | Some (rk0, _) when rk <= rk0 -> acc
                  | _ -> Some (rk, e)))
            None payloads
        in
        let payloads' =
          List.filter
            (fun e ->
              match ad.view_of e.payload with
              | None -> true
              | Some _ -> (
                  match chosen with Some (_, c) -> e == c | None -> true))
            payloads
        in
        let inner_due =
          payloads' <> []
          || match st.iw with Some w -> w <= r | None -> false
        in
        if inner_due then
          let o = ad.step pid r s payloads' in
          let out_views =
            List.filter_map
              (fun (sd : m send) ->
                match ad.view_of sd.payload with
                | Some ord -> Some (Last_ord { ord; src = pid })
                | None -> None)
              o.sends
          in
          let best = max_view best out_views in
          finish ~best ~inner:(Run o.state) ~iw:o.wakeup
            ~sends:
              (List.map (fun sd -> { dst = sd.dst; payload = Payload sd.payload })
                 o.sends)
            ~work:o.work ~terminate:o.terminate ~wakeup:o.wakeup
        else
          (* Only wrapper traffic (announces / transfers) woke us: absorb it
             without stepping the inner process or disturbing its wakeup. *)
          finish ~best ~inner:st.inner ~iw:st.iw ~sends:[] ~work:[]
            ~terminate:false ~wakeup:st.iw
    | Rejoin { until; announced } ->
        if r >= until then
          (* Handshake window over: resume from the best view gathered from
             peers' transfers and our own stable storage. *)
          let s, w = ad.resume pid ~at:r best in
          finish ~best ~inner:(Run s) ~iw:w ~sends:[] ~work:[]
            ~terminate:false ~wakeup:w
        else
          let sends =
            if announced then []
            else
              List.init ad.n_procs Fun.id
              |> List.filter (fun d -> d <> pid)
              |> List.map (fun d -> { dst = d; payload = Announce })
          in
          finish ~best
            ~inner:(Rejoin { until; announced = true })
            ~iw:None ~sends ~work:[] ~terminate:false ~wakeup:(Some until)
  in
  { init; step }

let recover_hook stable ~rejoin_rounds pid r =
  let best = Option.value ~default:No_msg (Simkit.Stable.read stable pid) in
  ( { inner = Rejoin { until = r + rejoin_rounds; announced = false };
      best;
      iw = None },
    Some r )

(* ------------------------------------------------------------------ *)
(* Protocol adapters                                                   *)
(* ------------------------------------------------------------------ *)

let adapter_a grid : (Protocol_a.state, Protocol_a.msg) adapter =
  let proc = Protocol_a.proc_on_grid grid in
  {
    n_procs = Spec.processes (Grid.spec grid);
    init = proc.init;
    step = proc.step;
    show = Protocol_a.show_msg;
    passive = Protocol.no_passive;
    view_of = (fun (m : Protocol_a.msg) -> Some m);
    resume = Protocol_a.resume_state grid;
  }

let adapter_b grid : (Protocol_b.pstate, Protocol_b.msg) adapter =
  let proc = Protocol_b.proc_on_grid grid in
  {
    n_procs = Spec.processes (Grid.spec grid);
    init = proc.init;
    step = proc.step;
    show = Protocol_b.show_msg;
    passive = Protocol_b.is_passive;
    view_of =
      (function Protocol_b.Ord o -> Some o | Protocol_b.Go_ahead -> None);
    resume = Protocol_b.resume_state grid;
  }

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let run ?fault ?max_rounds ?obs ?spans ?audit ?(rejoin_rounds = 3) spec
    which =
  let grid = Grid.make spec in
  let metrics =
    Simkit.Metrics.create ~n_processes:(Spec.processes spec) ~n_units:(Spec.n spec)
  in
  let on_write pid at =
    Simkit.Metrics.record_persist metrics pid at;
    match obs with
    | Some sink -> sink (Simkit.Obs.Persist { pid; at })
    | None -> ()
  in
  let stable =
    Simkit.Stable.create ~on_write ?spans ~n_processes:(Spec.processes spec) ()
  in
  let run_with (type s m) (ad : (s, m) adapter) =
    let proc = harden ad ~stable in
    let cfg =
      Simkit.Kernel.config ?fault ?max_rounds ?obs ?spans ?audit
        ~passive:(rmsg_passive ad.passive) ~show:(show_rmsg ad.show)
        ~n_processes:ad.n_procs ~n_units:(Spec.n spec) ()
    in
    let result =
      Simkit.Kernel.run ~recover:(recover_hook stable ~rejoin_rounds) ~metrics
        cfg proc
    in
    {
      Runner.spec;
      protocol = name which;
      metrics = result.metrics;
      statuses = result.statuses;
      outcome = result.outcome;
    }
  in
  match which with
  | A -> run_with (adapter_a grid)
  | B -> run_with (adapter_b grid)
