(* Differential law: [Simkit.Kernel.run] (one due-pid loop with crash,
   restart and Byzantine activations as heap events) against the plain
   round sweep of Ref_kernel, on the same protocol, configuration and
   fault schedule. Both must agree on statuses, outcome, every Metrics
   reader, the full Trace event list, the observability stream and the
   round/step/deliver span structure (timestamps aside). The sweep
   stable-sorts every inbox it collected by consing; the kernel appends to
   reusable per-destination buffers and builds a stepping receiver's list
   in that same order, which the D and D-coord variants and the
   double-send case exercise. The cases after the law pin what a message
   costs the kernel. *)

open Simkit
open Types
module Prng = Dhw_util.Prng
module C = Campaign

(* Both kernels share one signature; the record lets a case run either. *)
type kernel = {
  run :
    's 'm.
    recover:(pid -> round -> 's * round option) option ->
    metrics:Metrics.t option ->
    'm Kernel.config ->
    ('s, 'm) process ->
    'm Kernel.result;
}

let real = { run = (fun ~recover ~metrics cfg p -> Kernel.run ?recover ?metrics cfg p) }
let reference = { run = (fun ~recover ~metrics cfg p -> Ref_kernel.run ?recover ?metrics cfg p) }

type seen = {
  statuses : status array;
  outcome : Kernel.run_outcome;
  readers : (string * int) list;
  events : Trace.event list;
  stream : Obs.event list;
  spans : (string * pid * round * int * bool) list;
}

let readers m ~n ~t =
  let per name f k = List.init k (fun i -> (Printf.sprintf "%s %d" name i, f m i)) in
  [
    ("messages", Metrics.messages m); ("work", Metrics.work m);
    ("effort", Metrics.effort m); ("rounds", Metrics.rounds m);
    ("crashes", Metrics.crashes m); ("terminated", Metrics.terminated m);
    ("restarts", Metrics.restarts m); ("persists", Metrics.persists m);
    ("corruptions", Metrics.corruptions m); ("rejected", Metrics.rejected m);
    ("units_covered", Metrics.units_covered m);
    ("all_units_done", Bool.to_int (Metrics.all_units_done m));
  ]
  @ per "unit_multiplicity" Metrics.unit_multiplicity n
  @ per "work_by" Metrics.work_by t
  @ per "messages_by" Metrics.messages_by t
  @ per "persists_by" Metrics.persists_by t

(* Run [k] with every sink attached and collect what it exposes. [metrics]
   is passed in because harnesses wire stable-storage writes and rejections
   into the accumulator before the run. *)
let observe k ~n ~t ~fault ?tamper ?recover ~show ~metrics ~max_rounds proc =
  let trace = Trace.create () in
  let stream = ref [] and spans = ref [] in
  let cfg =
    Kernel.config ~fault ~max_rounds ~trace ~show ?tamper
      ~obs:(fun e -> stream := e :: !stream)
      ~spans:(fun e ->
        match e with
        | Obs.Span_begin s -> spans := (s.name, s.pid, s.at, s.inc, true) :: !spans
        | Obs.Span_end s -> spans := (s.name, s.pid, s.at, s.inc, false) :: !spans
        | _ -> ())
      ~n_processes:t ~n_units:n ()
  in
  let res = k.run ~recover ~metrics:(Some metrics) cfg proc in
  {
    statuses = Array.copy res.statuses;
    outcome = res.outcome;
    readers = readers res.metrics ~n ~t;
    events = Trace.events trace;
    stream = List.rev !stream;
    spans = List.rev !spans;
  }

let first_diff pp a b =
  let rec go i = function
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else Some (i, pp x, pp y)
    | x :: _, [] -> Some (i, pp x, "<end>")
    | [], y :: _ -> Some (i, "<end>", pp y)
    | [], [] -> None
  in
  go 0 (a, b)

let explain ?(names = ("kernel", "sweep")) a b =
  let na, nb = names in
  let outcome = function
    | Kernel.Completed -> "completed"
    | Kernel.Stalled r -> Printf.sprintf "stalled@%d" r
    | Kernel.Round_limit r -> Printf.sprintf "round-limit@%d" r
  in
  let diff what pp xs ys =
    Option.map
      (fun (i, x, y) -> Printf.sprintf "%s #%d: %s %s, %s %s" what i na x nb y)
      (first_diff pp xs ys)
  in
  List.find_map Fun.id
    [
      (if a.outcome <> b.outcome then
         Some
           (Printf.sprintf "outcome: %s %s, %s %s" na (outcome a.outcome) nb
              (outcome b.outcome))
       else None);
      diff "status" status_to_string (Array.to_list a.statuses) (Array.to_list b.statuses);
      diff "metric" (fun (k, v) -> Printf.sprintf "%s=%d" k v) a.readers b.readers;
      diff "trace event" (Format.asprintf "%a" Trace.pp_event) a.events b.events;
      diff "obs event" (fun e -> Dhw_util.Jsonw.to_string (Obs.event_to_json e)) a.stream b.stream;
      diff "span"
        (fun (name, pid, at, inc, b) ->
          Printf.sprintf "%s %s pid=%d at=%d inc=%d" (if b then "begin" else "end") name pid at inc)
        a.spans b.spans;
    ]

(* ---- the cases ------------------------------------------------------ *)

type variant = A | A_tamper | B | A_rec | A_val | A_val_untampered | D | D_coord

let variant_name = function
  | A -> "A"
  | A_tamper -> "A+tamper"
  | B -> "B"
  | A_rec -> "A+rec"
  | A_val -> "A+val"
  | A_val_untampered -> "A+val/no-tamper"
  | D -> "D"
  | D_coord -> "D-coord"

let variants = [| A; A_tamper; B; A_rec; A_val; A_val_untampered; D; D_coord |]

type plan =
  | Sched of C.Schedule.t
  | Random of { seed : int64; victims : int; window : int; restarts : (pid * round) list }
  | Storm of { seed : int64; max_crashes : int }

let fault_of ~t = function
  | Sched s -> C.Schedule.to_fault s
  | Random { seed; victims; window; restarts } ->
      let base = Fault.random ~seed ~t ~victims ~window in
      if restarts = [] then base else Fault.with_restarts restarts base
  | Storm { seed; max_crashes } ->
      Fault.crash_active_after_random_work ~seed ~min_units:1 ~max_units:4 ~max_crashes

let plan_to_string = function
  | Sched s -> C.Schedule.print s
  | Random { seed; victims; window; restarts } ->
      Printf.sprintf "Fault.random seed=%Ld victims=%d window=%d restarts=[%s]" seed
        victims window
        (String.concat "; " (List.map (fun (p, r) -> Printf.sprintf "%d@%d" p r) restarts))
  | Storm { seed; max_crashes } ->
      Printf.sprintf "crash_active_after_random_work seed=%Ld max_crashes=%d" seed max_crashes

type case = { variant : variant; n : int; t : int; plan : plan }

let case_to_string c =
  Printf.sprintf "%s n=%d t=%d\n%s" (variant_name c.variant) c.n c.t (plan_to_string c.plan)

(* Both kernels run [c] from scratch: fresh fault plan, fresh process
   state, fresh stable storage. *)
let run_case k c =
  let spec = Doall.Spec.make ~n:c.n ~t:c.t in
  let grid = Doall.Grid.make spec in
  let fault = fault_of ~t:c.t c.plan in
  let n = c.n and t = c.t in
  let max_rounds = Doall.Fuzz.byz_max_rounds spec ~window:(4 * n) in
  let fresh () = Metrics.create ~n_processes:t ~n_units:n in
  match c.variant with
  | A | B | D | D_coord ->
      let p =
        match c.variant with
        | A -> Doall.Protocol_a.protocol
        | B -> Doall.Protocol_b.protocol
        | D -> Doall.Protocol_d.protocol
        | _ -> Doall.Protocol_d_coord.protocol
      in
      let (Doall.Protocol.Packed { proc; show; _ }) = p.make spec in
      observe k ~n ~t ~fault ~show ~metrics:(fresh ()) ~max_rounds proc
  | A_tamper ->
      observe k ~n ~t ~fault ~tamper:(Doall.Validate.tamper_plain grid)
        ~show:Doall.Protocol_a.show_msg ~metrics:(fresh ()) ~max_rounds
        (Doall.Protocol_a.proc_on_grid grid)
  | A_rec ->
      let metrics = fresh () in
      let stable =
        Stable.create ~on_write:(Metrics.record_persist metrics) ~n_processes:t ()
      in
      let ad = Doall.Recovery.adapter_a grid in
      observe k ~n ~t ~fault
        ~recover:(Doall.Recovery.recover_hook stable ~rejoin_rounds:3)
        ~show:(Doall.Recovery.show_rmsg ad.show) ~metrics ~max_rounds
        (Doall.Recovery.harden ad ~stable)
  | A_val | A_val_untampered ->
      let metrics = fresh () in
      let proc =
        Doall.Validate.proc_validated grid ~on_reject:(fun ~pid:_ ~at:_ ->
            Metrics.record_reject metrics)
      in
      let tamper =
        if c.variant = A_val then Some (Doall.Validate.tamper_signed grid) else None
      in
      observe k ~n ~t ~fault ?tamper ~show:Doall.Validate.show_signed ~metrics
        ~max_rounds proc

let agree c =
  let a = run_case real c and b = run_case reference c in
  match explain a b with
  | None -> true
  | Some why -> QCheck2.Test.fail_reportf "%s\n%s" (case_to_string c) why

(* Schedules from every sampler and hand-built plan family, over small
   instances so each case runs in milliseconds under the O(t) sweep. *)
let gen_case =
  let open QCheck2.Gen in
  let* variant = oneofa variants in
  let* t = int_range 1 7 in
  let* n = int_range 1 36 in
  let* seed = int in
  let* family = int_range 0 5 in
  let g = Prng.create (Int64.of_int seed) in
  let window = (3 * n) + 12 in
  let plan =
    match family with
    | 0 -> Sched (C.sample g ~t ~window)
    | 1 | 2 -> Sched (C.sample_recovery g ~t ~window ~restart_gap:(1 + Prng.int g 6))
    | 3 -> Sched (C.sample_byz g ~t ~window ~byz:(Prng.int g t))
    | 4 when t >= 2 ->
        let victims = 1 + Prng.int g (t - 1) in
        let restarts =
          List.init (Prng.int g 3) (fun _ -> (Prng.int g t, Prng.int g (window + 6)))
        in
        Random { seed = Int64.of_int seed; victims; window; restarts }
    | _ -> Storm { seed = Int64.of_int seed; max_crashes = Prng.int g t }
  in
  return { variant; n; t; plan }

let law =
  Helpers.qcheck_case ~count:1000 ~name:"kernel = reference sweep on random schedules"
    gen_case agree

(* A rejoiner whose recovery hook asks for a wakeup before its restart
   round: the sweep steps any wakeup <= r, so it steps in the restart round
   itself — the merged loop must not discard the early heap entry. *)
let test_early_rejoin_wakeup () =
  let proc =
    {
      init = (fun pid -> (0, Some (if pid = 0 then 0 else 40)));
      step =
        (fun pid r k _ ->
          if k >= 8 then { state = k; sends = []; work = []; terminate = true; wakeup = None }
          else
            {
              state = k + 1;
              sends = (if pid = 0 then [ { dst = 2; payload = r } ] else []);
              work = [ (pid + k) mod 3 ];
              terminate = false;
              wakeup = Some (r + 1);
            });
    }
  in
  let sched =
    C.Schedule.make
      [
        { C.Schedule.victim = 1; at = 2; mode = C.Schedule.Silent };
        { victim = 1; at = 5; mode = C.Schedule.Restart };
      ]
  in
  let go k =
    observe k ~n:3 ~t:3 ~fault:(C.Schedule.to_fault sched) ~show:string_of_int
      ~recover:(fun _ r -> (0, Some (r - 3)))
      ~metrics:(Metrics.create ~n_processes:3 ~n_units:3)
      ~max_rounds:1000 proc
  in
  let a = go real and b = go reference in
  (match explain a b with None -> () | Some why -> Alcotest.fail why);
  Alcotest.(check bool)
    "rejoiner steps in its restart round" true
    (List.mem (Trace.Stepped { pid = 1; round = 5 }) a.events)

(* Pid 2 sends two messages to pid 0 in a round while pid 1 sends one:
   both kernels deliver pid 1's message first, then pid 2's two in the
   reverse of their send order — the stable sort by sender of an inbox
   collected by consing, which the sweep performs and the kernel's
   buffers reproduce when they build the list. *)
let test_double_send_inbox () =
  let go k =
    let inboxes = ref [] in
    let proc =
      {
        init = (fun _ -> (0, Some 0));
        step =
          (fun pid r k inbox ->
            if pid = 0 && inbox <> [] then
              inboxes := List.map (fun e -> (e.src, e.payload)) inbox :: !inboxes;
            let sends =
              match pid with
              | 1 -> [ { dst = 0; payload = (10 * r) + 1 } ]
              | 2 ->
                  [ { dst = 0; payload = (10 * r) + 2 }; { dst = 0; payload = (10 * r) + 3 } ]
              | _ -> []
            in
            if r >= 2 then
              { state = k; sends = []; work = [ pid ]; terminate = true; wakeup = None }
            else { state = k + 1; sends; work = []; terminate = false; wakeup = Some (r + 1) });
      }
    in
    let seen =
      observe k ~n:3 ~t:3 ~fault:Fault.none ~show:string_of_int
        ~metrics:(Metrics.create ~n_processes:3 ~n_units:3)
        ~max_rounds:100 proc
    in
    (seen, List.rev !inboxes)
  in
  let a, inbox_a = go real and b, inbox_b = go reference in
  (match explain a b with None -> () | Some why -> Alcotest.fail why);
  let pairs = Alcotest.(list (list (pair int int))) in
  Alcotest.check pairs "both kernels deliver the same inboxes" inbox_b inbox_a;
  Alcotest.check pairs "sender order, one sender's messages reversed"
    [ [ (1, 1); (2, 3); (2, 2) ]; [ (1, 11); (2, 13); (2, 12) ] ]
    inbox_a

(* A broadcast is one envelope: the recipients of consecutive sends that
   carry the physically same payload all receive the physically same
   envelope, and a different payload gets an envelope of its own. *)
let test_broadcast_one_envelope () =
  let t = 6 in
  let shared = ref 1 and other = ref 2 in
  let got = Array.make t [] in
  let proc =
    {
      init = (fun pid -> ((), if pid = 0 then Some 0 else None));
      step =
        (fun pid _ () inbox ->
          got.(pid) <- inbox;
          let sends =
            if pid > 0 then []
            else
              List.init (t - 1) (fun i -> { dst = i + 1; payload = shared })
              @ [ { dst = 1; payload = other } ]
          in
          { state = (); sends; work = []; terminate = true; wakeup = None });
    }
  in
  let res = Kernel.run (Kernel.config ~n_processes:t ~n_units:1 ()) proc in
  Alcotest.(check bool) "completed" true (res.outcome = Kernel.Completed);
  let carrying p pid = List.filter (fun e -> e.payload == p) got.(pid) in
  let envs = List.concat_map (carrying shared) (List.init (t - 1) succ) in
  Alcotest.(check int) "every recipient got the broadcast" (t - 1) (List.length envs);
  let first = List.hd envs in
  Alcotest.(check bool) "one envelope for the whole broadcast" true
    (List.for_all (fun e -> e == first) envs);
  match carrying other 1 with
  | [ e ] -> Alcotest.(check bool) "another payload, another envelope" false (e == first)
  | l -> Alcotest.failf "pid 1 got %d envelopes carrying the second payload" (List.length l)

(* Inbox buffers are reused round after round, so nothing may leak from
   one round's mail into a later one. Pid 0 sends 1, 2 or 3 messages to
   each other pid per round; pid 1 crashes silently at round 3 and is
   revived at 6, pid 2 crashes while acting at round 4 and is revived at 8
   (mail addressed to a down pid is lost), pid 3 never fails. Every inbox
   any receiver steps with must be exactly the mail sent to it in the
   round before, and both kernels must agree. *)
let test_down_receiver_sees_later_mail () =
  let t = 4 and last = 12 in
  let sent_in r dst =
    List.init ((r mod 3) + 1) (fun i -> { dst; payload = (100 * r) + i })
  in
  let go k =
    let inboxes = Array.make t [] in
    let proc =
      {
        init = (fun pid -> ((), if pid = 0 then Some 0 else None));
        step =
          (fun pid r () inbox ->
            inboxes.(pid) <-
              (r, List.map (fun e -> (e.src, e.sent_at, e.payload)) inbox)
              :: inboxes.(pid);
            if pid = 0 then
              {
                state = ();
                sends = List.concat_map (sent_in r) [ 1; 2; 3 ];
                work = [];
                terminate = r = last - 1;
                wakeup = Some (r + 1);
              }
            else
              { state = (); sends = []; work = []; terminate = r = last; wakeup = None });
      }
    in
    let sched =
      C.Schedule.make
        [
          { C.Schedule.victim = 1; at = 3; mode = C.Schedule.Silent };
          { victim = 1; at = 6; mode = C.Schedule.Restart };
          {
            victim = 2;
            at = 4;
            mode = C.Schedule.Acting { keep_work = false; delivery = Fault.All };
          };
          { victim = 2; at = 8; mode = C.Schedule.Restart };
        ]
    in
    let seen =
      observe k ~n:1 ~t ~fault:(C.Schedule.to_fault sched) ~show:string_of_int
        ~metrics:(Metrics.create ~n_processes:t ~n_units:1)
        ~max_rounds:100 proc
    in
    (seen, Array.map List.rev inboxes)
  in
  let a, inbox_a = go real and b, inbox_b = go reference in
  (match explain a b with None -> () | Some why -> Alcotest.fail why);
  let rounds = Alcotest.(list (pair int (list (triple int int int)))) in
  for pid = 1 to t - 1 do
    Alcotest.check rounds (Printf.sprintf "pid %d: both kernels" pid) inbox_b.(pid)
      inbox_a.(pid)
  done;
  let expect steps_at =
    List.map
      (fun r ->
        ( r,
          List.rev_map (fun (s : int send) -> (0, r - 1, s.payload)) (sent_in (r - 1) 0) ))
      steps_at
  in
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  Alcotest.check rounds "pid 1: silent crash at 3, revived at 6"
    (expect ([ 1; 2 ] @ range 6 last)) inbox_a.(1);
  Alcotest.check rounds "pid 2: crash while acting at 4, revived at 8"
    (expect (range 1 4 @ range 8 last)) inbox_a.(2);
  Alcotest.check rounds "pid 3: every round" (expect (range 1 last)) inbox_a.(3)

(* ---- what a message costs the kernel -------------------------------- *)

(* [t] pids for [rounds] rounds, every outcome built before the run so the
   words a run allocates are the kernel's own. With [live], every pid
   steps each round and (with [bcast]) sends one shared payload to every
   other pid; otherwise pids 1 .. t-1 retire in round 0 and only pid 0
   steps, broadcasting to them. *)
let broadcast_words ~t ~rounds ~live ~bcast =
  let sends =
    Array.init t (fun pid ->
        let payload = ref pid in
        if bcast then
          List.filter_map
            (fun dst -> if dst = pid then None else Some { dst; payload })
            (List.init t Fun.id)
        else [])
  in
  let outcome pid r =
    if r = rounds || (pid > 0 && not live) then
      { state = (); sends = []; work = []; terminate = true; wakeup = None }
    else { state = (); sends = sends.(pid); work = []; terminate = false; wakeup = Some (r + 1) }
  in
  let outcomes = Array.init t (fun pid -> Array.init (rounds + 1) (outcome pid)) in
  let proc =
    { init = (fun _ -> ((), Some 0)); step = (fun pid r () _ -> outcomes.(pid).(r)) }
  in
  let cfg = Kernel.config ~n_processes:t ~n_units:1 () in
  let before = Gc.minor_words () in
  let res = Kernel.run cfg proc in
  let words = Gc.minor_words () -. before in
  assert (res.outcome = Kernel.Completed);
  words

(* A round in which every pid broadcasts costs the kernel one list cell
   (3 words) per delivered message, plus one shared envelope per
   broadcast and the buffers' growth in the first rounds; a message to a
   retired receiver is a reused buffer slot and costs nothing. *)
let test_message_cost () =
  let t = 64 in
  let extra ~rounds ~live =
    broadcast_words ~t ~rounds ~live ~bcast:true
    -. broadcast_words ~t ~rounds ~live ~bcast:false
  in
  let rounds = 32 in
  let delivered = float_of_int (rounds * t * (t - 1)) in
  let per_msg = extra ~rounds ~live:true /. delivered in
  if per_msg > 3.5 then
    Alcotest.failf "%.2f minor words per delivered message (at most 3.5 allowed)" per_msg;
  let rounds = 512 in
  let per_msg = extra ~rounds ~live:false /. float_of_int (rounds * (t - 1)) in
  if per_msg > 0.25 then
    Alcotest.failf "%.2f minor words per message to a retired receiver (at most 0.25)"
      per_msg

let suite =
  [
    Alcotest.test_case "early rejoin wakeup steps at restart" `Quick
      test_early_rejoin_wakeup;
    Alcotest.test_case "double send to one inbox stays sender-sorted" `Quick
      test_double_send_inbox;
    Alcotest.test_case "a broadcast is one envelope" `Quick test_broadcast_one_envelope;
    Alcotest.test_case "a down receiver sees only later mail" `Quick
      test_down_receiver_sees_later_mail;
    Alcotest.test_case "a message costs a list cell" `Quick test_message_cost;
    law;
  ]
