(* Differential law: [Simkit.Kernel.run] (one due-pid loop with crash,
   restart and Byzantine activations as heap events, and pure-work runs
   committed as ranges) against the plain round sweep of Ref_kernel, which
   steps every round and ignores [ahead], on the same protocol,
   configuration and fault schedule. The kernel runs each case three
   times:
   - with no sink: statuses, outcome and every Metrics reader must match;
   - with every sink: the full observability stream must match too, and
     the spans must follow the range rule ([coalesced]): begin/end pairs
     nest, the deliver spans are the sweep's, and the round/step spans are
     a subsequence of the sweep's (a range is one step span at its grant
     round, and the rounds it spans are not processed);
   - with every process's [ahead] withdrawn: everything, spans included,
     must match exactly.
   The sweep stable-sorts every inbox it collected by consing; the kernel
   appends to reusable per-destination buffers and builds a stepping
   receiver's list in that same order, which the D and D-coord variants and
   the double-send case exercise. The cases after the law pin what a
   message costs the kernel. *)

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

(* Run [k] and collect what it exposes: with [sinks] (the default) an obs
   and a span sink are attached; without [ranges] every process's [ahead]
   is withdrawn. [metrics] is passed in because harnesses wire
   stable-storage writes and rejections into the accumulator before the
   run. *)
let observe k ?(sinks = true) ?(ranges = true) ~n ~t ~fault ?tamper ?recover ~show
    ~metrics ~max_rounds proc =
  let stream = ref [] and spans = ref [] in
  let obs = if sinks then Some (fun e -> stream := e :: !stream) else None in
  let spans_sink =
    if sinks then
      Some
        (fun e ->
          match e with
          | Obs.Span_begin s -> spans := (s.name, s.pid, s.at, s.inc, true) :: !spans
          | Obs.Span_end s -> spans := (s.name, s.pid, s.at, s.inc, false) :: !spans
          | _ -> ())
    else None
  in
  let cfg =
    Kernel.config ~fault ~max_rounds ~show ?tamper ?obs ?spans:spans_sink ~n_processes:t
      ~n_units:n ()
  in
  let proc = if ranges then proc else { proc with ahead = no_ahead } in
  let res = k.run ~recover ~metrics:(Some metrics) cfg proc in
  {
    statuses = Array.copy res.statuses;
    outcome = res.outcome;
    readers = readers res.metrics ~n ~t;
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

let pp_span (name, pid, at, inc, b) =
  Printf.sprintf "%s %s pid=%d at=%d inc=%d" (if b then "begin" else "end") name pid at inc

(* The range rule for [a]'s spans against the sweep's [b]: pairs nest,
   deliver spans are equal, and [a] is a subsequence of [b]. *)
let coalesced ~names:(na, nb) a b =
  let rec nest stack = function
    | [] -> if stack = [] then None else Some "a span is never closed"
    | (name, pid, at, inc, true) :: rest -> nest ((name, pid, at, inc) :: stack) rest
    | ((name, pid, at, inc, false) as s) :: rest -> (
        match stack with
        | top :: stack when top = (name, pid, at, inc) -> nest stack rest
        | _ -> Some ("unmatched " ^ pp_span s))
  in
  let delivers = List.filter (fun (name, _, _, _, _) -> name = "deliver") in
  let rec subseq i xs ys =
    match (xs, ys) with
    | [], _ -> None
    | x :: _, [] ->
        Some (Printf.sprintf "span #%d: %s %s is not in %s's spans" i na (pp_span x) nb)
    | x :: xs', y :: ys' -> if x = y then subseq (i + 1) xs' ys' else subseq i xs ys'
  in
  match nest [] a with
  | Some why -> Some (Printf.sprintf "spans (%s): %s" na why)
  | None -> (
      match first_diff pp_span (delivers a) (delivers b) with
      | Some (i, x, y) -> Some (Printf.sprintf "deliver span #%d: %s %s, %s %s" i na x nb y)
      | None -> subseq 0 a b)

(* How [a] must agree with [b]: [`Exact], [`Coalesced] (stream exact, spans
   by the range rule) or [`Readers] (statuses, outcome and readers only). *)
let explain ?(names = ("kernel", "sweep")) ?(rule = `Exact) a b =
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
      (if rule = `Readers then None
       else diff "event" (Format.asprintf "%a" Obs.pp_event) a.stream b.stream);
      (match rule with
      | `Exact -> diff "span" pp_span a.spans b.spans
      | `Coalesced -> coalesced ~names a.spans b.spans
      | `Readers -> None);
    ]

(* ---- the cases ------------------------------------------------------ *)

type variant = A | A_tamper | B | A_rec | A_val | A_val_untampered | D | D_coord | Synth

let variant_name = function
  | A -> "A"
  | A_tamper -> "A+tamper"
  | B -> "B"
  | A_rec -> "A+rec"
  | A_val -> "A+val"
  | A_val_untampered -> "A+val/no-tamper"
  | D -> "D"
  | D_coord -> "D-coord"
  | Synth -> "synthetic"

let variants = [| A; A_tamper; B; A_rec; A_val; A_val_untampered; D; D_coord; Synth |]

type plan =
  | No_faults
  | Sched of C.Schedule.t
  | Random of { seed : int64; victims : int; window : int; restarts : (pid * round) list }
  | Storm of { seed : int64; max_crashes : int }
  | Every of { units : int; max_crashes : int }

let fault_of ~t = function
  | No_faults -> Fault.none
  | Sched s -> C.Schedule.to_fault s
  | Random { seed; victims; window; restarts } ->
      let base = Fault.random ~seed ~t ~victims ~window in
      if restarts = [] then base else Fault.with_restarts restarts base
  | Storm { seed; max_crashes } ->
      Fault.crash_active_after_random_work ~seed ~min_units:1 ~max_units:4 ~max_crashes
  | Every { units; max_crashes } ->
      Fault.crash_active_after_work ~units_between_crashes:units ~max_crashes

let plan_to_string = function
  | No_faults -> "Fault.none"
  | Sched s -> C.Schedule.print s
  | Random { seed; victims; window; restarts } ->
      Printf.sprintf "Fault.random seed=%Ld victims=%d window=%d restarts=[%s]" seed
        victims window
        (String.concat "; " (List.map (fun (p, r) -> Printf.sprintf "%d@%d" p r) restarts))
  | Storm { seed; max_crashes } ->
      Printf.sprintf "crash_active_after_random_work seed=%Ld max_crashes=%d" seed max_crashes
  | Every { units; max_crashes } ->
      Printf.sprintf "crash_active_after_work units=%d max_crashes=%d" units max_crashes

(* ---- a synthetic process whose runs have idle tails ---------------- *)

(* Each pid follows a program of segments drawn from a seed: work (some
   units, one per round, then idle rounds; a run from any offset), a send
   to random pids (mail that cuts other pids' ranges), or a sleep. Mail
   also shifts the unit ids of later work rounds, so a run declared after
   mail must account for it. A program that ends in work terminates in its
   last work round, which is therefore a step even when it performs a unit:
   a consulted unit step that does not wake in the next round, after which
   a counting plan's grants of that round may no longer hold (any other
   program terminates in the round after its last segment). Unit ids stray
   below 0 and past n, and
   some runs cover whole aligned 64-unit words, once or several times, so
   every [Metrics] path is taken. *)
type seg =
  | Work of { u0 : int; units : int; idle : int }
  | Send of pid list
  | Sleep of int

type synth = { me : pid; seg : int; off : int; got : int; until : round }

let synth_programs g ~n ~t =
  Array.init t (fun _ ->
      Array.init (1 + Prng.int g 6) (fun _ ->
          match Prng.int g 5 with
          | 0 | 1 ->
              let units = Prng.int g 8 in
              let idle = Prng.int g 5 + if units = 0 then 1 else 0 in
              Work { u0 = Prng.int g (n + 6) - 3; units; idle }
          | 2 ->
              Work { u0 = 64 * Prng.int g 2; units = 64 + Prng.int g 40; idle = Prng.int g 3 }
          | 3 -> Send (List.init (1 + Prng.int g 2) (fun _ -> Prng.int g t))
          | _ -> Sleep (1 + Prng.int g 6)))

let synth_proc programs : (synth, int) process =
  let next st = { st with seg = st.seg + 1; off = 0; until = -1 } in
  let init me = ({ me; seg = 0; off = 0; got = 0; until = -1 }, Some (me mod 3)) in
  let quiet ?(work = []) ?(sends = []) state wakeup =
    { state; sends; work; terminate = false; wakeup = Some wakeup }
  in
  let step pid r st inbox =
    let st = { st with got = st.got + List.length inbox } in
    let prog = programs.(pid) in
    if st.seg >= Array.length prog then
      { state = st; sends = []; work = []; terminate = true; wakeup = None }
    else
      match prog.(st.seg) with
      | Work { u0; units; idle } ->
          let work = if st.off < units then [ u0 + st.off + (st.got mod 3) ] else [] in
          if st.off + 1 < units + idle then quiet ~work { st with off = st.off + 1 } (r + 1)
          else if st.seg + 1 < Array.length prog then quiet ~work (next st) (r + 1)
          else { state = next st; sends = []; work; terminate = true; wakeup = None }
      | Send dsts ->
          quiet
            ~sends:(List.map (fun dst -> { dst; payload = (100 * pid) + r }) dsts)
            (next st) (r + 1)
      | Sleep d ->
          if st.until >= 0 && r >= st.until then quiet (next st) (r + 1)
          else
            let until = if st.until >= 0 then st.until else r + d in
            quiet { st with until } until
  in
  let ahead _r st =
    let prog = programs.(st.me) in
    if st.seg >= Array.length prog then None
    else
      match prog.(st.seg) with
      | Work { u0; units; idle } ->
          (* the program's last round terminates: it is no part of a run *)
          let last = if st.seg + 1 < Array.length prog then 0 else 1 in
          let len = units + idle - st.off - last in
          if len < 1 then None
          else
            Some
              {
                unit0 = u0 + st.off + (st.got mod 3);
                units = max 0 (min len (units - st.off));
                len;
                at =
                  (fun k ->
                    if st.off + k >= units + idle then next st
                    else { st with off = st.off + k });
              }
      | Send _ | Sleep _ -> None
  in
  { init; step; ahead }

(* ---- the law ------------------------------------------------------ *)

type case = { variant : variant; n : int; t : int; plan : plan; seed : int }

let case_to_string c =
  Printf.sprintf "%s n=%d t=%d seed=%d\n%s" (variant_name c.variant) c.n c.t c.seed
    (plan_to_string c.plan)

(* [k] runs [c] from scratch: fresh fault plan, fresh process state, fresh
   stable storage. *)
let run_case ?sinks ?ranges k c =
  let spec = Doall.Spec.make ~n:c.n ~t:c.t in
  let grid = Doall.Grid.make spec in
  let fault = fault_of ~t:c.t c.plan in
  let n = c.n and t = c.t in
  (* half the synthetic cases hit the round limit *)
  let max_rounds =
    if c.variant = Synth && c.seed land 1 = 0 then 4 + ((c.seed lsr 1) land 127)
    else Doall.Fuzz.byz_max_rounds spec ~window:(4 * n)
  in
  let fresh () = Metrics.create ~n_processes:t ~n_units:n in
  let observe ?tamper ?recover ~show ~metrics proc =
    observe k ?sinks ?ranges ~n ~t ~fault ?tamper ?recover ~show ~metrics ~max_rounds proc
  in
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
      observe ~show ~metrics:(fresh ()) proc
  | A_tamper ->
      observe ~tamper:(Doall.Validate.tamper_plain grid) ~show:Doall.Protocol_a.show_msg
        ~metrics:(fresh ()) (Doall.Protocol_a.proc_on_grid grid)
  | A_rec ->
      let metrics = fresh () in
      let stable =
        Stable.create ~on_write:(Metrics.record_persist metrics) ~n_processes:t ()
      in
      let ad = Doall.Recovery.adapter_a grid in
      observe
        ~recover:(Doall.Recovery.recover_hook stable ~rejoin_rounds:3)
        ~show:(Doall.Recovery.show_rmsg ad.show) ~metrics
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
      observe ?tamper ~show:Doall.Validate.show_signed ~metrics proc
  | Synth ->
      let programs = synth_programs (Prng.create (Int64.of_int c.seed)) ~n ~t in
      observe ~show:string_of_int ~metrics:(fresh ()) (synth_proc programs)

(* Cases in which the kernel processed fewer rounds than the sweep: a law
   that never ranges has not tested ranges. *)
let tally = ref (0, 0)

let agree c =
  let sweep = run_case reference c in
  let ranged = run_case real c in
  let checks =
    [
      (`Readers, run_case ~sinks:false real c);
      (`Coalesced, ranged);
      (`Exact, run_case ~ranges:false real c);
    ]
  in
  let rounds seen =
    List.length (List.filter (fun (name, _, _, _, b) -> b && name = "round") seen.spans)
  in
  let cases, skipped = !tally in
  tally := (cases + 1, if rounds ranged < rounds sweep then skipped + 1 else skipped);
  match List.find_map (fun (rule, seen) -> explain ~rule seen sweep) checks with
  | None -> true
  | Some why -> QCheck2.Test.fail_reportf "%s\n%s" (case_to_string c) why

(* Schedules from every sampler and hand-built plan family, over small
   instances so each case runs in milliseconds under the O(t) sweep. The
   synthetic variant gets up to 200 units, so its runs cover whole bitset
   words. *)
let gen_case =
  let open QCheck2.Gen in
  let* variant = oneofa variants in
  let* t = int_range 1 7 in
  let* n = if variant = Synth then int_range 1 200 else int_range 1 36 in
  let* seed = int in
  let* family = int_range 0 7 in
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
    | 5 -> No_faults
    | 6 -> Every { units = 1 + Prng.int g 12; max_crashes = Prng.int g t }
    | _ -> Storm { seed = Int64.of_int seed; max_crashes = Prng.int g t }
  in
  return { variant; n; t; plan; seed }

let law =
  let name, speed, run =
    Helpers.qcheck_case ~count:1000 ~name:"kernel = reference sweep on random schedules"
      gen_case agree
  in
  let run () =
    run ();
    let cases, skipped = !tally in
    Printf.printf "%d cases: %d processed fewer rounds than the sweep\n" cases skipped;
    if skipped = 0 then Alcotest.fail "no case committed a range"
  in
  (name, speed, run)

(* A consulted unit step can use up a counting plan's grant of the same
   round. Pid 0's range from round 1 reserves the units up to its next
   crash; pid 1's last (terminating) unit step in round 1 is counted before
   them, and nothing else wakes in round 2. The kernel must cut pid 0's
   range at round 2, so that the crash lands on round 3 as in the sweep. *)
let test_grant_used_up () =
  let programs =
    [| [| Work { u0 = 0; units = 10; idle = 0 }; Sleep 1 |];
       [| Work { u0 = 20; units = 1; idle = 0 } |] |]
  in
  let go k =
    observe k ~n:30 ~t:2
      ~fault:(Fault.crash_active_after_work ~units_between_crashes:5 ~max_crashes:1)
      ~show:string_of_int ~metrics:(Metrics.create ~n_processes:2 ~n_units:30)
      ~max_rounds:100 (synth_proc programs)
  in
  let sweep = go reference in
  (match explain ~rule:`Coalesced (go real) sweep with
  | None -> ()
  | Some why -> Alcotest.fail why);
  Alcotest.(check string) "pid 0 crashes in round 3" "crashed@3"
    (status_to_string sweep.statuses.(0))

(* A rejoiner whose recovery hook asks for a wakeup before its restart
   round: the sweep steps any wakeup <= r, so it steps in the restart round
   itself — the merged loop must not discard the early heap entry. *)
let test_early_rejoin_wakeup () =
  let proc =
    {
      ahead = no_ahead;
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
    (List.mem (Obs.Step { pid = 1; at = 5 }) a.stream)

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
        ahead = no_ahead;
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
      ahead = no_ahead;
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
        ahead = no_ahead;
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
    {
      init = (fun _ -> ((), Some 0));
      step = (fun pid r () _ -> outcomes.(pid).(r));
      ahead = no_ahead;
    }
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
    Alcotest.test_case "a consulted step can use up a grant" `Quick test_grant_used_up;
    Alcotest.test_case "double send to one inbox stays sender-sorted" `Quick
      test_double_send_inbox;
    Alcotest.test_case "a broadcast is one envelope" `Quick test_broadcast_one_envelope;
    Alcotest.test_case "a down receiver sees only later mail" `Quick
      test_down_receiver_sees_later_mail;
    Alcotest.test_case "a message costs a list cell" `Quick test_message_cost;
    law;
  ]
