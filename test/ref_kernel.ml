(* Reference model of the synchronous kernel: the plain round sweep.

   Every processed round visits all t pids in pid order and asks the fault
   plan about each live one — silently dead? Byzantine? — before stepping
   those with mail or a due wakeup. The next processed round is found by
   scanning every pid's wakeup. This is O(t) per round and deliberately
   naive: it is the executable statement of the kernel's semantics that
   [Simkit.Kernel.run] must reproduce exactly (statuses, outcome, metrics,
   trace, observability stream and span structure), checked by the
   differential law in test_kernel_diff.ml. Span timestamps are 0. *)

open Simkit
open Types

let run ?recover ?metrics (cfg : 'm Kernel.config) (proc : ('s, 'm) process) :
    'm Kernel.result =
  let t = cfg.n_processes in
  if t <= 0 then invalid_arg "Kernel.run: need at least one process";
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Metrics.create ~n_processes:t ~n_units:cfg.n_units
  in
  let recover =
    match recover with Some f -> f | None -> fun pid _r -> proc.init pid
  in
  let statuses = Array.make t Running in
  let wakeups = Array.make t (-1) in
  let states =
    Array.init t (fun pid ->
        let s, w = proc.init pid in
        (match w with
        | Some w0 when w0 < 0 -> invalid_arg "Kernel.run: negative initial wakeup"
        | Some w0 -> wakeups.(pid) <- w0
        | None -> ());
        s)
  in
  let incs = Array.make t 0 in
  let trace_ev e =
    (match cfg.trace with Some tr -> Trace.record tr e | None -> ());
    match cfg.obs with Some sink -> sink (Obs.of_trace_event e) | None -> ()
  in
  let obs_ev e = match cfg.obs with Some sink -> sink e | None -> () in
  let with_span ~name ~pid ~inc r f =
    match cfg.spans with
    | None -> f ()
    | Some sink ->
        sink (Obs.Span_begin { name; pid; at = r; inc; ts_us = 0. });
        let res = f () in
        sink (Obs.Span_end { name; pid; at = r; inc; ts_us = 0. });
        res
  in
  let alive pid = statuses.(pid) = Running in
  let byz_active pid r =
    match (cfg.tamper, Fault.byzantine_from cfg.fault pid) with
    | Some _, Some b0 -> b0 <= r
    | _ -> false
  in
  let byz_degraded_crash pid r =
    match (cfg.tamper, Fault.byzantine_from cfg.fault pid) with
    | None, Some b0 -> b0 <= r
    | _ -> false
  in
  (match cfg.tamper with
  | Some _ ->
      for pid = 0 to t - 1 do
        match Fault.byzantine_from cfg.fault pid with
        | Some b0 ->
            wakeups.(pid) <- (match wakeups.(pid) with -1 -> b0 | w -> min w b0)
        | None -> ()
      done
  | None -> ());
  let restart_queue =
    ref (List.sort compare (List.map (fun (p, r) -> (r, p)) (Fault.restarts cfg.fault)))
  in
  let applicable (rr, pid) =
    pid >= 0 && pid < t
    && match statuses.(pid) with Crashed rc -> rr > rc | _ -> false
  in
  let apply_restarts r =
    let rec go () =
      match !restart_queue with
      | (rr, pid) :: rest when rr <= r ->
          restart_queue := rest;
          if applicable (rr, pid) then begin
            statuses.(pid) <- Running;
            incs.(pid) <- incs.(pid) + 1;
            let s, w = recover pid r in
            states.(pid) <- s;
            wakeups.(pid) <- Option.value ~default:(-1) w;
            Fault.note_restart cfg.fault pid r;
            Metrics.record_restart metrics pid r;
            trace_ev (Trace.Restarted_ev { pid; round = r })
          end;
          go ()
      | _ -> ()
    in
    go ()
  in
  (* Messages sent in round [r] wait in [outbox] and become [inbox] at the
     start of round [r + 1]; anything older is lost. *)
  let inbox = ref (Array.make t []) and inbox_at = ref (-1) in
  let outbox = ref (Array.make t []) and sent_at = ref (-1) in
  let any_sent = ref false in
  let enqueue dst env =
    !outbox.(dst) <- env :: !outbox.(dst);
    any_sent := true
  in
  let next_round () =
    let c = ref max_int in
    for pid = 0 to t - 1 do
      if alive pid && wakeups.(pid) >= 0 then c := min !c wakeups.(pid)
    done;
    if !sent_at >= 0 then c := min !c (!sent_at + 1);
    List.iter (fun e -> if applicable e then c := min !c (fst e)) !restart_queue;
    !c
  in
  let split_delivery decision sends =
    match decision with
    | Fault.All -> (sends, [])
    | Fault.Prefix k ->
        let rec split i acc = function
          | [] -> (List.rev acc, [])
          | rest when i = k -> (List.rev acc, rest)
          | s :: rest -> split (i + 1) (s :: acc) rest
        in
        split 0 [] sends
    | Fault.Indices idx ->
        let kept, dropped =
          List.partition (fun (i, _) -> List.mem i idx) (List.mapi (fun i s -> (i, s)) sends)
        in
        (List.map snd kept, List.map snd dropped)
  in
  let commit_work pid r =
    List.iter (fun u ->
        Metrics.record_work metrics pid u;
        trace_ev (Trace.Worked { pid; round = r; unit_id = u }))
  in
  let commit_sends pid r =
    List.iter (fun { dst; payload } ->
        Metrics.record_send metrics pid;
        trace_ev (Trace.Sent { src = pid; dst; round = r; what = cfg.show payload });
        if dst >= 0 && dst < t then enqueue dst { src = pid; sent_at = r; payload })
  in
  let tampered_sends pid r (o : ('s, 'm) outcome) =
    match cfg.tamper with
    | Some tm when o.sends <> [] -> (
        match Fault.corrupts cfg.fault pid r with
        | Some tam ->
            List.map
              (fun { dst; payload } ->
                Metrics.record_corruption metrics;
                obs_ev (Obs.Tamper { pid; at = r });
                { dst; payload = tm.mutate tam ~src:pid ~dst ~at:r payload })
              o.sends
        | None -> o.sends)
    | _ -> o.sends
  in
  let crash pid r =
    statuses.(pid) <- Crashed r;
    wakeups.(pid) <- -1;
    Fault.note_crash cfg.fault pid r;
    Metrics.record_crash metrics pid r
  in
  let step_pid r pid mail =
    let w = wakeups.(pid) in
    if mail <> [] || (w >= 0 && w <= r) then begin
      trace_ev (Trace.Stepped { pid; round = r });
      let o =
        with_span ~name:"step" ~pid ~inc:incs.(pid) r (fun () ->
            proc.step pid r states.(pid) mail)
      in
      let view =
        {
          Fault.sv_pid = pid;
          sv_round = r;
          sv_sends = List.length o.sends;
          sv_works = List.length o.work;
          sv_terminating = o.terminate;
          sv_works_done_before = Metrics.work_by metrics pid;
        }
      in
      match Fault.on_step cfg.fault view with
      | Fault.Survive ->
          states.(pid) <- o.state;
          commit_work pid r o.work;
          commit_sends pid r (tampered_sends pid r o);
          Metrics.record_round metrics r;
          if o.terminate then begin
            statuses.(pid) <- Terminated r;
            wakeups.(pid) <- -1;
            Metrics.record_terminate metrics pid r;
            trace_ev (Trace.Terminated_ev { pid; round = r })
          end
          else begin
            match o.wakeup with
            | Some w when w <= r ->
                invalid_arg
                  (Printf.sprintf
                     "Kernel.run: process %d at round %d asked for non-future wakeup %d"
                     pid r w)
            | Some w -> wakeups.(pid) <- w
            | None -> wakeups.(pid) <- -1
          end
      | Fault.Crash { keep_work; delivery } ->
          let delivered, dropped = split_delivery delivery o.sends in
          if keep_work || delivered <> [] then commit_work pid r o.work;
          commit_sends pid r delivered;
          List.iter
            (fun { dst; payload } ->
              trace_ev (Trace.Dropped { src = pid; dst; round = r; what = cfg.show payload }))
            dropped;
          crash pid r;
          Metrics.record_round metrics r;
          trace_ev (Trace.Crashed_ev { pid; round = r })
    end
  in
  let round_body r =
    apply_restarts r;
    if !sent_at >= 0 && !sent_at + 1 = r then begin
      inbox := !outbox;
      inbox_at := r;
      outbox := Array.make t [];
      sent_at := -1
    end;
    any_sent := false;
    for pid = 0 to t - 1 do
      if alive pid then begin
        if Fault.crashed_by cfg.fault pid r || byz_degraded_crash pid r then begin
          crash pid r;
          trace_ev (Trace.Crashed_ev { pid; round = r })
        end
        else if byz_active pid r then begin
          (match cfg.tamper with
          | Some tm ->
              List.iter
                (fun { dst; payload } ->
                  Metrics.record_corruption metrics;
                  obs_ev (Obs.Tamper { pid; at = r });
                  if dst >= 0 && dst < t then enqueue dst { src = pid; sent_at = r; payload })
                (tm.forge pid ~at:r)
          | None -> ());
          wakeups.(pid) <- r + 1
        end
        else step_pid r pid (if !inbox_at = r then !inbox.(pid) else [])
      end
    done;
    (* a round that enqueued anything commits a delivery, inboxes sorted by
       sender *)
    if !any_sent then
      with_span ~name:"deliver" ~pid:(-1) ~inc:0 r (fun () ->
          Array.iteri
            (fun dst l -> !outbox.(dst) <- List.stable_sort (fun a b -> compare a.src b.src) l)
            !outbox;
          sent_at := r)
  in
  let all_retired () =
    let ok = ref true in
    for pid = 0 to t - 1 do
      let subverted =
        Option.is_some cfg.tamper && Option.is_some (Fault.byzantine_from cfg.fault pid)
      in
      if not (is_retired statuses.(pid) || subverted) then ok := false
    done;
    !ok
  in
  let rec loop r =
    if r > cfg.max_rounds then Kernel.Round_limit r
    else begin
      with_span ~name:"round" ~pid:(-1) ~inc:0 r (fun () -> round_body r);
      if all_retired () && not (List.exists applicable !restart_queue) then
        Kernel.Completed
      else
        let r' = next_round () in
        if r' = max_int then Kernel.Stalled r else loop r'
    end
  in
  let outcome =
    let r0 = next_round () in
    if r0 = max_int then Kernel.Stalled 0 else loop r0
  in
  { metrics; statuses; outcome }
