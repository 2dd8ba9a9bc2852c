open Types

type run_outcome = Completed | Stalled of round | Round_limit of round

type 'm result = {
  metrics : Metrics.t;
  statuses : status array;
  outcome : run_outcome;
}

type 'm tamper_model = {
  mutate : Fault.tamper -> src:pid -> dst:pid -> at:round -> 'm -> 'm;
  forge : pid -> at:round -> 'm send list;
}

type 'm config = {
  n_processes : int;
  n_units : int;
  fault : Fault.t;
  max_rounds : round;
  obs : Obs.sink option;
  show : 'm -> string;
  spans : Obs.sink option;
  tamper : 'm tamper_model option;
  audit : Audit.t option;
  passive : 'm -> bool;
}

let config ?(fault = Fault.none) ?(max_rounds = max_int / 2) ?obs
    ?(show = fun _ -> "<msg>") ?spans ?tamper ?audit
    ?(passive = fun _ -> false) ~n_processes ~n_units () =
  { n_processes; n_units; fault; max_rounds; obs; show; spans; tamper; audit;
    passive }

(* One round loop for every adversary. A processed round visits, in pid
   order, only the pids something can happen to: those with a wakeup due,
   mail in their inbox, or a pending fault event. Wakeups and fault events
   live in two lazy (round, pid) min-heaps; inboxes are a pair of
   per-destination growable envelope buffers with touched-destination
   lists (messages sent in round r go into one buffer while the other is
   consumed, swapped each delivery). A message in flight is a buffer slot:
   consecutive sends of one step with the physically same payload share
   one envelope, a receiver's list is built only when it steps, and the
   buffers are reused round after round. A fault event is a silent crash
   (the plan's {!Fault.silent_from}, or a Byzantine entry without a tamper
   model) or a Byzantine activation: it is pushed when the run starts and
   again when its pid is revived, surfaces at the first processed round at
   or after its round, and never creates a processed round of its own —
   exactly when a sweep over all t pids would have observed it. Nothing is
   ever scanned per round, the loop allocates nothing of its own (a
   non-trivial plan is handed one step view per step), and every obs
   event is constructed only when a sink is attached. The audit checker is
   fed at the same sites, behind the same one-boolean guard. *)

(* Binary min-heap of (round, pid) pairs, lexicographic, on growable int
   arrays. Entries are never removed early: callers validate what pops. *)
module Heap = struct
  type t = { mutable w : int array; mutable p : int array; mutable n : int }

  let create cap = { w = Array.make (max 8 cap) 0; p = Array.make (max 8 cap) 0; n = 0 }

  let less h i j = h.w.(i) < h.w.(j) || (h.w.(i) = h.w.(j) && h.p.(i) < h.p.(j))

  let swap h i j =
    let w = h.w.(i) and p = h.p.(i) in
    h.w.(i) <- h.w.(j);
    h.p.(i) <- h.p.(j);
    h.w.(j) <- w;
    h.p.(j) <- p

  let push h w p =
    if h.n = Array.length h.w then begin
      h.w <- Array.append h.w h.w;
      h.p <- Array.append h.p h.p
    end;
    h.w.(h.n) <- w;
    h.p.(h.n) <- p;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while !i > 0 && less h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* Drop the top entry; the heap must be non-empty. *)
  let pop h =
    h.n <- h.n - 1;
    if h.n > 0 then begin
      swap h 0 h.n;
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.n && less h l !s then s := l;
        if r < h.n && less h r !s then s := r;
        if !s = !i then continue := false
        else begin
          swap h !i !s;
          i := !s
        end
      done
    end
end

let run ?recover ?metrics cfg proc =
  let t = cfg.n_processes in
  if t <= 0 then invalid_arg "Kernel.run: need at least one process";
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Metrics.create ~n_processes:t ~n_units:cfg.n_units
  in
  (* Default recovery: volatile state is lost, the process re-initialises
     from scratch (amnesiac rejoin). Recovery-aware harnesses supply a hook
     that reads stable storage instead. *)
  let recover =
    match recover with Some f -> f | None -> fun pid _r -> proc.init pid
  in
  (* A trivial plan answers [Survive] to every step: skip building the view. *)
  let consult_plan = not (Fault.is_trivial cfg.fault) in
  let has_obs = Option.is_some cfg.obs in
  let audit = cfg.audit in
  (* Something listens for execution events: an obs sink or an audit
     checker. *)
  let noting = has_obs || Option.is_some audit in
  let statuses = Array.make t Running in
  let alive pid = match statuses.(pid) with Running -> true | _ -> false in

  (* Wakeups: an int array (-1 = none) shadowed by a lazy heap. Entries are
     pushed on every wakeup change and validated against [wakeups]/[statuses]
     when they surface, so stale entries cost one pop each, ever. *)
  let wakeups = Array.make t (-1) in
  let wake = Heap.create (2 * t) in
  let entry_valid w p = alive p && wakeups.(p) = w in
  (* Smallest valid wakeup, discarding stale entries; max_int when none. *)
  let rec wake_peek () =
    if wake.n = 0 then max_int
    else
      let w = wake.w.(0) and p = wake.p.(0) in
      if entry_valid w p then w
      else begin
        Heap.pop wake;
        wake_peek ()
      end
  in
  let set_wakeup p w =
    wakeups.(p) <- w;
    if w >= 0 then Heap.push wake w p
  in

  let states =
    Array.init t (fun pid ->
        let s, w = proc.init pid in
        (match w with
        | Some w0 when w0 < 0 ->
            invalid_arg "Kernel.run: negative initial wakeup"
        | Some w0 -> set_wakeup pid w0
        | None -> ());
        s)
  in

  (* Messages in flight: sent during [pending_sent_at] into buffer
     [pending_idx], delivered at [pending_sent_at + 1]. At most one round's
     worth exists at any time, so two buffers suffice. Each destination's
     inbox is a growable envelope array, appended in visit order (senders
     ascending) and reused from round to round: it grows by doubling and
     never shrinks. A consumed inbox's used slots are overwritten with
     [filler], so no delivered envelope stays reachable from a buffer; the
     filler is a copy of the run's first envelope, made when the first
     inbox grows, and holds only that one payload. *)
  let bufs = [| Array.make t [||]; Array.make t [||] |] in
  let lens = [| Array.make t 0; Array.make t 0 |] in
  let filler = ref None in
  let touched = [| Array.make t 0; Array.make t 0 |] in
  let touched_n = [| 0; 0 |] in
  let pending_sent_at = ref (-1) in
  let pending_idx = ref 0 in
  let out_idx = ref 0 in
  let any_sent = ref false in
  let grow (b : 'm envelope array array) dst len (env : 'm envelope) =
    let fill =
      match !filler with
      | Some f -> f
      | None ->
          let f = { env with src = -1 } in
          filler := Some f;
          f
    in
    let bigger = Array.make (max 8 (2 * len)) fill in
    Array.blit b.(dst) 0 bigger 0 len;
    b.(dst) <- bigger;
    bigger
  in
  let enqueue dst env =
    let oi = !out_idx in
    let b = bufs.(oi) and ln = lens.(oi) in
    let len = ln.(dst) in
    if len = 0 then begin
      touched.(oi).(touched_n.(oi)) <- dst;
      touched_n.(oi) <- touched_n.(oi) + 1
    end;
    let slots = b.(dst) in
    let slots = if len < Array.length slots then slots else grow b dst len env in
    slots.(len) <- env;
    ln.(dst) <- len + 1;
    any_sent := true
  in
  (* [dst]'s inbox in buffer [idx] as the list its step receives: senders
     ascending, and one sender's several messages in reverse send order —
     the stable sort by sender of an inbox collected by consing, which is
     what the round sweep delivers. A sender's messages are contiguous in
     the buffer (each pid is visited once per round). *)
  let inbox_of idx dst =
    let slots = bufs.(idx).(dst) in
    let acc = ref [] and i = ref (lens.(idx).(dst) - 1) in
    while !i >= 0 do
      let src = slots.(!i).src in
      let lo = ref !i in
      while !lo > 0 && slots.(!lo - 1).src = src do
        decr lo
      done;
      for k = !lo to !i do
        acc := slots.(k) :: !acc
      done;
      i := !lo - 1
    done;
    !acc
  in
  (* Forget buffer [idx]'s inboxes, consumed or not (crashed, retired and
     Byzantine destinations lose their mail). *)
  let clear_inboxes idx =
    let ta = touched.(idx) and b = bufs.(idx) and ln = lens.(idx) in
    (match !filler with
    | Some f ->
        for i = 0 to touched_n.(idx) - 1 do
          let dst = ta.(i) in
          Array.fill b.(dst) 0 ln.(dst) f;
          ln.(dst) <- 0
        done
    | None -> ());
    touched_n.(idx) <- 0
  in

  let obs_ev e = match cfg.obs with Some sink -> sink e | None -> () in
  (* One note per execution event, for whoever listens ([noting]). *)
  let note_stepped pid r =
    if has_obs then obs_ev (Obs.Step { pid; at = r });
    match audit with Some a -> Audit.stepped a ~pid ~round:r | None -> ()
  in
  let note_worked pid r u =
    if has_obs then obs_ev (Obs.Work { pid; at = r; unit_id = u });
    match audit with
    | Some a -> Audit.worked a ~pid ~round:r ~unit_id:u
    | None -> ()
  in
  let note_sent pid r dst payload =
    if has_obs then
      obs_ev (Obs.Send { src = pid; dst; at = r; tag = cfg.show payload });
    match audit with
    | Some a -> Audit.sent a ~src:pid ~round:r ~passive:(cfg.passive payload)
    | None -> ()
  in
  let note_dropped pid r dst payload =
    if has_obs then
      obs_ev (Obs.Drop { src = pid; dst; at = r; tag = cfg.show payload });
    match audit with Some a -> Audit.dropped a ~round:r | None -> ()
  in
  let note_crashed pid r =
    if has_obs then obs_ev (Obs.Crash { pid; at = r });
    match audit with Some a -> Audit.crashed a ~pid ~round:r | None -> ()
  in
  let note_restarted pid r =
    if has_obs then obs_ev (Obs.Restart { pid; at = r });
    match audit with Some a -> Audit.restarted a ~pid ~round:r | None -> ()
  in
  let note_terminated pid r =
    if has_obs then obs_ev (Obs.Terminate { pid; at = r });
    match audit with Some a -> Audit.terminated a ~pid ~round:r | None -> ()
  in
  (* Incarnation counters for span context: 0 until the first restart. *)
  let incs = Array.make t 0 in
  let with_span ~name ~pid ~inc r f =
    match cfg.spans with
    | None -> f ()
    | Some sink ->
        sink
          (Obs.Span_begin
             { name; pid; at = r; inc; ts_us = Dhw_util.Clock.now_us () });
        let res = f () in
        sink
          (Obs.Span_end
             { name; pid; at = r; inc; ts_us = Dhw_util.Clock.now_us () });
        res
  in

  (* Fault events. [byz_at.(p)] is the round from which p is adversary-
     controlled — only with a tamper model, which says what its lies look
     like; without one a Byzantine entry degrades to a silent crash at its
     activation round. [silent_at.(p)] is the round from which p's current
     incarnation is silently dead. max_int = never. Both thresholds become
     events, so the pid is visited at the first processed round that
     reaches them even if it has nothing else due. *)
  let byz_at = Array.make t max_int in
  let silent_at = Array.make t max_int in
  let events = Heap.create 8 in
  let arm pid =
    let silent =
      match Fault.silent_from cfg.fault pid with Some s -> s | None -> max_int
    in
    let degraded =
      match (cfg.tamper, Fault.byzantine_from cfg.fault pid) with
      | None, Some b0 -> b0
      | _ -> max_int
    in
    silent_at.(pid) <- min silent degraded;
    if silent_at.(pid) < max_int then Heap.push events silent_at.(pid) pid;
    if byz_at.(pid) < max_int then Heap.push events byz_at.(pid) pid
  in
  (* A subverted pid must also be scheduled at its activation round even if
     the protocol put it to sleep beyond it. *)
  (match cfg.tamper with
  | Some _ ->
      for pid = 0 to t - 1 do
        match Fault.byzantine_from cfg.fault pid with
        | Some b0 ->
            byz_at.(pid) <- b0;
            set_wakeup pid
              (match wakeups.(pid) with -1 -> b0 | w -> min w b0)
        | None -> ()
      done
  | None -> ());
  for pid = 0 to t - 1 do
    arm pid
  done;
  (* Live pids the completion check waits for. A subverted pid never
     terminates; completion is the honest pids' affair. *)
  let honest pid = byz_at.(pid) = max_int in
  let n_running = ref 0 in
  for pid = 0 to t - 1 do
    if honest pid then incr n_running
  done;
  let retire pid = if honest pid then decr n_running in

  (* The adversary's restart schedule, sorted by (round, pid) so revivals in
     the same round happen in pid order — determinism. An entry is *applicable*
     while its pid is down from a round before the scheduled one; entries for
     up or terminated pids are dropped when their round arrives. *)
  let restart_queue =
    ref (List.sort compare (List.map (fun (p, r) -> (r, p)) (Fault.restarts cfg.fault)))
  in
  let applicable (rr, pid) =
    pid >= 0 && pid < t
    && match statuses.(pid) with Crashed rc -> rr > rc | _ -> false
  in
  let pending_restart () = List.exists applicable !restart_queue in
  let apply_restarts r =
    (* a loop, not a local recursive closure: this runs every round *)
    let pending = ref true in
    while !pending do
      match !restart_queue with
      | (rr, pid) :: rest when rr <= r ->
          restart_queue := rest;
          if applicable (rr, pid) then begin
            statuses.(pid) <- Running;
            if honest pid then incr n_running;
            incs.(pid) <- incs.(pid) + 1;
            let s, w = recover pid r in
            states.(pid) <- s;
            (match w with Some w0 -> set_wakeup pid w0 | None -> wakeups.(pid) <- -1);
            Fault.note_restart cfg.fault pid r;
            arm pid;
            Metrics.record_restart metrics pid r;
            if noting then note_restarted pid r
          end
      | _ -> pending := false
    done
  in
  let rec min_restart acc = function
    | [] -> acc
    | (rr, p) :: rest ->
        min_restart (if applicable (rr, p) && rr < acc then rr else acc) rest
  in
  let next_round () =
    (* Smallest round at which anything can happen; max_int = nothing. Fault
       events are not consulted: they never create a round of their own. *)
    let c = wake_peek () in
    let c = if !pending_sent_at >= 0 then min c (!pending_sent_at + 1) else c in
    min_restart c !restart_queue
  in
  let rec commit_work pid r = function
    | [] -> ()
    | u :: rest ->
        Metrics.record_work metrics pid u;
        if noting then note_worked pid r u;
        commit_work pid r rest
  in
  (* Consecutive sends that carry the physically same payload — a
     broadcast — share one envelope. *)
  let rec commit_sends_from pid r (env : 'm envelope) = function
    | [] -> ()
    | { dst; payload } :: rest ->
        let env = if env.payload == payload then env else { src = pid; sent_at = r; payload } in
        Metrics.record_send metrics pid;
        if noting then note_sent pid r dst payload;
        if dst >= 0 && dst < t then enqueue dst env;
        commit_sends_from pid r env rest
  in
  let commit_sends pid r = function
    | [] -> ()
    | (first : 'm send) :: _ as sends ->
        commit_sends_from pid r { src = pid; sent_at = r; payload = first.payload } sends
  in
  let rec note_all_dropped pid r = function
    | [] -> ()
    | { dst; payload } :: rest ->
        note_dropped pid r dst payload;
        note_all_dropped pid r rest
  in
  let rec forge_from pid r (env : 'm envelope) = function
    | [] -> ()
    | { dst; payload } :: rest ->
        let env = if env.payload == payload then env else { src = pid; sent_at = r; payload } in
        Metrics.record_corruption metrics;
        if has_obs then obs_ev (Obs.Tamper { pid; at = r });
        if dst >= 0 && dst < t then enqueue dst env;
        forge_from pid r env rest
  in
  let forge_loop pid r = function
    | [] -> ()
    | (first : 'm send) :: _ as sends ->
        forge_from pid r { src = pid; sent_at = r; payload = first.payload } sends
  in
  (* Link tampering: a consuming query — asked only when there are messages
     to corrupt and a model to corrupt them with. *)
  let tampered_sends pid r (o : ('s, 'm) outcome) =
    match cfg.tamper with
    | Some tm when o.sends <> [] -> (
        match Fault.corrupts cfg.fault pid r with
        | Some tam ->
            List.map
              (fun { dst; payload } ->
                Metrics.record_corruption metrics;
                if has_obs then obs_ev (Obs.Tamper { pid; at = r });
                { dst; payload = tm.mutate tam ~src:pid ~dst ~at:r payload })
              o.sends
        | None -> o.sends)
    | _ -> o.sends
  in
  let crash pid r =
    statuses.(pid) <- Crashed r;
    wakeups.(pid) <- -1;
    retire pid;
    Fault.note_crash cfg.fault pid r;
    Metrics.record_crash metrics pid r
  in
  (* [mail]: the buffer holding [pid]'s inbox, or -1 when it has none. *)
  let step_pid r pid mail =
    let w = wakeups.(pid) in
    let due = w >= 0 && w <= r in
    if mail >= 0 || due then begin
      if noting then note_stepped pid r;
      let mail = if mail >= 0 then inbox_of mail pid else [] in
      let o =
        match cfg.spans with
        | None -> proc.step pid r states.(pid) mail
        | Some _ ->
            with_span ~name:"step" ~pid ~inc:incs.(pid) r (fun () ->
                proc.step pid r states.(pid) mail)
      in
      let decision =
        if not consult_plan then Fault.Survive
        else
          Fault.on_step cfg.fault
            {
              Fault.sv_pid = pid;
              sv_round = r;
              sv_sends = List.length o.sends;
              sv_works = List.length o.work;
              sv_terminating = o.terminate;
              sv_works_done_before = Metrics.work_by metrics pid;
            }
      in
      match decision with
      | Fault.Survive ->
          states.(pid) <- o.state;
          commit_work pid r o.work;
          commit_sends pid r (tampered_sends pid r o);
          Metrics.record_round metrics r;
          if o.terminate then begin
            statuses.(pid) <- Terminated r;
            wakeups.(pid) <- -1;
            retire pid;
            Metrics.record_terminate metrics pid r;
            if noting then note_terminated pid r
          end
          else begin
            match o.wakeup with
            | Some w ->
                if w <= r then
                  invalid_arg
                    (Printf.sprintf
                       "Kernel.run: process %d at round %d asked for non-future wakeup %d"
                       pid r w);
                set_wakeup pid w
            | None -> wakeups.(pid) <- -1
          end
      | Fault.Crash { keep_work; delivery } ->
          let delivered, dropped = Fault.split_delivery delivery o.sends in
          (* Program-order causality: within a round, work precedes sends, so
             a crash that lets any message out must also let the work count
             (otherwise a victim could announce work it never performed). *)
          let keep_work = keep_work || delivered <> [] in
          if keep_work then commit_work pid r o.work;
          commit_sends pid r delivered;
          if noting then note_all_dropped pid r dropped;
          crash pid r;
          Metrics.record_round metrics r;
          if noting then note_crashed pid r
    end
  in
  (* One live pid's turn in round [r]: a due silent crash, then a Byzantine
     activation, then an ordinary step if it has mail or a due wakeup. *)
  let visit r pid mail =
    if silent_at.(pid) <= r then begin
      crash pid r;
      if noting then note_crashed pid r
    end
    else if byz_at.(pid) <= r then begin
      (* Adversary-controlled: the protocol state is abandoned; the tamper
         model forges this round's messages. Forged traffic is counted as
         corruption, not as honest sends — audits and the message bounds
         judge only what honest processes do. *)
      (match cfg.tamper with
      | Some tm -> forge_loop pid r (tm.forge pid ~at:r)
      | None -> ());
      set_wakeup pid (r + 1)
    end
    else step_pid r pid mail
  in
  (* Insertion sort of a.(0 .. n-1): the lists sorted here arrive nearly in
     order (heap pops at a single round, senders running in pid order). *)
  let sort_prefix (a : int array) n =
    for i = 1 to n - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  in
  (* The pids due at round r without mail: valid wakeups <= r (a rejoiner's
     may predate its restart round) and live pids with a fault event <= r,
     each once ([queued_at]), in pid order. *)
  let due = Array.make t 0 and due_n = ref 0 and due_sorted = ref true in
  let queued_at = Array.make t (-1) in
  let queue r p =
    if queued_at.(p) <> r then begin
      queued_at.(p) <- r;
      if !due_n > 0 && due.(!due_n - 1) > p then due_sorted := false;
      due.(!due_n) <- p;
      incr due_n
    end
  in
  let collect_due r =
    due_n := 0;
    due_sorted := true;
    while wake.n > 0 && wake.w.(0) <= r do
      let w = wake.w.(0) and p = wake.p.(0) in
      Heap.pop wake;
      if entry_valid w p then queue r p
    done;
    while events.n > 0 && events.w.(0) <= r do
      let p = events.p.(0) in
      Heap.pop events;
      if alive p then queue r p
    done;
    if not !due_sorted then sort_prefix due !due_n;
    !due_n
  in
  (* Visit, in pid order, the union of the due pids and the inbox
     destinations; an inbox becomes a list only if its pid steps. *)
  let visit_pids r delivering del_idx =
    let nw = collect_due r in
    let mail = touched.(del_idx) in
    let mail_n = if delivering then touched_n.(del_idx) else 0 in
    sort_prefix mail mail_n;
    let i = ref 0 and j = ref 0 in
    let last = ref (-1) in
    while !i < nw || !j < mail_n do
      let p =
        if !i >= nw then mail.(!j)
        else if !j >= mail_n || due.(!i) <= mail.(!j) then due.(!i)
        else mail.(!j)
      in
      if !i < nw && due.(!i) = p then incr i;
      let has_mail = !j < mail_n && mail.(!j) = p in
      if has_mail then incr j;
      if p <> !last then begin
        last := p;
        if alive p then visit r p (if has_mail then del_idx else -1)
      end
    done
  in
  let deliver_commit r =
    pending_sent_at := r;
    pending_idx := !out_idx
  in
  let round_body r =
    apply_restarts r;
    let delivering = !pending_sent_at >= 0 && !pending_sent_at + 1 = r in
    let del_idx = !pending_idx in
    if delivering then pending_sent_at := -1;
    out_idx := (if delivering then 1 - del_idx else del_idx);
    any_sent := false;
    visit_pids r delivering del_idx;
    if delivering then clear_inboxes del_idx;
    if !any_sent then
      match cfg.spans with
      | None -> deliver_commit r
      | Some _ -> with_span ~name:"deliver" ~pid:(-1) ~inc:0 r (fun () -> deliver_commit r)
  in
  let rec loop r =
    if r > cfg.max_rounds then Round_limit r
    else begin
      (match cfg.spans with
      | None -> round_body r
      | Some _ -> with_span ~name:"round" ~pid:(-1) ~inc:0 r (fun () -> round_body r));
      if !n_running = 0 && not (pending_restart ()) then Completed
      else begin
        let r' = next_round () in
        if r' = max_int then Stalled r
        else begin
          (* r' can equal r only if a wakeup request slipped through the
             strictness check, which [invalid_arg]s above; assert here. *)
          assert (r' > r);
          loop r'
        end
      end
    end
  in
  let outcome =
    let r0 = next_round () in
    (* nothing scheduled at all: every process is still running *)
    if r0 = max_int then Stalled 0 else loop r0
  in
  { metrics; statuses; outcome }
