(* The asynchronous substrate as it was before its heartbeat path stopped
   allocating: the boxed splitmix64 generator, the heartbeat monitor with
   [time option] deadlines, the simulator's map-of-lists event queue with
   [Obs] events and span closures built unconditionally, and [Link.harden]
   copying its state record on every event. The reference of
   test_asim.ml's differential laws; it shares every public type with
   [Asim], so the same protocols and tamper models run on both. *)

open Simkit.Types

module Prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = seed }

  let copy g = { state = g.state }

  (* splitmix64: state advances by the golden gamma; output is the mixed state. *)
  let golden_gamma = 0x9E3779B97F4A7C15L

  let next_int64 g =
    g.state <- Int64.add g.state golden_gamma;
    let z = g.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next_nonneg g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2)

  let int g bound =
    if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
    (* Rejection sampling to avoid modulo bias. *)
    let max_usable = 0x3FFFFFFFFFFFFFFF - (0x3FFFFFFFFFFFFFFF mod bound) in
    let rec draw () =
      let v = next_nonneg g in
      if v >= max_usable then draw () else v mod bound
    in
    draw ()

  let int_in g lo hi =
    if hi < lo then invalid_arg "Prng.int_in: empty range";
    lo + int g (hi - lo + 1)

  let bool g = Int64.logand (next_int64 g) 1L = 1L

  let float g bound =
    let v = Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) in
    bound *. (v /. 9007199254740992.0 (* 2^53 *))

  let bernoulli g p =
    if p <= 0.0 then false
    else if p >= 1.0 then true
    else float g 1.0 < p

  let shuffle g a =
    for i = Array.length a - 1 downto 1 do
      let j = int g (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done

  let choose g a =
    if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
    a.(int g (Array.length a))

  let sample_without_replacement g k bound =
    if k < 0 || k > bound then invalid_arg "Prng.sample_without_replacement";
    (* Floyd's algorithm: O(k) expected inserts into a small set. *)
    let module S = Set.Make (Int) in
    let s = ref S.empty in
    for j = bound - k to bound - 1 do
      let v = int g (j + 1) in
      if S.mem v !s then s := S.add j !s else s := S.add v !s
    done;
    S.elements !s

  let split g =
    let seed = next_int64 g in
    create (Int64.logxor seed 0xDEADBEEFCAFEF00DL)

  (* Independent stream [i] of a master [seed], without consuming state from
     any shared generator: the pair (seed, i) is keyed by a second odd gamma
     and pushed through one splitmix step, so sibling streams land far apart
     in the state space even for adjacent indices. Used by parallel work
     pools, where per-task generators must not depend on which worker (or in
     what order) tasks are executed. *)
  let stream seed i =
    if i < 0 then invalid_arg "Prng.stream: negative index";
    let keyed =
      Int64.logxor seed (Int64.mul (Int64.of_int (i + 1)) 0xD1342543DE82EF95L)
    in
    create (next_int64 (create keyed))
end

module Heartbeat = struct

  type time = int

  type config = Asim.Heartbeat.config = {
    period : int;
    timeout : int;
    backoff : int;
    max_timeout : int;
  }

  let config ?(period = 8) ?(timeout = 48) ?(backoff = 2) ?(max_timeout = 100_000)
      () =
    let err fmt = Printf.ksprintf invalid_arg ("Heartbeat.config: " ^^ fmt) in
    if period < 1 then err "period must be >= 1 (got %d)" period;
    if timeout < period then
      err "timeout (%d) must be >= period (%d), else every peer is suspected \
           immediately" timeout period;
    if backoff < 1 then err "backoff must be >= 1 (got %d)" backoff;
    if max_timeout < timeout then
      err "max_timeout (%d) must be >= timeout (%d)" max_timeout timeout;
    { period; timeout; backoff; max_timeout }

  type stats = Asim.Heartbeat.stats = {
    suspicions : int;
    false_suspicions : int;
    unsuspects : int;
  }

  (* One monitor instance, owned by one process. [deadline.(q) = None] means q
     is not monitored (it is [me], was stopped, or is currently suspected). *)
  type t = {
    cfg : config;
    me : pid;
    n : int;
    mutable next_beat : time;
    deadline : time option array;
    timeout : int array;
    suspected : bool array;
    stopped : bool array;
    mutable n_suspicions : int;
    mutable n_false : int;
    mutable n_unsuspects : int;
  }

  let create ?(config = config ()) ~me ~n ~now () =
    if n < 1 then invalid_arg "Heartbeat.create: n must be >= 1";
    if me < 0 || me >= n then invalid_arg "Heartbeat.create: me out of range";
    let t =
      {
        cfg = config;
        me;
        n;
        next_beat = now;
        deadline = Array.make n None;
        timeout = Array.make n config.timeout;
        suspected = Array.make n false;
        stopped = Array.make n false;
        n_suspicions = 0;
        n_false = 0;
        n_unsuspects = 0;
      }
    in
    for q = 0 to n - 1 do
      if q <> me then t.deadline.(q) <- Some (now + config.timeout)
    done;
    t

  let suspected t q = t.suspected.(q)

  let suspects t =
    List.filter (fun q -> t.suspected.(q)) (List.init t.n Fun.id)

  let stop t q =
    t.stopped.(q) <- true;
    t.deadline.(q) <- None

  let next_deadline t =
    Array.fold_left
      (fun acc d -> match d with Some d when d < acc -> d | _ -> acc)
      t.next_beat t.deadline

  let tick t ~now =
    let newly = ref [] in
    for q = t.n - 1 downto 0 do
      match t.deadline.(q) with
      | Some d when d <= now ->
          t.suspected.(q) <- true;
          t.deadline.(q) <- None;
          t.n_suspicions <- t.n_suspicions + 1;
          newly := q :: !newly
      | _ -> ()
    done;
    let beat = now >= t.next_beat in
    if beat then t.next_beat <- now + t.cfg.period;
    (!newly, beat)

  let alive_evidence t ~src ~now =
    if src = t.me || src < 0 || src >= t.n || t.stopped.(src) then false
    else begin
      let recovered = t.suspected.(src) in
      if recovered then begin
        (* A false suspicion: the peer is slower than our current timeout.
           Back the timeout off so the detector is eventually accurate. *)
        t.suspected.(src) <- false;
        t.n_false <- t.n_false + 1;
        t.n_unsuspects <- t.n_unsuspects + 1;
        t.timeout.(src) <-
          min t.cfg.max_timeout (t.timeout.(src) * t.cfg.backoff)
      end;
      t.deadline.(src) <- Some (now + t.timeout.(src));
      recovered
    end

  let rejoin t q ~now =
    if q <> t.me && q >= 0 && q < t.n then begin
      t.stopped.(q) <- false;
      if t.suspected.(q) then begin
        (* An un-suspect that is NOT a false suspicion: the peer really was
           down and has come back. *)
        t.suspected.(q) <- false;
        t.n_unsuspects <- t.n_unsuspects + 1
      end;
      (* A rejoiner is a fresh process: grant it the initial timeout again. *)
      t.timeout.(q) <- t.cfg.timeout;
      t.deadline.(q) <- Some (now + t.cfg.timeout)
    end

  let stats t =
    {
      suspicions = t.n_suspicions;
      false_suspicions = t.n_false;
      unsuspects = t.n_unsuspects;
    }
end

module Event_sim = struct
  include Asim.Event_sim
  module TMap = Map.Make (Int)

  type 'm item =
    | Ev of { dst : pid; ev : 'm aevent }
    | Crash_item of pid
    | Forge_item of pid

  let run ?metrics ?tamper cfg proc =
    let t = cfg.n_processes in
    let metrics =
      match metrics with
      | Some m -> m
      | None -> Simkit.Metrics.create ~n_processes:t ~n_units:cfg.n_units
    in
    let emit = match cfg.obs with Some sink -> sink | None -> Simkit.Obs.null in
    let statuses = Array.make t Running in
    let states = Array.init t proc.a_init in
    let g = Prng.create cfg.seed in
    let queue : 'm item list TMap.t ref = ref TMap.empty in
    let push at item =
      let existing = Option.value ~default:[] (TMap.find_opt at !queue) in
      queue := TMap.add at (item :: existing) !queue
    in
    let slow = Array.make t false in
    List.iter (fun pid -> slow.(pid) <- true) cfg.link.slow_set;
    let n_sent = ref 0 and n_dropped = ref 0 and n_duplicated = ref 0 in
    (* Byzantine subversion schedule: from its activation tick a subverted
       process stops executing its protocol and instead injects forged
       traffic from the tamper model, once per [max_delay] ticks, until no
       honest process remains live. It never retires, so completion exempts
       it. A subversion shadows any later crash of the same pid. *)
    let byz_from = Array.make t max_int in
    List.iter
      (fun (pid, at) -> if at < byz_from.(pid) then byz_from.(pid) <- at)
      cfg.byz;
    let byz_active pid now = byz_from.(pid) <= now in
    (* Crash schedule first so a crash at tick τ precedes deliveries at τ. *)
    List.iter (fun (pid, at) -> push at (Crash_item pid)) cfg.crash_at;
    Array.iteri
      (fun pid at -> if at < max_int then push at (Forge_item pid))
      byz_from;
    (* Injected detector unsoundness: a notice about a live process. *)
    List.iter
      (fun (observer, suspect, at) ->
        push at (Ev { dst = observer; ev = Retired_notice suspect }))
      cfg.false_suspicions;
    for pid = 0 to t - 1 do
      push 0 (Ev { dst = pid; ev = Started })
    done;
    let alive pid = statuses.(pid) = Running in
    let retire_notify who now =
      (* Failure-detection service: sound by construction (only called on
         actual retirement), complete because every live process gets a
         notification after a bounded lag. Disabled when the configuration
         opts for organic detection (Asim.Link heartbeats). *)
      if cfg.oracle_detector then
        for obs = 0 to t - 1 do
          if obs <> who && alive obs then
            push (now + 1 + Prng.int g cfg.max_lag) (Ev { dst = obs; ev = Retired_notice who })
        done
    in
    let transmit now src dst payload =
      (* The link adversary: every protocol message may be dropped, duplicated
         or — when either endpoint belongs to the slow set — delayed up to
         [slow_factor * max_delay] ticks. Decisions are drawn from the same
         seeded stream as the delays, so a seed fully determines the run.
         Drop and duplication draws are skipped entirely at probability zero,
         keeping perfect-link runs byte-identical to the pre-adversary
         behaviour. *)
      incr n_sent;
      (* A severed link loses the message deterministically, before any
         adversary coin is consumed — schedules without severs stay
         byte-identical. *)
      let severed =
        List.exists
          (fun (s, d, from_, to_) ->
            s = src && d = dst && from_ <= now && now <= to_)
          cfg.link.severs
      in
      let dropped =
        severed
        || (cfg.link.drop_bp > 0 && Prng.int g 10_000 < cfg.link.drop_bp)
      in
      if dropped then incr n_dropped
      else begin
        (* In-flight corruption: the payload is garbled by the tamper model
           before delivery. The draw is skipped entirely at probability zero,
           and inert without a tamper model, so existing runs stay
           byte-identical. *)
        let payload =
          if cfg.link.corrupt_bp > 0 && Prng.int g 10_000 < cfg.link.corrupt_bp
          then
            match tamper with
            | Some tm ->
                Simkit.Metrics.record_corruption metrics;
                emit (Simkit.Obs.Tamper { pid = src; at = now });
                tm.t_corrupt ~src ~dst ~at:now payload
            | None -> payload
          else payload
        in
        let deliver () =
          let cap =
            if slow.(src) || slow.(dst) then cfg.max_delay * cfg.link.slow_factor
            else cfg.max_delay
          in
          push (now + 1 + Prng.int g cap) (Ev { dst; ev = Got { src; payload } })
        in
        deliver ();
        if cfg.link.dup_bp > 0 && Prng.int g 10_000 < cfg.link.dup_bp then begin
          incr n_duplicated;
          deliver ()
        end
      end
    in
    let with_span ~name ~pid now f =
      match cfg.spans with
      | None -> f ()
      | Some sink ->
          sink
            (Simkit.Obs.Span_begin
               { name; pid; at = now; inc = 0;
                 ts_us = Dhw_util.Clock.now_us () });
          let res = f () in
          sink
            (Simkit.Obs.Span_end
               { name; pid; at = now; inc = 0;
                 ts_us = Dhw_util.Clock.now_us () });
          res
    in
    let handle now dst ev =
      if alive dst && not (byz_active dst now) then begin
        emit (Simkit.Obs.Step { pid = dst; at = now });
        let o =
          with_span ~name:"handle" ~pid:dst now (fun () ->
              proc.a_handle dst now states.(dst) ev)
        in
        states.(dst) <- o.state;
        List.iter
          (fun u ->
            Simkit.Metrics.record_work metrics dst u;
            emit (Simkit.Obs.Work { pid = dst; at = now; unit_id = u }))
          o.work;
        List.iter
          (fun (to_, payload) ->
            Simkit.Metrics.record_send metrics dst;
            emit (Simkit.Obs.Send { src = dst; dst = to_; at = now; tag = "" });
            if to_ >= 0 && to_ < t then transmit now dst to_ payload)
          o.sends;
        Simkit.Metrics.record_round metrics now;
        if o.terminate then begin
          statuses.(dst) <- Terminated now;
          Simkit.Metrics.record_terminate metrics dst now;
          emit (Simkit.Obs.Terminate { pid = dst; at = now });
          retire_notify dst now
        end
        else
          match o.continue_after with
          | Some d when d >= 1 -> push (now + d) (Ev { dst; ev = Continue })
          | Some _ -> invalid_arg "Event_sim: continue_after must be >= 1"
          | None -> ()
      end
    in
    let last_tick = ref 0 in
    let limited = ref false in
    let rec loop () =
      match TMap.min_binding_opt !queue with
      | None -> ()
      | Some (now, items) when now <= cfg.max_ticks ->
          queue := TMap.remove now !queue;
          last_tick := now;
          (* items were accumulated in reverse insertion order *)
          with_span ~name:"tick" ~pid:(-1) now (fun () ->
          List.iter
            (fun item ->
              match item with
              | Crash_item pid ->
                  if alive pid && not (byz_active pid now) then begin
                    statuses.(pid) <- Crashed now;
                    Simkit.Metrics.record_crash metrics pid now;
                    emit (Simkit.Obs.Crash { pid; at = now });
                    retire_notify pid now
                  end
              | Forge_item pid ->
                  let honest_alive =
                    let found = ref false in
                    Array.iteri
                      (fun i s ->
                        if s = Running && byz_from.(i) = max_int then found := true)
                      statuses;
                    !found
                  in
                  if alive pid && honest_alive then begin
                    (match tamper with
                    | Some tm ->
                        List.iter
                          (fun (dst, payload) ->
                            Simkit.Metrics.record_corruption metrics;
                            emit (Simkit.Obs.Tamper { pid; at = now });
                            if dst >= 0 && dst < t then transmit now pid dst payload)
                          (tm.t_forge pid ~at:now)
                    | None -> ());
                    (* the next salvo — stop once every honest process has
                       retired, so the queue can drain and the run complete *)
                    push (now + cfg.max_delay) (Forge_item pid)
                  end
              | Ev { dst; ev } -> handle now dst ev)
            (List.rev items));
          loop ()
      | Some _ -> limited := true
    in
    loop ();
    let retired_or_byz i s = is_retired s || byz_from.(i) < max_int in
    let all_done = ref true in
    Array.iteri (fun i s -> if not (retired_or_byz i s) then all_done := false) statuses;
    let outcome =
      if !all_done then Completed
      else if !limited then Tick_limit cfg.max_ticks
      else Stalled !last_tick
    in
    let net = { sent = !n_sent; dropped = !n_dropped; duplicated = !n_duplicated } in
    { metrics; statuses; outcome; net }
end

module Link = struct
  module ISet = Set.Make (Int)
  module IMap = Map.Make (Int)

  type time = int
  type config = Asim.Link.config
  type stats = Asim.Link.stats

  let config = Asim.Link.config
  let stats = Asim.Link.stats

  open Asim.Link

  type 'm pending = {
    p_dst : pid;
    p_seq : int;
    p_payload : 'm;
    p_next_at : time;
    p_rto : int;
    p_tries : int;  (* retransmissions already spent on this packet *)
  }

  type ('s, 'm) state = {
    inner : 's;
    draining : bool;
    inner_conts : time list;  (* pending inner [Continue] wakeups (multiset) *)
    next_seq : int;
    pending : 'm pending list;
    seen : ISet.t IMap.t;  (* per-source delivered sequence numbers *)
    hb : Heartbeat.t option;
    retired : ISet.t;  (* peers believed retired: no sends, no pending *)
    notified : ISet.t;  (* peers the inner protocol was told about *)
    armed : ISet.t;  (* Continue wakeups already scheduled in the queue *)
  }

  let remove_one x l =
    let rec go acc = function
      | [] -> List.rev acc
      | y :: rest when y = x -> List.rev_append acc rest
      | y :: rest -> go (y :: acc) rest
    in
    go [] l

  let harden ?(config = config ()) ?heartbeat ?stats:stats_arg ~n inner_proc =
    let stats = match stats_arg with Some s -> s | None -> stats () in
    let a_init pid =
      {
        inner = inner_proc.Event_sim.a_init pid;
        draining = false;
        inner_conts = [];
        next_seq = 0;
        pending = [];
        seen = IMap.empty;
        hb =
          Option.map
            (fun cfg -> Heartbeat.create ~config:cfg ~me:pid ~n ~now:0 ())
            heartbeat;
        retired = ISet.empty;
        notified = ISet.empty;
        armed = ISet.empty;
      }
    in
    let a_handle me now st0 ev =
      let st = ref st0 in
      let sends = ref [] and work = ref [] in
      let emit dst w = sends := (dst, w) :: !sends in
      let rec inner_call iev =
        if not !st.draining then begin
          let o = inner_proc.Event_sim.a_handle me now !st.inner iev in
          st := { !st with inner = o.Event_sim.state };
          work := !work @ o.work;
          List.iter
            (fun (dst, m) ->
              if dst >= 0 && dst < n && not (ISet.mem dst !st.retired) then begin
                let seq = !st.next_seq in
                st :=
                  { !st with
                    next_seq = seq + 1;
                    pending =
                      { p_dst = dst; p_seq = seq; p_payload = m;
                        p_next_at = now + config.rto; p_rto = config.rto;
                        p_tries = 0 }
                      :: !st.pending };
                stats.data_sent <- stats.data_sent + 1;
                emit dst (Data { seq; payload = m })
              end)
            o.sends;
          (match o.continue_after with
          | Some d when d >= 1 ->
              st := { !st with inner_conts = (now + d) :: !st.inner_conts }
          | Some _ -> invalid_arg "Link: continue_after must be >= 1"
          | None -> ());
          if o.terminate then
            (* Hold the real termination until every pending message is acked
               or its destination is known retired, so "reliable" survives the
               sender's own exit (the final (S) broadcast must land). *)
            st := { !st with draining = true; inner_conts = [] }
        end
      and mark_retired who =
        st :=
          { !st with
            retired = ISet.add who !st.retired;
            pending = List.filter (fun p -> p.p_dst <> who) !st.pending }
      and notify_inner who =
        if not (ISet.mem who !st.notified) then begin
          st := { !st with notified = ISet.add who !st.notified };
          stats.notices <- (me, who, now) :: stats.notices;
          inner_call (Event_sim.Retired_notice who)
        end
      in
      let alive_evidence src =
        match !st.hb with
        | Some hb ->
            if Heartbeat.alive_evidence hb ~src ~now then begin
              stats.recoveries <- stats.recoveries + 1;
              stats.false_suspicions <- stats.false_suspicions + 1;
              stats.unsuspects <- stats.unsuspects + 1;
              stats.unsuspect_log <- (me, src, now) :: stats.unsuspect_log;
              st := { !st with retired = ISet.remove src !st.retired }
            end
        | None -> ()
      in
      (match ev with
      | Event_sim.Started ->
          (* Anchor the monitor at the tick this process actually started:
             a_init built it at time 0, which is right for the simulator's
             universal start but catastrophically wrong for a respawned
             real-fleet incarnation entering at a late tick — every peer
             deadline would be long expired and the whole fleet instantly
             (and permanently, since mutual suspicion silences both beat
             directions) suspected. *)
          (match heartbeat with
          | Some cfg ->
              st :=
                { !st with hb = Some (Heartbeat.create ~config:cfg ~me ~n ~now ()) }
          | None -> ());
          inner_call Event_sim.Started
      | Event_sim.Got { src; payload = Beat } -> alive_evidence src
      | Event_sim.Got { src; payload = Ack seq } ->
          alive_evidence src;
          st :=
            { !st with
              pending =
                List.filter
                  (fun p -> not (p.p_dst = src && p.p_seq = seq))
                  !st.pending }
      | Event_sim.Got { src; payload = Data { seq; payload } } ->
          alive_evidence src;
          (* Always ack, even duplicates: the first ack may have been lost. *)
          stats.acks_sent <- stats.acks_sent + 1;
          emit src (Ack seq);
          let seen_src =
            Option.value ~default:ISet.empty (IMap.find_opt src !st.seen)
          in
          if ISet.mem seq seen_src then
            stats.dups_suppressed <- stats.dups_suppressed + 1
          else begin
            st := { !st with seen = IMap.add src (ISet.add seq seen_src) !st.seen };
            inner_call (Event_sim.Got { src; payload })
          end
      | Event_sim.Retired_notice who ->
          (* Oracle notification (or an injected false suspicion): trusted,
             permanent — stop monitoring entirely. *)
          (match !st.hb with Some hb -> Heartbeat.stop hb who | None -> ());
          mark_retired who;
          notify_inner who
      | Event_sim.Continue ->
          st := { !st with armed = ISet.remove now !st.armed };
          (match !st.hb with
          | Some hb ->
              let newly, beat = Heartbeat.tick hb ~now in
              stats.suspicions <- stats.suspicions + List.length newly;
              List.iter
                (fun w -> stats.suspect_log <- (me, w, now) :: stats.suspect_log)
                newly;
              List.iter
                (fun w ->
                  mark_retired w;
                  notify_inner w)
                newly;
              if beat then
                for q = 0 to n - 1 do
                  if q <> me && not (ISet.mem q !st.retired) then begin
                    stats.beats_sent <- stats.beats_sent + 1;
                    emit q Beat
                  end
                done
          | None -> ());
          let due, rest = List.partition (fun p -> p.p_next_at <= now) !st.pending in
          let due =
            List.filter_map
              (fun p ->
                if config.max_retries > 0 && p.p_tries >= config.max_retries
                then begin
                  (* Bounded retransmission: give the packet up. Without a
                     bound, a Byzantine peer that streams forged traffic —
                     alive evidence — while never acking would hold a
                     draining sender hostage forever. *)
                  stats.abandoned <- stats.abandoned + 1;
                  None
                end
                else begin
                  stats.retransmits <- stats.retransmits + 1;
                  emit p.p_dst (Data { seq = p.p_seq; payload = p.p_payload });
                  let rto = min (p.p_rto * config.backoff) config.max_rto in
                  Some
                    { p with p_next_at = now + rto; p_rto = rto;
                      p_tries = p.p_tries + 1 }
                end)
              due
          in
          st := { !st with pending = rest @ due };
          let rec pump () =
            if not !st.draining then
              match List.find_opt (fun c -> c <= now) !st.inner_conts with
              | Some c ->
                  st := { !st with inner_conts = remove_one c !st.inner_conts };
                  inner_call Event_sim.Continue;
                  pump ()
              | None -> ()
          in
          pump ());
      let terminate = !st.draining && !st.pending = [] in
      let continue_after =
        if terminate then None
        else begin
          let cand = ref None in
          let add t =
            match !cand with Some c when c <= t -> () | _ -> cand := Some t
          in
          (match !st.hb with
          | Some hb -> add (Heartbeat.next_deadline hb)
          | None -> ());
          List.iter (fun p -> add p.p_next_at) !st.pending;
          if not !st.draining then List.iter add !st.inner_conts;
          match !cand with
          | None -> None
          | Some w ->
              let w = max w (now + 1) in
              if ISet.exists (fun a -> a > now && a <= w) !st.armed then None
              else begin
                st := { !st with armed = ISet.add w !st.armed };
                Some (w - now)
              end
        end
      in
      {
        Event_sim.state = !st;
        sends = List.rev !sends;
        work = !work;
        terminate;
        continue_after;
      }
    in
    { Event_sim.a_init; a_handle }

  let inner_state st = st.inner
  let in_flight st = List.length st.pending

  let suspects st =
    match st.hb with Some hb -> Heartbeat.suspects hb | None -> []

  let rejoin ?stats st q ~now =
    let cleared =
      match st.hb with
      | None -> false
      | Some hb ->
          let before = (Heartbeat.stats hb).Heartbeat.unsuspects in
          Heartbeat.rejoin hb q ~now;
          (Heartbeat.stats hb).Heartbeat.unsuspects > before
    in
    (match stats with
    | Some s when cleared -> s.unsuspects <- s.unsuspects + 1
    | _ -> ());
    { st with retired = ISet.remove q st.retired }
end

(* [Async_protocol_a.run_hardened] and [run_validated], assembled over the
   reference substrate. *)
module P = Asim.Async_protocol_a

let run_hardened ?crash_at ?(max_delay = 5) ?max_lag ?seed ?link ?stats ?max_ticks ?byz
    ?obs spec =
  let link_config = P.byz_link_config None byz in
  let t = Doall.Spec.processes spec in
  let cfg =
    Asim.Event_sim.config ?crash_at ~max_delay ?max_lag ?seed ?link ?max_ticks ?byz
      ~oracle_detector:false ~n_processes:t ~n_units:(Doall.Spec.n spec) ?obs ()
  in
  Event_sim.run ~tamper:(P.wire_tamper_plain (Doall.Grid.make spec)) cfg
    (Link.harden ?config:link_config ~heartbeat:(P.default_heartbeat ~max_delay)
       ?stats ~n:t (P.aproc spec))

let run_validated ?crash_at ?(max_delay = 5) ?max_lag ?seed ?link ?stats ?max_ticks
    ?byz ?obs spec =
  let link_config = P.byz_link_config None byz in
  let t = Doall.Spec.processes spec in
  let grid = Doall.Grid.make spec in
  let metrics = Simkit.Metrics.create ~n_processes:t ~n_units:(Doall.Spec.n spec) in
  let on_reject ~pid ~at =
    Simkit.Metrics.record_reject metrics;
    match obs with Some sink -> sink (Simkit.Obs.Reject { pid; at }) | None -> ()
  in
  let cfg =
    Asim.Event_sim.config ?crash_at ~max_delay ?max_lag ?seed ?link ?max_ticks ?byz
      ~oracle_detector:false ~n_processes:t ~n_units:(Doall.Spec.n spec) ?obs ()
  in
  Event_sim.run ~metrics ~tamper:(P.wire_tamper_signed grid) cfg
    (Link.harden ?config:link_config ~heartbeat:(P.default_heartbeat ~max_delay)
       ?stats ~n:t
       (P.validate_wrap grid ~on_reject (P.aproc spec)))
