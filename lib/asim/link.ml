open Simkit.Types
module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

type time = int

type config = { rto : int; backoff : int; max_rto : int; max_retries : int }

let config ?(rto = 16) ?(backoff = 2) ?(max_rto = 2048) ?(max_retries = 0) () =
  let err fmt = Printf.ksprintf invalid_arg ("Link.config: " ^^ fmt) in
  if rto < 1 then err "rto must be >= 1 (got %d)" rto;
  if backoff < 1 then err "backoff must be >= 1 (got %d)" backoff;
  if max_rto < rto then err "max_rto (%d) must be >= rto (%d)" max_rto rto;
  if max_retries < 0 then err "max_retries must be >= 0 (got %d)" max_retries;
  { rto; backoff; max_rto; max_retries }

type stats = {
  mutable data_sent : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable beats_sent : int;
  mutable dups_suppressed : int;
  mutable recoveries : int;
  mutable suspicions : int;
  mutable false_suspicions : int;
  mutable unsuspects : int;
  mutable abandoned : int;
  mutable notices : (pid * pid * time) list;
  mutable suspect_log : (pid * pid * time) list;
  mutable unsuspect_log : (pid * pid * time) list;
}

let stats () =
  {
    data_sent = 0;
    retransmits = 0;
    acks_sent = 0;
    beats_sent = 0;
    dups_suppressed = 0;
    recoveries = 0;
    suspicions = 0;
    false_suspicions = 0;
    unsuspects = 0;
    abandoned = 0;
    notices = [];
    suspect_log = [];
    unsuspect_log = [];
  }

type 'm wire = Data of { seq : int; payload : 'm } | Ack of int | Beat

let show_wire show = function
  | Data { seq; payload } -> Printf.sprintf "data#%d[%s]" seq (show payload)
  | Ack seq -> Printf.sprintf "ack#%d" seq
  | Beat -> "beat"

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
