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

(* The wrapper state is one mutable record per process, updated in place:
   a beat or an ack is handled without copying it. [out] and [out_work]
   collect one handler call's sends (newest first) and work. *)
type ('s, 'm) state = {
  mutable inner : 's;
  mutable draining : bool;
  mutable inner_conts : time list;  (* pending inner [Continue] wakeups (multiset) *)
  mutable next_seq : int;
  mutable pending : 'm pending list;
  mutable seen : ISet.t IMap.t;  (* per-source delivered sequence numbers *)
  mutable hb : Heartbeat.t option;
  mutable retired : ISet.t;  (* peers believed retired: no sends, no pending *)
  mutable notified : ISet.t;  (* peers the inner protocol was told about *)
  mutable armed : time list;
      (* ticks with a Continue wakeup already scheduled, ascending *)
  mutable out : (pid * 'm wire) list;
  mutable out_work : int list;
}

let remove_one x l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest when y = x -> List.rev_append acc rest
    | y :: rest -> go (y :: acc) rest
  in
  go [] l

(* The handler's pieces are top-level functions over one explicit
   environment, so a call allocates no closures. *)
type ('s, 'm) env = {
  cfg : config;
  heartbeat : Heartbeat.config option;
  stats : stats;
  n : int;
  inner_proc : ('s, 'm) Event_sim.aproc;
}

let emit st dst w = st.out <- (dst, w) :: st.out

let rec acked src seq = function
  | [] -> false
  | p :: rest -> (p.p_dst = src && p.p_seq = seq) || acked src seq rest

let rec remove_acked src seq = function
  | [] -> []
  | p :: rest ->
      if p.p_dst = src && p.p_seq = seq then rest
      else p :: remove_acked src seq rest

let rec any_due now = function
  | [] -> false
  | p :: rest -> p.p_next_at <= now || any_due now rest

let rec first_due now = function
  | [] -> -1
  | c :: rest -> if c <= now then c else first_due now rest

let rec earliest_pending acc = function
  | [] -> acc
  | p :: rest -> earliest_pending (min acc p.p_next_at) rest

let rec earliest acc = function
  | [] -> acc
  | c :: rest -> earliest (min acc c) rest

(* Is a Continue already scheduled in (now, w]? *)
let rec armed_within now w = function
  | [] -> false
  | a :: rest -> if a <= now then armed_within now w rest else a <= w

let rec insert_sorted w = function
  | [] -> [ w ]
  | a :: rest as l -> if w <= a then w :: l else a :: insert_sorted w rest

let rec queue_sends env me now st = function
  | [] -> ()
  | (dst, m) :: rest ->
      if dst >= 0 && dst < env.n && not (ISet.mem dst st.retired) then begin
        let seq = st.next_seq in
        st.next_seq <- seq + 1;
        st.pending <-
          { p_dst = dst; p_seq = seq; p_payload = m;
            p_next_at = now + env.cfg.rto; p_rto = env.cfg.rto; p_tries = 0 }
          :: st.pending;
        env.stats.data_sent <- env.stats.data_sent + 1;
        emit st dst (Data { seq; payload = m })
      end;
      queue_sends env me now st rest

let inner_call env me now st iev =
  if not st.draining then begin
    let o = env.inner_proc.Event_sim.a_handle me now st.inner iev in
    st.inner <- o.Event_sim.state;
    if o.work <> [] then st.out_work <- st.out_work @ o.work;
    queue_sends env me now st o.sends;
    (match o.continue_after with
    | Some d when d >= 1 -> st.inner_conts <- (now + d) :: st.inner_conts
    | Some _ -> invalid_arg "Link: continue_after must be >= 1"
    | None -> ());
    if o.terminate then begin
      (* Hold the real termination until every pending message is acked
         or its destination is known retired, so "reliable" survives the
         sender's own exit (the final (S) broadcast must land). *)
      st.draining <- true;
      st.inner_conts <- []
    end
  end

let mark_retired st who =
  st.retired <- ISet.add who st.retired;
  st.pending <- List.filter (fun p -> p.p_dst <> who) st.pending

let notify_inner env me now st who =
  if not (ISet.mem who st.notified) then begin
    st.notified <- ISet.add who st.notified;
    env.stats.notices <- (me, who, now) :: env.stats.notices;
    inner_call env me now st (Event_sim.Retired_notice who)
  end

let alive_evidence env me now st src =
  match st.hb with
  | Some hb ->
      if Heartbeat.alive_evidence hb ~src ~now then begin
        let stats = env.stats in
        stats.recoveries <- stats.recoveries + 1;
        stats.false_suspicions <- stats.false_suspicions + 1;
        stats.unsuspects <- stats.unsuspects + 1;
        stats.unsuspect_log <- (me, src, now) :: stats.unsuspect_log;
        st.retired <- ISet.remove src st.retired
      end
  | None -> ()

let rec suspect_all env me now st = function
  | [] -> ()
  | w :: rest ->
      mark_retired st w;
      notify_inner env me now st w;
      suspect_all env me now st rest

let retransmit env now st =
  let due, rest = List.partition (fun p -> p.p_next_at <= now) st.pending in
  let due =
    List.filter_map
      (fun p ->
        let stats = env.stats in
        if env.cfg.max_retries > 0 && p.p_tries >= env.cfg.max_retries then begin
          (* Bounded retransmission: give the packet up. Without a bound, a
             Byzantine peer that streams forged traffic — alive evidence —
             while never acking would hold a draining sender hostage
             forever. *)
          stats.abandoned <- stats.abandoned + 1;
          None
        end
        else begin
          stats.retransmits <- stats.retransmits + 1;
          emit st p.p_dst (Data { seq = p.p_seq; payload = p.p_payload });
          let rto = min (p.p_rto * env.cfg.backoff) env.cfg.max_rto in
          Some { p with p_next_at = now + rto; p_rto = rto; p_tries = p.p_tries + 1 }
        end)
      due
  in
  st.pending <- rest @ due

let rec pump env me now st =
  if not st.draining then
    let c = first_due now st.inner_conts in
    if c >= 0 then begin
      st.inner_conts <- remove_one c st.inner_conts;
      inner_call env me now st Event_sim.Continue;
      pump env me now st
    end

let on_continue env me now st =
  st.armed <- remove_one now st.armed;
  (match st.hb with
  | Some hb ->
      let stats = env.stats in
      let newly, beat = Heartbeat.tick hb ~now in
      if newly <> [] then begin
        stats.suspicions <- stats.suspicions + List.length newly;
        List.iter (fun w -> stats.suspect_log <- (me, w, now) :: stats.suspect_log) newly;
        suspect_all env me now st newly
      end;
      if beat then
        for q = 0 to env.n - 1 do
          if q <> me && not (ISet.mem q st.retired) then begin
            stats.beats_sent <- stats.beats_sent + 1;
            emit st q Beat
          end
        done
  | None -> ());
  if any_due now st.pending then retransmit env now st;
  pump env me now st

(* The next wakeup this process needs, [None] when one is already
   scheduled in time. *)
let next_continue now st =
  let w =
    match st.hb with Some hb -> Heartbeat.next_deadline hb | None -> max_int
  in
  let w = earliest_pending w st.pending in
  let w = if st.draining then w else earliest w st.inner_conts in
  if w = max_int then None
  else begin
    let w = max w (now + 1) in
    if armed_within now w st.armed then None
    else begin
      st.armed <- insert_sorted w st.armed;
      Some (w - now)
    end
  end

let handle env me now st ev =
  (match ev with
  | Event_sim.Started ->
      (* Anchor the monitor at the tick this process actually started:
         a_init built it at time 0, which is right for the simulator's
         universal start but catastrophically wrong for a respawned
         real-fleet incarnation entering at a late tick — every peer
         deadline would be long expired and the whole fleet instantly
         (and permanently, since mutual suspicion silences both beat
         directions) suspected. *)
      (match env.heartbeat with
      | Some cfg -> st.hb <- Some (Heartbeat.create ~config:cfg ~me ~n:env.n ~now ())
      | None -> ());
      inner_call env me now st Event_sim.Started
  | Event_sim.Got { src; payload = Beat } -> alive_evidence env me now st src
  | Event_sim.Got { src; payload = Ack seq } ->
      alive_evidence env me now st src;
      if acked src seq st.pending then st.pending <- remove_acked src seq st.pending
  | Event_sim.Got { src; payload = Data { seq; payload } } ->
      alive_evidence env me now st src;
      (* Always ack, even duplicates: the first ack may have been lost. *)
      env.stats.acks_sent <- env.stats.acks_sent + 1;
      emit st src (Ack seq);
      let seen_src =
        Option.value ~default:ISet.empty (IMap.find_opt src st.seen)
      in
      if ISet.mem seq seen_src then
        env.stats.dups_suppressed <- env.stats.dups_suppressed + 1
      else begin
        st.seen <- IMap.add src (ISet.add seq seen_src) st.seen;
        inner_call env me now st (Event_sim.Got { src; payload })
      end
  | Event_sim.Retired_notice who ->
      (* Oracle notification (or an injected false suspicion): trusted,
         permanent — stop monitoring entirely. *)
      (match st.hb with Some hb -> Heartbeat.stop hb who | None -> ());
      mark_retired st who;
      notify_inner env me now st who
  | Event_sim.Continue -> on_continue env me now st);
  let terminate = st.draining && st.pending = [] in
  let continue_after = if terminate then None else next_continue now st in
  let sends = match st.out with [] -> [] | out -> List.rev out in
  let work = st.out_work in
  st.out <- [];
  st.out_work <- [];
  { Event_sim.state = st; sends; work; terminate; continue_after }

let harden ?(config = config ()) ?heartbeat ?stats:stats_arg ~n inner_proc =
  let stats = match stats_arg with Some s -> s | None -> stats () in
  let env = { cfg = config; heartbeat; stats; n; inner_proc } in
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
      armed = [];
      out = [];
      out_work = [];
    }
  in
  let a_handle me now st ev = handle env me now st ev in
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
  st.retired <- ISet.remove q st.retired;
  st
