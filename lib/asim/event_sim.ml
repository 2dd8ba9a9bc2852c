open Simkit.Types
module Prng = Dhw_util.Prng
module TMap = Map.Make (Int)

type time = int

type 'm aevent =
  | Started
  | Got of { src : pid; payload : 'm }
  | Retired_notice of pid
  | Continue

type ('s, 'm) aoutcome = {
  state : 's;
  sends : (pid * 'm) list;
  work : int list;
  terminate : bool;
  continue_after : int option;
}

type ('s, 'm) aproc = {
  a_init : pid -> 's;
  a_handle : pid -> time -> 's -> 'm aevent -> ('s, 'm) aoutcome;
}

type link = {
  drop_bp : int;
  dup_bp : int;
  corrupt_bp : int;
  slow_set : pid list;
  slow_factor : int;
  severs : (pid * pid * time * time) list;
}

let perfect_link =
  {
    drop_bp = 0;
    dup_bp = 0;
    corrupt_bp = 0;
    slow_set = [];
    slow_factor = 1;
    severs = [];
  }

type 'm tamper_model = {
  t_corrupt : src:pid -> dst:pid -> at:time -> 'm -> 'm;
  t_forge : pid -> at:time -> (pid * 'm) list;
}

type config = {
  n_processes : int;
  n_units : int;
  crash_at : (pid * time) list;
  max_delay : int;
  max_lag : int;
  seed : int64;
  max_ticks : time;
  false_suspicions : (pid * pid * time) list;
  link : link;
  byz : (pid * time) list;
  oracle_detector : bool;
  obs : Simkit.Obs.sink option;
  spans : Simkit.Obs.sink option;
}

let config ?(crash_at = []) ?(max_delay = 5) ?(max_lag = 8) ?(seed = 1L)
    ?(max_ticks = 10_000_000) ?(false_suspicions = []) ?(link = perfect_link)
    ?(byz = []) ?(oracle_detector = true) ?obs ?spans ~n_processes ~n_units () =
  let err fmt = Printf.ksprintf invalid_arg ("Event_sim.config: " ^^ fmt) in
  if n_processes < 1 then err "n_processes must be >= 1 (got %d)" n_processes;
  if n_units < 0 then err "n_units must be >= 0 (got %d)" n_units;
  if max_delay < 1 then err "max_delay must be >= 1 (got %d)" max_delay;
  if max_lag < 1 then err "max_lag must be >= 1 (got %d)" max_lag;
  if max_ticks < 1 then err "max_ticks must be >= 1 (got %d)" max_ticks;
  let in_range pid = pid >= 0 && pid < n_processes in
  List.iter
    (fun (pid, at) ->
      if not (in_range pid) then
        err "crash_at names pid %d outside [0, %d)" pid n_processes;
      if at < 0 then err "crash_at time for pid %d is negative (%d)" pid at)
    crash_at;
  List.iter
    (fun (observer, suspect, at) ->
      if not (in_range observer) then
        err "false_suspicions observer %d outside [0, %d)" observer n_processes;
      if not (in_range suspect) then
        err "false_suspicions suspect %d outside [0, %d)" suspect n_processes;
      if at < 0 then
        err "false_suspicions time for (%d, %d) is negative (%d)" observer
          suspect at)
    false_suspicions;
  if link.drop_bp < 0 || link.drop_bp > 9_999 then
    err "link.drop_bp must lie in [0, 9999] (got %d)" link.drop_bp;
  if link.dup_bp < 0 || link.dup_bp > 10_000 then
    err "link.dup_bp must lie in [0, 10000] (got %d)" link.dup_bp;
  if link.corrupt_bp < 0 || link.corrupt_bp > 9_999 then
    err "link.corrupt_bp must lie in [0, 9999] (got %d)" link.corrupt_bp;
  if link.slow_factor < 1 then
    err "link.slow_factor must be >= 1 (got %d)" link.slow_factor;
  List.iter
    (fun pid ->
      if not (in_range pid) then
        err "link.slow_set names pid %d outside [0, %d)" pid n_processes)
    link.slow_set;
  List.iter
    (fun (src, dst, from_, to_) ->
      if not (in_range src) then
        err "link.severs names src %d outside [0, %d)" src n_processes;
      if not (in_range dst) then
        err "link.severs names dst %d outside [0, %d)" dst n_processes;
      if from_ < 0 || to_ < from_ then
        err "link.severs window for (%d, %d) must be 0 <= from <= to" src dst)
    link.severs;
  List.iter
    (fun (pid, at) ->
      if not (in_range pid) then
        err "byz names pid %d outside [0, %d)" pid n_processes;
      if at < 0 then err "byz time for pid %d is negative (%d)" pid at)
    byz;
  { n_processes; n_units; crash_at; max_delay; max_lag; seed; max_ticks;
    false_suspicions; link; byz; oracle_detector; obs; spans }

type run_outcome = Completed | Stalled of time | Tick_limit of time

type net = { sent : int; dropped : int; duplicated : int }

type result = {
  metrics : Simkit.Metrics.t;
  statuses : status array;
  outcome : run_outcome;
  net : net;
}

let completed r = r.outcome = Completed

let pp_outcome ppf = function
  | Completed -> Format.fprintf ppf "completed"
  | Stalled t -> Format.fprintf ppf "STALLED@%d" t
  | Tick_limit t -> Format.fprintf ppf "TICK-LIMIT@%d" t

(* Internal queue items. [Crash_item] realises the crash schedule,
   [Forge_item] the Byzantine one; the rest are process-visible events.
   [Hole] fills a processed cell of the queue, so a delivered item is not
   kept alive (and promoted) by the bucket it sat in. *)
type 'm item =
  | Ev of { dst : pid; ev : 'm aevent }
  | Crash_item of pid
  | Forge_item of pid
  | Hole

(* The event queue: per-tick buckets, each processed in insertion order.
   The ticks [base, base + horizon) live in a ring of growable arrays that
   are appended in place and reused, so queueing an item allocates nothing
   but the item; an item further ahead (a late crash, a backed-off
   timeout) waits in a map of reversed lists and moves into the ring, in
   its order, before the ring reaches its tick — so every tick's bucket
   keeps insertion order. *)
let horizon = 256

type 'm queue = {
  slots : 'm item array array;
  lens : int array;
  mutable base : time;  (* the tick being processed, or the last one *)
  mutable in_ring : int;
  mutable far : 'm item list TMap.t;
}

let queue () =
  {
    slots = Array.make horizon [||];
    lens = Array.make horizon 0;
    base = 0;
    in_ring = 0;
    far = TMap.empty;
  }

let append q at item =
  let i = at land (horizon - 1) in
  let slot = q.slots.(i) and len = q.lens.(i) in
  let slot =
    if len < Array.length slot then slot
    else begin
      let bigger = Array.make (max 8 (2 * len)) item in
      Array.blit slot 0 bigger 0 len;
      q.slots.(i) <- bigger;
      bigger
    end
  in
  slot.(len) <- item;
  q.lens.(i) <- len + 1;
  q.in_ring <- q.in_ring + 1

let push q at item =
  if at < q.base + horizon then append q at item
  else
    let existing = Option.value ~default:[] (TMap.find_opt at q.far) in
    q.far <- TMap.add at (item :: existing) q.far

(* The next tick with an item, [max_int] when the queue is empty. *)
let next_tick q =
  if q.in_ring > 0 then begin
    let at = ref q.base in
    while q.lens.(!at land (horizon - 1)) = 0 do
      incr at
    done;
    !at
  end
  else match TMap.min_binding_opt q.far with Some (at, _) -> at | None -> max_int

(* Make [at] the current tick: the far items now inside the horizon move
   into the ring. *)
let advance q at =
  q.base <- at;
  let rec migrate () =
    match TMap.min_binding_opt q.far with
    | Some (t, items) when t < at + horizon ->
        q.far <- TMap.remove t q.far;
        List.iter (append q t) (List.rev items);
        migrate ()
    | _ -> ()
  in
  migrate ()

(* Process every item of the current tick, in insertion order. *)
let drain q f =
  let i = q.base land (horizon - 1) in
  let k = ref 0 in
  while !k < q.lens.(i) do
    let slot = q.slots.(i) in
    let item = slot.(!k) in
    slot.(!k) <- Hole;
    f item;
    incr k
  done;
  q.in_ring <- q.in_ring - q.lens.(i);
  q.lens.(i) <- 0

let alive_status = function Running -> true | Terminated _ | Crashed _ -> false

let rec severed src dst now = function
  | [] -> false
  | (s, d, from_, to_) :: rest ->
      (s = src && d = dst && from_ <= now && now <= to_)
      || severed src dst now rest

let run ?metrics ?tamper cfg proc =
  let t = cfg.n_processes in
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Simkit.Metrics.create ~n_processes:t ~n_units:cfg.n_units
  in
  (* Obs events and span closures are built only when a sink is armed. *)
  let has_obs = Option.is_some cfg.obs in
  let emit = match cfg.obs with Some sink -> sink | None -> Simkit.Obs.null in
  let statuses = Array.make t Running in
  let states = Array.init t proc.a_init in
  let g = Prng.create cfg.seed in
  let q = queue () in
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
  List.iter (fun (pid, at) -> push q at (Crash_item pid)) cfg.crash_at;
  Array.iteri
    (fun pid at -> if at < max_int then push q at (Forge_item pid))
    byz_from;
  (* Injected detector unsoundness: a notice about a live process. *)
  List.iter
    (fun (observer, suspect, at) ->
      push q at (Ev { dst = observer; ev = Retired_notice suspect }))
    cfg.false_suspicions;
  for pid = 0 to t - 1 do
    push q 0 (Ev { dst = pid; ev = Started })
  done;
  let alive pid = alive_status statuses.(pid) in
  let retire_notify who now =
    (* Failure-detection service: sound by construction (only called on
       actual retirement), complete because every live process gets a
       notification after a bounded lag. Disabled when the configuration
       opts for organic detection (Asim.Link heartbeats). *)
    if cfg.oracle_detector then
      for obs = 0 to t - 1 do
        if obs <> who && alive obs then
          push q (now + 1 + Prng.int g cfg.max_lag)
            (Ev { dst = obs; ev = Retired_notice who })
      done
  in
  let deliver now src dst payload =
    let cap =
      if slow.(src) || slow.(dst) then cfg.max_delay * cfg.link.slow_factor
      else cfg.max_delay
    in
    push q (now + 1 + Prng.int g cap) (Ev { dst; ev = Got { src; payload } })
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
    let dropped =
      severed src dst now cfg.link.severs
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
              if has_obs then emit (Simkit.Obs.Tamper { pid = src; at = now });
              tm.t_corrupt ~src ~dst ~at:now payload
          | None -> payload
        else payload
      in
      deliver now src dst payload;
      if cfg.link.dup_bp > 0 && Prng.int g 10_000 < cfg.link.dup_bp then begin
        incr n_duplicated;
        deliver now src dst payload
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
  let rec record_work dst now = function
    | [] -> ()
    | u :: rest ->
        Simkit.Metrics.record_work metrics dst u;
        if has_obs then emit (Simkit.Obs.Work { pid = dst; at = now; unit_id = u });
        record_work dst now rest
  in
  let rec send_all dst now = function
    | [] -> ()
    | (to_, payload) :: rest ->
        Simkit.Metrics.record_send metrics dst;
        if has_obs then
          emit (Simkit.Obs.Send { src = dst; dst = to_; at = now; tag = "" });
        if to_ >= 0 && to_ < t then transmit now dst to_ payload;
        send_all dst now rest
  in
  let rec forge_all pid now = function
    | [] -> ()
    | (dst, payload) :: rest ->
        Simkit.Metrics.record_corruption metrics;
        if has_obs then emit (Simkit.Obs.Tamper { pid; at = now });
        if dst >= 0 && dst < t then transmit now pid dst payload;
        forge_all pid now rest
  in
  let handle now dst ev =
    if alive dst && not (byz_active dst now) then begin
      if has_obs then emit (Simkit.Obs.Step { pid = dst; at = now });
      let o =
        match cfg.spans with
        | None -> proc.a_handle dst now states.(dst) ev
        | Some _ ->
            with_span ~name:"handle" ~pid:dst now (fun () ->
                proc.a_handle dst now states.(dst) ev)
      in
      states.(dst) <- o.state;
      record_work dst now o.work;
      send_all dst now o.sends;
      Simkit.Metrics.record_round metrics now;
      if o.terminate then begin
        statuses.(dst) <- Terminated now;
        Simkit.Metrics.record_terminate metrics dst now;
        if has_obs then emit (Simkit.Obs.Terminate { pid = dst; at = now });
        retire_notify dst now
      end
      else
        match o.continue_after with
        | Some d when d >= 1 -> push q (now + d) (Ev { dst; ev = Continue })
        | Some _ -> invalid_arg "Event_sim: continue_after must be >= 1"
        | None -> ()
    end
  in
  let honest_alive () =
    let found = ref false in
    for i = 0 to t - 1 do
      if alive i && byz_from.(i) = max_int then found := true
    done;
    !found
  in
  let process now = function
    | Crash_item pid ->
        if alive pid && not (byz_active pid now) then begin
          statuses.(pid) <- Crashed now;
          Simkit.Metrics.record_crash metrics pid now;
          if has_obs then emit (Simkit.Obs.Crash { pid; at = now });
          retire_notify pid now
        end
    | Forge_item pid ->
        if alive pid && honest_alive () then begin
          (match tamper with
          | Some tm -> forge_all pid now (tm.t_forge pid ~at:now)
          | None -> ());
          (* the next salvo — stop once every honest process has retired,
             so the queue can drain and the run complete *)
          push q (now + cfg.max_delay) (Forge_item pid)
        end
    | Ev { dst; ev } -> handle now dst ev
    | Hole -> ()
  in
  let last_tick = ref 0 in
  let limited = ref false in
  let rec loop () =
    let now = next_tick q in
    if now = max_int then ()
    else if now > cfg.max_ticks then limited := true
    else begin
      advance q now;
      last_tick := now;
      (match cfg.spans with
      | None -> drain q (process now)
      | Some _ -> with_span ~name:"tick" ~pid:(-1) now (fun () -> drain q (process now)));
      loop ()
    end
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
