(* The asynchronous deployment-mode node driver: one OS process running
   the very state machines the simulator fuzzes — [Link.harden] (acks,
   retransmission, dedup, heartbeat ◇P detection) wrapped around
   [Async_protocol_a] — over a datagram mesh and a wall-clock-derived
   tick counter, with chaos applied to its own sends.

   Three pieces of driver-level bookkeeping make real processes safe that
   the simulator gets for free:

   - {b incarnation seq namespacing}: a respawned node's Link numbers
     packets from 0 again, so receivers map an incoming raw seq to
     [inc * span + seq] before dedup, and acks carry the incarnation they
     target so a respawn discards its dead predecessor's acks;
   - {b driver-side checkpointing}: everything the protocol knows either
     arrived in a message or left in one, both of which pass through the
     driver — so the best [Ckpt_script.last] (by [Recovery.view_rank]) is
     tracked here and persisted via {!Ckpt.save} whenever it improves,
     and a [--recover] respawn seeds [Async_protocol_a.aproc_recover]
     with it;
   - {b graceful degradation}: when the local detector suspects every
     peer at once the node has lost its quorum — it persists, marks a
     park span, and keeps beating; any later evidence of life retracts
     the suspicions organically and the span closes with an unpark;
   - {b incarnation-aware detection}: every datagram names its sender's
     incarnation, so the first one from a higher incarnation is a rejoin
     ([Link.rejoin]) rather than evidence that a correct suspicion of the
     dead predecessor was false;
   - {b clean exit}: a terminating node says bye to its peers, which
     stop monitoring it and stop waiting for its acks (the Section 2.1
     detector reports terminations as well as crashes), and it sends
     every delayed datagram at its release tick before it exits. *)

module E = Asim.Event_sim
module Link = Asim.Link
module Engine = Asim.Engine
module A = Asim.Async_protocol_a
module Rec = Doall.Recovery
module Sf = Dhw_util.Spanfile

(* Sequence-number namespace width per incarnation. A node would need to
   originate 2^20 packets in one life to collide — the protocol sends
   O(t) per unit. *)
let seq_span = 1 lsl 20

type config = {
  dir : string;
  pid : int;
  spec : Doall.Spec.t;
  incarnation : int;
  recover : bool;
  tick_ms : int;
  epoch_ms : float;  (* fleet-global t0 (wall-clock ms): shared timeline *)
  plan : Chaos.plan;
  max_ticks : int;
  hb_period : int;
  hb_timeout : int;
  rto : int;
}

let default_tick_ms = 5

let config ?(incarnation = 0) ?(recover = false) ?(tick_ms = default_tick_ms)
    ?(plan = Chaos.none) ?(max_ticks = 200_000) ?(hb_period = 10)
    ?(hb_timeout = 60) ?(rto = 16) ~dir ~pid ~spec ~epoch_ms () =
  if tick_ms < 1 then invalid_arg "Async_node.config: tick_ms < 1";
  if incarnation < 0 then invalid_arg "Async_node.config: incarnation < 0";
  {
    dir;
    pid;
    spec;
    incarnation;
    recover;
    tick_ms;
    epoch_ms;
    plan;
    max_ticks;
    hb_period;
    hb_timeout;
    rto;
  }

let result_path ~dir ~pid = Filename.concat dir (Printf.sprintf "result-p%d.bin" pid)
let trace_path ~dir ~pid ~inc =
  Filename.concat dir (Printf.sprintf "trace-p%d-i%d.jsonl" pid inc)

let wall_ms () = Unix.gettimeofday () *. 1000.0

(* The longest single wait, so arrivals stay responsive. *)
let max_sleep_s = 0.05

let boundary_sleep_s ~epoch_ms ~tick_ms ~now_ms ~deadline =
  if deadline = max_int then max_sleep_s
  else
    let start_ms = epoch_ms +. (float_of_int deadline *. float_of_int tick_ms) in
    Float.min max_sleep_s (Float.max 0.0 ((start_ms -. now_ms) /. 1000.0))

(* Copies of a bye per peer. Fates are keyed on content, so one copy from
   a given pid to a given peer meets the same fate on every run of a seed;
   independent copies make losing all of them rare, and the peer's
   heartbeat timeout still covers that case. *)
let bye_copies = 3

let sender = function
  | Codec.P_data { src; inc; _ }
  | Codec.P_ack { src; inc; _ }
  | Codec.P_beat { src; inc }
  | Codec.P_bye { src; inc } ->
      (src, inc)

(* exit codes, aligned with the CLI contract *)
let exit_ok = 0
let exit_stalled = 3

let run cfg =
  let t = Doall.Spec.processes cfg.spec in
  let me = cfg.pid in
  let inc = cfg.incarnation in
  let now_tick () =
    let ms = wall_ms () -. cfg.epoch_ms in
    if ms < 0.0 then 0 else int_of_float (ms /. float_of_int cfg.tick_ms)
  in
  let mesh = Mesh.create ~dir:cfg.dir ~pid:me in
  let chaos_stats = Chaos.stats () in
  let link_stats = Link.stats () in
  let tr = open_out (trace_path ~dir:cfg.dir ~pid:me ~inc) in
  Sf.write_header
    ~meta:
      [
        ("protocol", Dhw_util.Jsonw.Str "async-a");
        ("n", Dhw_util.Jsonw.Int (Doall.Spec.n cfg.spec));
        ("t", Dhw_util.Jsonw.Int t);
        ("pid", Dhw_util.Jsonw.Int me);
        ("inc", Dhw_util.Jsonw.Int inc);
      ]
    ~source:"node" tr;
  let mark ?(args = []) ~tick name =
    Sf.write_span tr
      {
        Sf.name;
        src = "node";
        pid = me;
        inc;
        round = tick;
        ts_us = Unix.gettimeofday () *. 1e6;
        dur_us = 0.;
        args;
      }
  in
  (* --- recovery seed and best-checkpoint persistence ------------------- *)
  let best_last =
    ref
      (if cfg.recover then
         match Ckpt.load ~dir:cfg.dir ~pid:me with
         | Some payload -> (
             try Codec.decode_last payload
             with Wire.Decode _ -> Doall.Ckpt_script.No_msg)
         | None -> Doall.Ckpt_script.No_msg
       else Doall.Ckpt_script.No_msg)
  in
  let persists = ref 0 in
  let persist ~tick =
    Ckpt.save ~dir:cfg.dir ~pid:me (Codec.encode_last !best_last);
    incr persists;
    mark ~tick "ckpt"
      ~args:[ ("rank", Dhw_util.Jsonw.Int (fst (Rec.view_rank !best_last))) ]
  in
  let observe_ord ~tick ~src ord =
    let cand = Doall.Ckpt_script.Last_ord { ord; src } in
    if Rec.view_rank cand > Rec.view_rank !best_last then begin
      best_last := cand;
      persist ~tick
    end
  in
  (* --- the hardened protocol under the engine -------------------------- *)
  let hb =
    Asim.Heartbeat.config ~period:cfg.hb_period ~timeout:cfg.hb_timeout
      ~backoff:2 ~max_timeout:100_000 ()
  in
  let link_cfg =
    Link.config ~rto:cfg.rto ~backoff:2 ~max_rto:(cfg.rto * 64) ~max_retries:0
      ()
  in
  let inner =
    if cfg.recover then A.aproc_recover ~last:!best_last cfg.spec
    else A.aproc cfg.spec
  in
  let proc =
    Link.harden ~config:link_cfg ~heartbeat:hb ~stats:link_stats ~n:t inner
  in
  let eng = Engine.create proc ~pid:me in
  (* --- chaos identity counters ----------------------------------------- *)
  let attempts : (int * char * int, int) Hashtbl.t = Hashtbl.create 64 in
  let next_attempt dst tag seq =
    let k = (dst, tag, seq) in
    let a = try Hashtbl.find attempts k with Not_found -> 0 in
    Hashtbl.replace attempts k (a + 1);
    a
  in
  let beat_index = Array.make t 0 in
  (* --- outgoing path: chaos judge + delay queue ------------------------ *)
  let delayed : (int * int * string) list ref = ref [] in
  let send_raw dst bytes = ignore (Mesh.send mesh ~dst bytes) in
  let dispatch ~tick dst bytes kind =
    let v =
      Chaos.judge cfg.plan ~stats:chaos_stats ~src:me ~dst ~kind ~now:tick ()
    in
    List.iter
      (fun release ->
        if release <= tick then send_raw dst bytes
        else delayed := (release, dst, bytes) :: !delayed)
      v.Chaos.release_at
  in
  let transmit ~tick dst wire =
    let bytes, kind =
      match wire with
      | Link.Data { seq; payload } ->
          ( Codec.encode_peer (Codec.P_data { src = me; inc; seq; ord = payload }),
            Chaos.Data { seq; attempt = next_attempt dst 'd' seq } )
      | Link.Ack seq ->
          (* my Link acks the namespaced number it deduped on; put the raw
             seq and its incarnation back on the wire *)
          let target_inc = seq / seq_span and raw = seq mod seq_span in
          ( Codec.encode_peer
              (Codec.P_ack { src = me; inc; target_inc; seq = raw }),
            Chaos.Ack { seq; attempt = next_attempt dst 'a' seq } )
      | Link.Beat ->
          let i = beat_index.(dst) in
          beat_index.(dst) <- i + 1;
          (Codec.encode_peer (Codec.P_beat { src = me; inc }), Chaos.Beat { index = i })
    in
    dispatch ~tick dst bytes kind
  in
  let release_due ~tick =
    let due, rest = List.partition (fun (r, _, _) -> r <= tick) !delayed in
    delayed := rest;
    List.iter (fun (_, dst, bytes) -> send_raw dst bytes) due
  in
  let next_release () =
    List.fold_left (fun acc (r, _, _) -> min acc r) max_int !delayed
  in
  let sleep_s ~deadline =
    boundary_sleep_s ~epoch_ms:cfg.epoch_ms ~tick_ms:cfg.tick_ms
      ~now_ms:(wall_ms ()) ~deadline
  in
  (* --- effect processing ------------------------------------------------ *)
  let work_done = ref [] in
  let terminated = ref false in
  let handle ~tick (eff : _ Engine.effects) =
    List.iter
      (fun (dst, wire) ->
        (match wire with
        | Link.Data { payload; _ } -> observe_ord ~tick ~src:me payload
        | _ -> ());
        transmit ~tick dst wire)
      eff.Engine.sends;
    List.iter
      (fun u ->
        work_done := u :: !work_done;
        mark ~tick "work" ~args:[ ("unit", Dhw_util.Jsonw.Int u) ])
      eff.Engine.work;
    if eff.Engine.terminated then terminated := true
  in
  (* --- incoming path ---------------------------------------------------- *)
  (* the highest incarnation heard from each peer, and whether that
     incarnation has said bye *)
  let peer_inc = Array.make t 0 and said_bye = Array.make t false in
  let is_peer src = src >= 0 && src < t && src <> me in
  let rejoin_if_new ~tick ~src sinc =
    if is_peer src && sinc > peer_inc.(src) then begin
      peer_inc.(src) <- sinc;
      said_bye.(src) <- false;
      Engine.map_state eng (fun st ->
          Link.rejoin ~stats:link_stats st src ~now:tick);
      mark ~tick "rejoin"
        ~args:
          [ ("peer", Dhw_util.Jsonw.Int src); ("inc", Dhw_util.Jsonw.Int sinc) ]
    end
  in
  let deliver ~tick bytes =
    match Codec.decode_peer bytes with
    | exception Wire.Decode _ -> mark ~tick "bad-datagram"
    | msg -> (
        let src, sinc = sender msg in
        rejoin_if_new ~tick ~src sinc;
        match msg with
        | Codec.P_data { seq; ord; _ } ->
            observe_ord ~tick ~src ord;
            let namespaced = (sinc * seq_span) + seq in
            handle ~tick
              (Engine.deliver eng ~now:tick ~src
                 (Link.Data { seq = namespaced; payload = ord }))
        | Codec.P_ack { target_inc; seq; _ } ->
            if target_inc = inc then
              handle ~tick (Engine.deliver eng ~now:tick ~src (Link.Ack seq))
            (* else: an ack addressed to a dead predecessor incarnation *)
        | Codec.P_beat _ ->
            handle ~tick (Engine.deliver eng ~now:tick ~src Link.Beat)
        | Codec.P_bye _ ->
            (* the first copy from the peer's current incarnation is its
               termination notice; later copies and stale ones are not *)
            if is_peer src && sinc = peer_inc.(src) && not said_bye.(src)
            then begin
              said_bye.(src) <- true;
              mark ~tick "bye"
                ~args:
                  [
                    ("peer", Dhw_util.Jsonw.Int src);
                    ("inc", Dhw_util.Jsonw.Int sinc);
                  ];
              handle ~tick (Engine.notice eng ~now:tick src)
            end)
  in
  (* --- clean exit --------------------------------------------------------- *)
  let byes_sent = ref 0 in
  let say_bye ~tick =
    let bytes = Codec.encode_peer (Codec.P_bye { src = me; inc }) in
    for q = 0 to t - 1 do
      if is_peer q && not said_bye.(q) then
        for attempt = 0 to bye_copies - 1 do
          incr byes_sent;
          dispatch ~tick q bytes (Chaos.Bye { attempt })
        done
    done
  in
  (* send every delayed datagram at its release tick: at most
     [max_delay * slow_factor] ticks *)
  let rec flush () =
    if !delayed <> [] then begin
      (try Unix.sleepf (sleep_s ~deadline:(next_release ()))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      release_due ~tick:(now_tick ());
      flush ()
    end
  in
  (* --- suspect / park bookkeeping --------------------------------------- *)
  let seen_suspects = ref 0 and seen_unsuspects = ref 0 in
  let drain_detector_logs () =
    let log_new seen log name =
      let len = List.length log in
      let fresh = len - !seen in
      if fresh > 0 then begin
        List.iteri
          (fun i (_, peer, tick) ->
            if i < fresh then
              mark ~tick name ~args:[ ("peer", Dhw_util.Jsonw.Int peer) ])
          log;
        seen := len
      end
    in
    log_new seen_suspects link_stats.Link.suspect_log "suspect";
    log_new seen_unsuspects link_stats.Link.unsuspect_log "unsuspect"
  in
  let parked = ref false and parks = ref 0 in
  let check_park ~tick =
    let suspects = Link.suspects (Engine.state eng) in
    let all_peers_gone = t > 1 && List.length suspects >= t - 1 in
    if all_peers_gone && not !parked then begin
      parked := true;
      incr parks;
      persist ~tick;
      mark ~tick "park"
    end
    else if (not all_peers_gone) && !parked then begin
      parked := false;
      mark ~tick "unpark"
    end
  in
  (* --- main loop --------------------------------------------------------- *)
  let start_ms = wall_ms () -. cfg.epoch_ms in
  let start_tick = now_tick () in
  mark ~tick:start_tick "start"
    ~args:[ ("recover", Dhw_util.Jsonw.Bool cfg.recover) ];
  handle ~tick:start_tick (Engine.start eng ~now:start_tick);
  let rec loop () =
    if !terminated then ()
    else
      let tick = now_tick () in
      if tick > cfg.max_ticks then ()
      else begin
        release_due ~tick;
        handle ~tick (Engine.advance eng ~now:tick);
        drain_detector_logs ();
        check_park ~tick;
        (* sleep until the start of the tick of the next engine wakeup or
           delayed release, capped so arrivals stay responsive *)
        let deadline =
          min
            (match Engine.next_wakeup eng with None -> max_int | Some w -> w)
            (next_release ())
        in
        (match Mesh.recv mesh ~timeout_s:(sleep_s ~deadline) with
        | Some bytes ->
            deliver ~tick:(now_tick ()) bytes;
            (* drain whatever else is queued without sleeping *)
            let rec drain () =
              match Mesh.recv mesh ~timeout_s:0.0 with
              | Some b ->
                  deliver ~tick:(now_tick ()) b;
                  drain ()
              | None -> ()
            in
            drain ()
        | None -> ());
        loop ()
      end
  in
  loop ();
  if !terminated then begin
    say_bye ~tick:(now_tick ());
    flush ()
  end
  else release_due ~tick:(now_tick ());
  let end_tick = now_tick () in
  drain_detector_logs ();
  if !terminated then begin
    persist ~tick:end_tick;
    mark ~tick:end_tick "term"
  end
  else mark ~tick:end_tick "stall";
  let mst = Mesh.stats_of mesh in
  let counters =
    [
      ("pid", me);
      ("inc", inc);
      ("terminated", if !terminated then 1 else 0);
      ("ticks", end_tick - start_tick);
      ("start_ms", int_of_float start_ms);
      ("end_ms", int_of_float (wall_ms () -. cfg.epoch_ms));
      ("work", List.length !work_done);
      ("persists", !persists);
      ("parks", !parks);
      ("data_sent", link_stats.Link.data_sent);
      ("retransmits", link_stats.Link.retransmits);
      ("acks_sent", link_stats.Link.acks_sent);
      ("beats_sent", link_stats.Link.beats_sent);
      ("byes_sent", !byes_sent);
      ("dups_suppressed", link_stats.Link.dups_suppressed);
      ("recoveries", link_stats.Link.recoveries);
      ("suspicions", link_stats.Link.suspicions);
      ("false_suspicions", link_stats.Link.false_suspicions);
      ("unsuspects", link_stats.Link.unsuspects);
      ("abandoned", link_stats.Link.abandoned);
      ("dg_sent", mst.Mesh.datagrams_sent);
      ("dg_received", mst.Mesh.datagrams_received);
      ("undeliverable", mst.Mesh.undeliverable);
      ("chaos_considered", chaos_stats.Chaos.considered);
      ("chaos_dropped", chaos_stats.Chaos.dropped);
      ("chaos_duplicated", chaos_stats.Chaos.duplicated);
      ("chaos_delayed", chaos_stats.Chaos.delayed);
      ("chaos_severed", chaos_stats.Chaos.severed);
    ]
  in
  (* tmp + rename: the collector never sees a torn result *)
  let rp = result_path ~dir:cfg.dir ~pid:me in
  let tmp = rp ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (Codec.encode_counters counters);
  close_out oc;
  Sys.rename tmp rp;
  close_out_noerr tr;
  Mesh.close mesh;
  if !terminated then exit_ok else exit_stalled
