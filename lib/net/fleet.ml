(* The asynchronous fleet runner: spawner, chaos-schedule enforcer and
   collector — everything the orchestrator still is once the control
   plane is gone.

   Unlike [Orchestrator] (the round-lockstep mode), this runner never
   touches protocol traffic: nodes exchange datagrams and heartbeats
   peer-to-peer and detect failures organically. The runner's whole job
   is to (1) spawn one [dhw_node --async] per pid, (2) enforce the
   schedule's crash entries as real SIGKILLs and its restart entries as
   [--recover] respawns at the prescribed ticks, (3) reap children under
   a watchdog, and (4) collect the per-node traces, checkpoints and
   result files into a report judged by the same oracle family the
   async fuzzer uses (completion, no-lost-unit, detector completeness,
   bounded duplication). *)

module C = Simkit.Campaign
module Sf = Dhw_util.Spanfile
module Hist = Dhw_util.Hist

type config = {
  dir : string;
  node_exe : string;
  spec : Doall.Spec.t;
  sched : C.Async.t;
  tick_ms : int;
  watchdog_s : float;
  max_ticks : int;
}

let config ?(tick_ms = Async_node.default_tick_ms) ?(watchdog_s = 90.)
    ?(max_ticks = 20_000) ~dir ~node_exe ~spec ~sched () =
  if tick_ms < 1 then invalid_arg "Fleet.config: tick_ms < 1";
  { dir; node_exe; spec; sched; tick_ms; watchdog_s; max_ticks }

type node_report = {
  nr_pid : int;
  nr_incarnations : int;
  nr_exit : int option;  (* None: killed and never restarted *)
  nr_counters : (string * int) list;  (* empty if no result file *)
}

type report = {
  ok : bool;
  completed : bool;  (* every expected node exited 0 *)
  no_lost_unit : bool;  (* every unit in [0,n) performed by someone *)
  detector_complete : bool;
  bounded_dup : bool;
  units_covered : int;
  max_multiplicity : int;
  total_work : int;
  kills : int;
  restarts : int;
  wall_s : float;
  watchdog_fired : bool;
  nodes : node_report list;
  spans : Sf.span list;  (* merged, all pids and incarnations *)
  detect_hist : Hist.t;  (* kill -> first surviving suspicion, ticks *)
  recover_hist : Hist.t;  (* suspicion -> retraction (false susp.), ticks *)
}

let counter r k = try List.assoc k r with Not_found -> 0

(* ---- child process management ------------------------------------------ *)

type child = {
  pid : int;  (* protocol pid *)
  mutable inc : int;
  mutable os_pid : int option;  (* running child, if any *)
  mutable exit_code : int option;  (* last exit status observed *)
  mutable killed : bool;  (* SIGKILLed by the schedule, not yet respawned *)
}

(* How often the runner looks for exited children between scheduled kills
   and restarts. *)
let reap_poll_s = 0.001

let spawn cfg ~pid ~inc ~recover ~epoch_ms =
  let log =
    Filename.concat cfg.dir (Printf.sprintf "node-p%d-i%d.log" pid inc)
  in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv =
    [
      cfg.node_exe;
      "--async";
      "--dir";
      cfg.dir;
      "--pid";
      string_of_int pid;
      "--units";
      string_of_int (Doall.Spec.n cfg.spec);
      "--procs";
      string_of_int (Doall.Spec.processes cfg.spec);
      "--plan";
      Filename.concat cfg.dir "schedule.txt";
      "--tick-ms";
      string_of_int cfg.tick_ms;
      "--epoch-ms";
      Printf.sprintf "%.3f" epoch_ms;
      "--incarnation";
      string_of_int inc;
      "--max-ticks";
      string_of_int cfg.max_ticks;
    ]
    @ (if recover then [ "--recover" ] else [])
  in
  let os_pid =
    Unix.create_process cfg.node_exe (Array.of_list argv) Unix.stdin fd fd
  in
  Unix.close fd;
  os_pid

(* ---- oracle evaluation over the merged trace --------------------------- *)

let eval_traces cfg ~kill_windows spans =
  let n = Doall.Spec.n cfg.spec in
  let mult = Array.make n 0 in
  List.iter
    (fun (s : Sf.span) ->
      if s.Sf.name = "work" then
        match List.assoc_opt "unit" s.Sf.args with
        | Some (Dhw_util.Jsonw.Int u) when u >= 0 && u < n ->
            mult.(u) <- mult.(u) + 1
        | _ -> ())
    spans;
  let units_covered = Array.fold_left (fun a m -> if m > 0 then a + 1 else a) 0 mult in
  let max_multiplicity = Array.fold_left max 0 mult in
  let total_work = Array.fold_left ( + ) 0 mult in
  (* detector completeness: for every kill window long enough for the
     timeout to fire, some survivor logged a suspicion of the victim
     inside (or shortly after) the window *)
  let suspected_in victim from_ to_ =
    List.exists
      (fun (s : Sf.span) ->
        s.Sf.name = "suspect"
        && s.Sf.pid <> victim
        && s.Sf.round >= from_
        && s.Sf.round <= to_
        && List.assoc_opt "peer" s.Sf.args = Some (Dhw_util.Jsonw.Int victim))
      spans
  in
  let detector_complete =
    List.for_all
      (fun (victim, from_, to_, min_window) ->
        to_ - from_ < min_window || suspected_in victim from_ (to_ + min_window))
      kill_windows
  in
  (units_covered, max_multiplicity, total_work, detector_complete)

(* detection/recovery latency histograms from the suspect/unsuspect spans;
   [kill_incs] maps each kill that landed, as (tick, victim), to the
   incarnation it hit *)
let latency_hists ~kill_windows ~kill_incs spans =
  let detect = Hist.create () and recover = Hist.create () in
  let by_peer name =
    List.filter_map
      (fun (s : Sf.span) ->
        match (s.Sf.name = name, List.assoc_opt "peer" s.Sf.args) with
        | true, Some (Dhw_util.Jsonw.Int p) -> Some (s, p)
        | _ -> None)
      spans
  in
  let ticked name =
    List.map (fun ((s : Sf.span), p) -> (s.Sf.pid, p, s.Sf.round)) (by_peer name)
  in
  let suspects = ticked "suspect" and unsuspects = ticked "unsuspect" in
  let rejoins =
    List.filter_map
      (fun ((s : Sf.span), p) ->
        match List.assoc_opt "inc" s.Sf.args with
        | Some (Dhw_util.Jsonw.Int inc) -> Some (s.Sf.pid, p, inc, s.Sf.round)
        | _ -> None)
      (by_peer "rejoin")
  in
  (* kill -> earliest suspicion by a survivor that has not yet heard from a
     later incarnation of the victim: once it has, its suspicions are of
     that incarnation, not of the one the kill hit *)
  List.iter
    (fun (victim, from_, _, _) ->
      match List.assoc_opt (from_, victim) kill_incs with
      | None -> ()
      | Some hit ->
          let rejoined_later o tick =
            List.exists
              (fun (o', p, inc, t_r) ->
                o' = o && p = victim && inc > hit && t_r < tick)
              rejoins
          in
          let firsts =
            List.filter_map
              (fun (o, p, tick) ->
                if
                  p = victim && o <> victim && tick >= from_
                  && not (rejoined_later o tick)
                then Some tick
                else None)
              suspects
          in
          if firsts <> [] then
            Hist.record detect (List.fold_left min max_int firsts - from_))
    kill_windows;
  (* suspicion episode -> retraction, per (observer, peer) *)
  List.iter
    (fun (o, p, t_s) ->
      let retractions =
        List.filter_map
          (fun (o', p', t_u) ->
            if o' = o && p' = p && t_u >= t_s then Some t_u else None)
          unsuspects
      in
      match retractions with
      | [] -> ()
      | ts -> Hist.record recover (List.fold_left min max_int ts - t_s))
    suspects;
  (detect, recover)

(* ---- the run ------------------------------------------------------------ *)

let run cfg =
  let t = Doall.Spec.processes cfg.spec in
  if not (Sys.file_exists cfg.dir) then Unix.mkdir cfg.dir 0o755;
  (* the schedule is the single source of truth for nodes and runner both *)
  let sched_path = Filename.concat cfg.dir "schedule.txt" in
  let oc = open_out sched_path in
  output_string oc (C.Async.print cfg.sched);
  close_out oc;
  let epoch_ms = Unix.gettimeofday () *. 1000.0 in
  let tick_of_wall () =
    int_of_float ((Unix.gettimeofday () *. 1000.0 -. epoch_ms) /. float_of_int cfg.tick_ms)
  in
  let children =
    Array.init t (fun pid ->
        { pid; inc = 0; os_pid = None; exit_code = None; killed = false })
  in
  Array.iter
    (fun c -> c.os_pid <- Some (spawn cfg ~pid:c.pid ~inc:0 ~recover:false ~epoch_ms))
    children;
  let kills =
    ref
      (List.sort compare
         (List.map (fun c -> (c.C.Async.at, c.C.Async.victim)) cfg.sched.C.Async.crashes))
  in
  let restarts =
    ref
      (List.sort compare
         (List.map (fun c -> (c.C.Async.at, c.C.Async.victim)) cfg.sched.C.Async.restarts))
  in
  let n_kills = List.length !kills and n_restarts = List.length !restarts in
  let watchdog_fired = ref false in
  let deadline = Unix.gettimeofday () +. cfg.watchdog_s in
  (* the incarnation each kill, as (tick, victim), was aimed at *)
  let kill_incs = ref [] in
  let reap () =
    Array.iter
      (fun c ->
        match c.os_pid with
        | None -> ()
        | Some os -> (
            match Unix.waitpid [ Unix.WNOHANG ] os with
            | 0, _ -> ()
            | _, Unix.WEXITED code ->
                c.os_pid <- None;
                c.exit_code <- Some code
            | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
                c.os_pid <- None;
                c.exit_code <- Some 137
            | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                c.os_pid <- None))
      children
  in
  let enforce now =
    let due, later = List.partition (fun (at, _) -> at <= now) !kills in
    kills := later;
    List.iter
      (fun ((_, victim) as kill) ->
        let c = children.(victim) in
        (match c.os_pid with
        | Some os -> ( try Unix.kill os Sys.sigkill with Unix.Unix_error _ -> ())
        | None -> ());
        kill_incs := (kill, c.inc) :: !kill_incs;
        c.killed <- true)
      due;
    let due, later = List.partition (fun (at, _) -> at <= now) !restarts in
    restarts := later;
    List.iter
      (fun (_, victim) ->
        let c = children.(victim) in
        (* only respawn something actually down; reap first so a SIGKILL
           issued moments ago has been collected *)
        if c.os_pid = None || c.killed then begin
          (match c.os_pid with
          | Some os ->
              (try Unix.kill os Sys.sigkill with Unix.Unix_error _ -> ());
              (try ignore (Unix.waitpid [] os) with Unix.Unix_error _ -> ())
          | None -> ());
          c.inc <- c.inc + 1;
          c.killed <- false;
          c.os_pid <-
            Some (spawn cfg ~pid:c.pid ~inc:c.inc ~recover:true ~epoch_ms)
        end)
      due
  in
  let all_settled () =
    !kills = [] && !restarts = []
    && Array.for_all (fun c -> c.os_pid = None) children
  in
  (* sleep to the start of the next scheduled kill or restart tick, but
     look for exited children every [reap_poll_s] *)
  let sleep_s () =
    let first = function (at, _) :: _ -> at | [] -> max_int in
    let next = min (first !kills) (first !restarts) in
    let until_ms = epoch_ms +. (float_of_int next *. float_of_int cfg.tick_ms) in
    Float.min reap_poll_s
      (Float.max 0. ((until_ms -. (Unix.gettimeofday () *. 1000.0)) /. 1000.))
  in
  let rec drive () =
    reap ();
    enforce (tick_of_wall ());
    if all_settled () then ()
    else if Unix.gettimeofday () > deadline then begin
      watchdog_fired := true;
      Array.iter
        (fun c ->
          match c.os_pid with
          | Some os -> ( try Unix.kill os Sys.sigkill with Unix.Unix_error _ -> ())
          | None -> ())
        children;
      reap ()
    end
    else begin
      (try ignore (Unix.select [] [] [] (sleep_s ())) with Unix.Unix_error _ -> ());
      drive ()
    end
  in
  drive ();
  let wall_s = (Unix.gettimeofday () *. 1000.0 -. epoch_ms) /. 1000.0 in
  (* ---- collection ------------------------------------------------------ *)
  let spans =
    let files = Sys.readdir cfg.dir in
    Array.to_list files
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "trace-"
           && Filename.check_suffix f ".jsonl")
    |> List.sort compare
    |> List.map (fun f ->
           match Sf.read_file (Filename.concat cfg.dir f) with
           | Ok { Sf.spans; _ } -> spans
           | Error _ -> [])
    |> Sf.merge
  in
  let nodes =
    Array.to_list children
    |> List.map (fun c ->
           let counters =
             match
               let p = Async_node.result_path ~dir:cfg.dir ~pid:c.pid in
               if Sys.file_exists p then (
                 let ic = open_in_bin p in
                 let len = in_channel_length ic in
                 let s = really_input_string ic len in
                 close_in ic;
                 Some s)
               else None
             with
             | Some s -> ( try Codec.decode_counters s with Wire.Decode _ -> [])
             | None -> []
           in
           {
             nr_pid = c.pid;
             nr_incarnations = c.inc + 1;
             nr_exit = c.exit_code;
             nr_counters = counters;
           })
  in
  (* ---- oracles --------------------------------------------------------- *)
  (* a node killed and never respawned is excused from terminating; every
     other node must have exited 0 *)
  let completed =
    (not !watchdog_fired)
    && Array.for_all
         (fun c -> c.killed || c.exit_code = Some 0)
         children
  in
  (* kill windows: victim dead from its kill tick until its restart tick
     (or the end of the run). A window must exceed the detector timeout
     plus slack before completeness is demanded of it. *)
  let end_tick = tick_of_wall () in
  let min_window = 240 in
  (* A kill that finds its victim exited 0, or exiting, is excused: a
     survivor that heard the bye of the incarnation it hit stopped
     monitoring it, and owes no suspicion. *)
  let said_bye victim inc =
    List.exists
      (fun (s : Sf.span) ->
        s.Sf.name = "bye" && s.Sf.pid <> victim
        && List.assoc_opt "peer" s.Sf.args = Some (Dhw_util.Jsonw.Int victim)
        && List.assoc_opt "inc" s.Sf.args = Some (Dhw_util.Jsonw.Int inc))
      spans
  in
  let kill_windows =
    List.filter_map
      (fun (k : C.Async.crash) ->
        let victim = k.C.Async.victim and at = k.C.Async.at in
        let until =
          List.fold_left
            (fun acc (r : C.Async.crash) ->
              if r.C.Async.victim = victim && r.C.Async.at > at then
                min acc r.C.Async.at
              else acc)
            end_tick cfg.sched.C.Async.restarts
        in
        match List.assoc_opt (at, victim) !kill_incs with
        | Some inc when said_bye victim inc -> None
        | _ -> Some (victim, at, until, min_window))
      cfg.sched.C.Async.crashes
  in
  let units_covered, max_multiplicity, total_work, detector_complete =
    eval_traces cfg ~kill_windows spans
  in
  let no_lost_unit = units_covered = Doall.Spec.n cfg.spec in
  (* per-unit multiplicity below the incarnation count (Recovery's bound) *)
  let bounded_dup = max_multiplicity <= t + n_restarts in
  let detect_hist, recover_hist =
    latency_hists ~kill_windows ~kill_incs:!kill_incs spans
  in
  {
    ok = completed && no_lost_unit && detector_complete && bounded_dup;
    completed;
    no_lost_unit;
    detector_complete;
    bounded_dup;
    units_covered;
    max_multiplicity;
    total_work;
    kills = n_kills;
    restarts = n_restarts;
    wall_s;
    watchdog_fired = !watchdog_fired;
    nodes;
    spans;
    detect_hist;
    recover_hist;
  }
