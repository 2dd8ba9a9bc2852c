(* The five benchmark workloads.

   Each workload is a closed loop driven by [perf.ml]: a rep is built by
   [setup] (timed as set-up), executed (timed as the rep), then cleaned
   up, and the next rep starts only after that. Reps of one run share the
   seed, so an exact count repeats exactly from rep to rep.

   The benchmark calls only the public entry points of each layer —
   [Doall.Runner.run], the four campaign functions, [Dhw_net.Fleet.run] —
   and measures layers from outside: a traced rep hands a span sink to
   [Runner.run], or wraps campaign executions and oracle checks in its
   own timers, or reads the fleet's report. *)

open Perfbench
module Hist = Dhw_util.Hist
module Sf = Dhw_util.Spanfile
module Prng = Dhw_util.Prng
module C = Simkit.Campaign
module CA = Simkit.Campaign.Async
module M = Simkit.Metrics
module Fl = Dhw_net.Fleet

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9
let ns_since t0 = Int64.to_int (Int64.sub (now_ns ()) t0)

type size = Full | Toy

(* ---- per-run accumulators ------------------------------------------- *)

(* What the reps of one run leave behind for the per-layer metrics:
   kernel spans folded by [Span_agg], named sums and named nanosecond
   histograms, and the first spans kept for the Chrome export. Untraced
   and traced reps of a run write to separate probes. *)
type probe = {
  traced : bool;
  agg : Span_agg.t;
  sums : (string, float) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
  mutable spans : Sf.span list;  (* newest first, at most [keep_spans] *)
  mutable n_spans : int;
}

let keep_spans = 20_000

let probe ~traced =
  {
    traced;
    agg = Span_agg.create ~keep:(if traced then keep_spans else 0) ();
    sums = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    spans = [];
    n_spans = 0;
  }

let sum p k = Option.value (Hashtbl.find_opt p.sums k) ~default:0.
let add p k v = Hashtbl.replace p.sums k (sum p k +. v)
let addi p k v = add p k (float_of_int v)

let hist p k =
  match Hashtbl.find_opt p.hists k with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add p.hists k h;
      h

let keep_span p s =
  if p.traced && p.n_spans < keep_spans then begin
    p.spans <- s :: p.spans;
    p.n_spans <- p.n_spans + 1
  end

let chrome_spans p = Span_agg.kept p.agg @ List.rev p.spans

(* ---- the workload interface ----------------------------------------- *)

type outcome = {
  units : int;  (* Do-All units completed: n per execution *)
  execs : int;  (* executions attempted *)
  failed : int;  (* executions that failed their correctness check *)
  effort : int;  (* work + messages, summed over the rep *)
}

let no_outcome = { units = 0; execs = 0; failed = 0; effort = 0 }

let ( ++ ) a b =
  {
    units = a.units + b.units;
    execs = a.execs + b.execs;
    failed = a.failed + b.failed;
    effort = a.effort + b.effort;
  }

type prepared = { run : probe -> outcome; cleanup : unit -> unit }

(* What [layers] sees once the run is over. *)
type run_view = {
  untraced_probe : probe;
  traced_probe : probe;
  n_untraced : int;
  n_traced : int;
  untraced_wall_s : float;  (* median untraced rep *)
  traced_wall_s : float;  (* mean traced rep: the attribution base *)
  words : float;  (* median minor-heap words per untraced rep *)
}

type layer = { l_name : string; l_value : float; l_exact : bool }

let measured l_name l_value = { l_name; l_value; l_exact = false }
let exact l_name l_value = { l_name; l_value; l_exact = true }

type t = {
  exact_effort : bool;  (* effort is a deterministic function of the seed *)
  setup : unit -> prepared;
  layers : run_view -> layer list;
}

let per n x = if n = 0 then 0. else x /. float_of_int n
let ratio a b = if b = 0. then 0. else a /. b
let us_or_zero = function Some v -> v | None -> 0.
let overhead v = ratio v.traced_wall_s v.untraced_wall_s -. 1.

(* ---- simulated workloads: ff-scale, crash-storm, agreement ----------- *)

(* One rep runs each protocol once through [Runner.run]; a traced rep
   passes a [Span_agg] sink as [?spans], so the kernel's round / step /
   deliver spans are folded as they are emitted. *)
let sim ~n ~t ~protocols ~fault =
  let setup () =
    let spec = Doall.Spec.make ~n ~t in
    let plans = List.map (fun p -> (p, fault ())) protocols in
    let run probe =
      let spans = if probe.traced then Some (Span_agg.sink probe.agg) else None in
      List.fold_left
        (fun acc (proto, fault) ->
          let r = Doall.Runner.run ?fault ?spans spec proto in
          let m = r.Doall.Runner.metrics in
          addi probe "work" (M.work m);
          addi probe "messages" (M.messages m);
          addi probe "crashes" (M.crashes m);
          acc
          ++ {
               units = n;
               execs = 1;
               failed = (if Doall.Runner.correct r then 0 else 1);
               effort = M.effort m;
             })
        no_outcome plans
    in
    { run; cleanup = ignore }
  in
  let layers v =
    let a = v.traced_probe.agg and nt = v.n_traced in
    let rounds = per nt (float_of_int (Span_agg.count a "round")) in
    let steps = Span_agg.durations_ns a "step" in
    let s name = per nt (Span_agg.self_us a name /. 1e6) in
    [
      measured "kernel.round_self_s" (s "round");
      measured "kernel.deliver_s" (s "deliver");
      measured "protocol.step_s" (s "step");
      measured "kernel.outside_rounds_s"
        (v.traced_wall_s -. per nt (Span_agg.total_us a "round" /. 1e6));
      exact "kernel.rounds_processed" rounds;
      exact "kernel.steps" (per nt (float_of_int (Span_agg.count a "step")));
      (* one domain replaying one seed allocates the same words every rep *)
      exact "kernel.words_per_round" (ratio v.words rounds);
      exact "protocol.words_per_msg"
        (ratio v.words (per v.n_untraced (sum v.untraced_probe "messages")));
      measured "protocol.step_us_p50" (us_or_zero (Stats.hist_us ~q:0.5 steps));
      measured "protocol.step_us_p99" (us_or_zero (Stats.hist_us ~q:0.99 steps));
      exact "protocol.useful_frac"
        (ratio (sum v.untraced_probe "units") (sum v.untraced_probe "work"));
      exact "fault.crashes" (per v.n_untraced (sum v.untraced_probe "crashes"));
      measured "trace.overhead_frac" (overhead v);
    ]
  in
  { exact_effort = true; setup; layers }

let ff_scale size ~seed:_ =
  let n, t = match size with Full -> (2_000_000, 1000) | Toy -> (20_000, 100) in
  sim ~n ~t
    ~protocols:[ Doall.Protocol_a.protocol; Doall.Protocol_b.protocol ]
    ~fault:(fun () -> None)

let crash_storm size ~seed =
  let n, t = match size with Full -> (25_000, 250) | Toy -> (2_000, 40) in
  sim ~n ~t
    ~protocols:[ Doall.Protocol_a.protocol; Doall.Protocol_b.protocol ]
    ~fault:(fun () ->
      Some
        (Simkit.Fault.crash_active_after_random_work ~seed ~min_units:25
           ~max_units:75 ~max_crashes:(t - 1)))

let agreement size ~seed:_ =
  let n, t = match size with Full -> (1_000_000, 500) | Toy -> (10_000, 40) in
  sim ~n ~t ~protocols:[ Doall.Protocol_d.protocol ]
    ~fault:(fun () -> None)

(* ---- campaign ------------------------------------------------------- *)

let jobs = 2

(* A last oracle that always passes, counting the executions that got that
   far (every earlier oracle passed) and their work and effort. It runs on
   the pool's worker domains, hence the atomics. *)
type tally = { passes : int Atomic.t; work : int Atomic.t; effort : int Atomic.t }

let tally () = { passes = Atomic.make 0; work = Atomic.make 0; effort = Atomic.make 0 }

let tally_oracle tl metrics_of =
  {
    C.name = "perf-tally";
    check =
      (fun s ->
        let m = metrics_of s in
        Atomic.incr tl.passes;
        ignore (Atomic.fetch_and_add tl.work (M.work m));
        ignore (Atomic.fetch_and_add tl.effort (M.effort m));
        C.Pass);
  }

(* One campaign family, driven the way its public campaign function
   drives it: schedules drawn sequentially from one seeded generator,
   executed and judged by [Campaign.run_parallel]. *)
type ('s, 'r) family = {
  fam : string;
  spec : Doall.Spec.t;
  executions : int;
  fam_seed : int64;
  campaign : executions:int -> seed:int64 -> extra:'r C.oracle list -> int;
      (* the public campaign function; returns the schedules judged *)
  sample : Prng.t -> 's;
  exec : 's -> 'r;
  oracles : 'r C.oracle list;
  candidates : 's -> 's Seq.t;
  metrics_of : 'r -> M.t;
  observe : 'r -> (string * int) list;  (* per-execution counters *)
}

type any_family = Family : ('s, 'r) family -> any_family

let family_outcome probe f tl ~schedules =
  addi probe "work" (Atomic.get tl.work);
  {
    units = Doall.Spec.n f.spec * schedules;
    execs = schedules;
    failed = schedules - Atomic.get tl.passes;
    effort = Atomic.get tl.effort;
  }

let run_family_untraced probe (Family f) =
  let tl = tally () in
  let schedules =
    f.campaign ~executions:f.executions ~seed:f.fam_seed
      ~extra:[ tally_oracle tl f.metrics_of ]
  in
  family_outcome probe f tl ~schedules

(* The traced mirror: every execution and every oracle check is timed,
   with the execution index as the id shared by its exec and judge spans. *)
let run_family_traced probe ~index (Family f) =
  let g = Prng.create f.fam_seed in
  let scheds =
    Array.init f.executions (fun i ->
        let t0 = now_ns () in
        let s = f.sample g in
        Hist.record (hist probe "campaign.sample") (ns_since t0);
        (i, s))
  in
  let count = Array.length scheds in
  (* written per execution index from the pool's domains: no two tasks
     share a cell *)
  let exec_start = Array.make count 0L and exec_ns = Array.make count 0 in
  let judge_ns = Array.make count 0 in
  let observed = Array.make count [] in
  let run (i, s) =
    let t0 = now_ns () in
    let r = f.exec s in
    exec_start.(i) <- t0;
    exec_ns.(i) <- ns_since t0;
    observed.(i) <- f.observe r;
    (i, r)
  in
  let timed (o : _ C.oracle) =
    {
      o with
      C.check =
        (fun (i, r) ->
          let t0 = now_ns () in
          let v = o.C.check r in
          judge_ns.(i) <- judge_ns.(i) + ns_since t0;
          v);
    }
  in
  let tl = tally () in
  let oracles =
    List.map timed f.oracles @ [ tally_oracle tl (fun (_, r) -> f.metrics_of r) ]
  in
  let t0 = now_ns () in
  let stats =
    C.run_parallel ~jobs ~run ~oracles
      ~candidates:(fun (i, s) -> Seq.map (fun s -> (i, s)) (f.candidates s))
      ~max_failures:0 (Array.to_seq scheds)
  in
  add probe "pool.wall_s" (seconds_since t0);
  Array.iteri
    (fun i ns ->
      Hist.record (hist probe ("fuzz." ^ f.fam ^ ".exec")) ns;
      Hist.record (hist probe "fuzz.exec") ns;
      Hist.record (hist probe "oracle.judge") judge_ns.(i);
      add probe "exec_s" (float_of_int ns /. 1e9);
      add probe "judge_s" (float_of_int judge_ns.(i) /. 1e9);
      List.iter (fun (k, v) -> addi probe k v) observed.(i);
      let ts_us = Int64.to_float (Int64.sub exec_start.(i) t0) /. 1e3 in
      let span name ts dur =
        keep_span probe
          {
            Sf.name;
            src = "perf";
            pid = index;
            inc = 0;
            round = i;
            ts_us = ts;
            dur_us = float_of_int dur /. 1e3;
            args = [ ("family", Dhw_util.Jsonw.Str f.fam) ];
          }
      in
      span "exec" ts_us ns;
      span "judge" (ts_us +. (float_of_int ns /. 1e3)) judge_ns.(i))
    exec_ns;
  family_outcome probe f tl ~schedules:stats.C.schedules

let campaign size ~seed =
  let scale k = match size with Full -> k | Toy -> max 10 (k / 25) in
  (* per-family seeds, independent of one another and of the family order *)
  let fam_seed i = Prng.next_int64 (Prng.stream seed i) in
  let setup () =
    let a_spec = Doall.Spec.make ~n:400 ~t:25 in
    let byz_spec = Doall.Spec.make ~n:60 ~t:15 in
    let async_spec = Doall.Spec.make ~n:160 ~t:16 in
    let a = Doall.Protocol_a.protocol in
    let rounds (r : Doall.Runner.report) = M.rounds r.Doall.Runner.metrics in
    (* the crash windows the campaign functions default to, computed once
       here and passed explicitly so the traced mirror uses the same *)
    let a_window = (2 * rounds (Doall.Runner.run a_spec a)) + 2 in
    let rec_window =
      (2 * rounds (Doall.Recovery.run a_spec Doall.Recovery.A)) + 2
    in
    let byz_window = (2 * rounds (Doall.Validate.run_unhardened byz_spec)) + 2 in
    let async_window = Asim.Async_fuzz.default_window async_spec in
    (* recovery_campaign's horizon and round cap at its default restart
       gap of 6, for the traced mirror *)
    let rec_horizon = rec_window + 32 in
    let rec_max_rounds =
      rec_horizon
      + (2 * Doall.Spec.processes a_spec
         * Doall.Bounds.a_rounds (Doall.Grid.make a_spec))
      + 64
    in
    let sync_metrics (s : Doall.Fuzz.subject) = s.Doall.Fuzz.report.Doall.Runner.metrics in
    let families =
      [
        Family
          {
            fam = "crash";
            spec = a_spec;
            executions = scale 1000;
            fam_seed = fam_seed 0;
            campaign =
              (fun ~executions ~seed ~extra ->
                (Doall.Fuzz.campaign ~jobs ~seed ~executions
                   ~window:a_window ~extra
                   ~max_failures:0 a_spec a)
                  .C.schedules);
            sample =
              (fun g ->
                Doall.Fuzz.stamp a_spec a
                  (C.sample g ~t:(Doall.Spec.processes a_spec) ~window:a_window));
            exec = Doall.Fuzz.run_schedule a_spec a;
            oracles = Doall.Fuzz.oracles a_spec ~protocol:"a";
            candidates = C.schedule_candidates;
            metrics_of = sync_metrics;
            observe = (fun _ -> []);
          };
        Family
          {
            fam = "recovery";
            spec = a_spec;
            executions = scale 500;
            fam_seed = fam_seed 1;
            campaign =
              (fun ~executions ~seed ~extra ->
                (Doall.Fuzz.recovery_campaign ~jobs ~seed ~executions
                   ~window:rec_window ~extra
                   ~max_failures:0 a_spec Doall.Recovery.A)
                  .C.schedules);
            sample =
              (fun g ->
                Doall.Fuzz.recovery_stamp a_spec Doall.Recovery.A
                  (C.sample_recovery g ~t:(Doall.Spec.processes a_spec)
                     ~window:rec_window ~restart_gap:6));
            exec =
              Doall.Fuzz.run_recovery_schedule ~max_rounds:rec_max_rounds a_spec
                Doall.Recovery.A;
            oracles =
              Doall.Fuzz.recovery_oracles a_spec Doall.Recovery.A
                ~horizon:rec_horizon;
            candidates = C.schedule_candidates;
            metrics_of = sync_metrics;
            observe = (fun _ -> []);
          };
        Family
          {
            fam = "byz";
            spec = byz_spec;
            executions = scale 500;
            fam_seed = fam_seed 2;
            campaign =
              (fun ~executions ~seed ~extra ->
                (Doall.Fuzz.byz_campaign ~jobs ~seed ~executions
                   ~window:byz_window ~extra
                   ~max_failures:0 byz_spec Doall.Fuzz.Hardened)
                  .C.schedules);
            sample =
              (fun g ->
                let t = Doall.Spec.processes byz_spec in
                Doall.Fuzz.byz_stamp byz_spec Doall.Fuzz.Hardened
                  (C.sample_byz g ~t ~window:byz_window
                     ~byz:(min (max 0 ((t / 3) - 1)) (t - 1))));
            exec =
              Doall.Fuzz.run_byz_schedule
                ~max_rounds:(Doall.Fuzz.byz_max_rounds byz_spec ~window:byz_window)
                byz_spec Doall.Fuzz.Hardened;
            oracles = Doall.Fuzz.byz_oracles byz_spec ~hardening:Doall.Fuzz.Hardened;
            candidates = C.schedule_candidates;
            metrics_of = sync_metrics;
            observe = (fun _ -> []);
          };
        Family
          {
            fam = "async";
            spec = async_spec;
            executions = scale 500;
            fam_seed = fam_seed 3;
            campaign =
              (fun ~executions ~seed ~extra ->
                (Asim.Async_fuzz.campaign ~jobs ~seed ~executions
                   ~window:async_window ~extra
                   ~max_failures:0 async_spec)
                  .C.schedules);
            sample =
              (fun g ->
                Asim.Async_fuzz.stamp async_spec
                  (CA.sample g ~t:(Doall.Spec.processes async_spec)
                     ~window:async_window));
            exec = Asim.Async_fuzz.run_schedule async_spec;
            oracles = Asim.Async_fuzz.oracles ();
            candidates = CA.candidates;
            metrics_of = (fun s -> s.Asim.Async_fuzz.result.Asim.Event_sim.metrics);
            observe =
              (fun s ->
                let st = s.Asim.Async_fuzz.stats in
                [
                  ("async.execs", 1);
                  ("async.retransmits", st.Asim.Link.retransmits);
                  ("async.false_suspicions", st.Asim.Link.false_suspicions);
                ]);
          };
      ]
    in
    let run probe =
      List.fold_left ( ++ ) no_outcome
        (List.mapi
           (fun index f ->
             if probe.traced then run_family_traced probe ~index f
             else run_family_untraced probe f)
           families)
    in
    { run; cleanup = ignore }
  in
  let layers v =
    let p = v.traced_probe in
    let busy = sum p "exec_s" +. sum p "judge_s" in
    let p50 k = us_or_zero (Stats.hist_us ~q:0.5 (hist p k)) in
    [
      measured "campaign.sample_us_p50" (p50 "campaign.sample");
      measured "fuzz.crash.exec_us_p50" (p50 "fuzz.crash.exec");
      measured "fuzz.recovery.exec_us_p50" (p50 "fuzz.recovery.exec");
      measured "fuzz.byz.exec_us_p50" (p50 "fuzz.byz.exec");
      measured "fuzz.async.exec_us_p50" (p50 "fuzz.async.exec");
      measured "fuzz.exec_us_p99" (us_or_zero (Stats.hist_us ~q:0.99 (hist p "fuzz.exec")));
      measured "oracle.judge_us_p50" (p50 "oracle.judge");
      measured "oracle.share" (ratio (sum p "judge_s") busy);
      measured "pool.busy_frac" (ratio busy (float_of_int jobs *. sum p "pool.wall_s"));
      exact "asim.link.retransmits_per_exec"
        (ratio (sum p "async.retransmits") (sum p "async.execs"));
      exact "asim.hb.false_suspicions_per_exec"
        (ratio (sum p "async.false_suspicions") (sum p "async.execs"));
      exact "protocol.useful_frac" (ratio (sum p "units") (sum p "work"));
      measured "trace.overhead_frac" (overhead v);
    ]
  in
  { exact_effort = true; setup; layers }

(* ---- fleet ---------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* The fleet's counters, summed over the nodes' final incarnations and
   named by layer. *)
let fleet_counters =
  [
    ("link.data_sent", "data_sent");
    ("link.retransmits", "retransmits");
    ("link.acks_sent", "acks_sent");
    ("hb.beats_sent", "beats_sent");
    ("hb.false_suspicions", "false_suspicions");
    ("mesh.dg_sent", "dg_sent");
    ("mesh.undeliverable", "undeliverable");
    ("chaos.dropped", "chaos_dropped");
    ("ckpt.persists", "persists");
  ]

let fleet size ~seed =
  (* E24's storm: two waiters SIGKILLed and respawned with --recover, at
     ticks scaled to n (80/160 and 320/360 at n=400) so kills hit passive
     waiters and respawns land before pid 0 finishes *)
  let n = match size with Full -> 400 | Toy -> 60 in
  let t = 3 in
  let at k = n * k / 20 in
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/dhw_node.exe"
  in
  if not (Sys.file_exists exe) then failwith (exe ^ " not found");
  let serial = ref 0 in
  let setup () =
    (* a fresh run directory per rep, in the working directory (relative,
       so the unix socket paths inside stay short); Fleet.run creates it *)
    incr serial;
    let dir = Printf.sprintf ".perf-fleet-%d-%d" (Unix.getpid ()) !serial in
    let sched =
      CA.make
        ~meta:[ ("protocol", "async-a"); ("n", string_of_int n); ("t", string_of_int t) ]
        ~crashes:[ { CA.victim = 1; at = at 4 }; { CA.victim = 2; at = at 8 } ]
        ~restarts:[ { CA.victim = 1; at = at 16 }; { CA.victim = 2; at = at 18 } ]
        ~drop_bp:1000 ~seed ()
    in
    let cfg = Fl.config ~dir ~node_exe:exe ~spec:(Doall.Spec.make ~n ~t) ~sched () in
    let run probe =
      let t0 = Unix.gettimeofday () in
      let r = Fl.run cfg in
      let t1 = Unix.gettimeofday () in
      let total k =
        List.fold_left (fun a nr -> a + Fl.counter nr.Fl.nr_counters k) 0 r.Fl.nodes
      in
      List.iter (fun (name, key) -> addi probe name (total key)) fleet_counters;
      addi probe "work" r.Fl.total_work;
      addi probe "ticks" (total "ticks");
      addi probe "node_ms" (total "end_ms" - total "start_ms");
      let marks name =
        List.filter_map
          (fun (s : Sf.span) -> if s.Sf.name = name then Some s.Sf.ts_us else None)
          r.Fl.spans
      in
      (match (marks "start", marks "term") with
      | (_ :: _ as starts), (_ :: _ as terms) ->
          add probe "spawn_ms"
            ((List.fold_left Float.min infinity starts /. 1e3) -. (t0 *. 1e3));
          add probe "collect_ms"
            ((t1 *. 1e3) -. (List.fold_left Float.max 0. terms /. 1e3))
      | _ -> ());
      let detect = hist probe "detect_ticks" in
      Hashtbl.replace probe.hists "detect_ticks" (Hist.merge detect r.Fl.detect_hist);
      List.iter (keep_span probe) r.Fl.spans;
      let messages =
        total "data_sent" + total "retransmits" + total "acks_sent"
        + total "beats_sent"
      in
      {
        units = n;
        execs = 1;
        failed = (if r.Fl.ok && not r.Fl.watchdog_fired then 0 else 1);
        effort = r.Fl.total_work + messages;
      }
    in
    { run; cleanup = (fun () -> rm_rf dir) }
  in
  let layers v =
    let u = v.untraced_probe and p = v.traced_probe in
    let detect = Hist.merge (hist u "detect_ticks") (hist p "detect_ticks") in
    List.map
      (fun (name, _) -> measured name (per v.n_untraced (sum u name)))
      fleet_counters
    @ [
        measured "fleet.spawn_ms" (per v.n_traced (sum p "spawn_ms"));
        measured "fleet.collect_ms" (per v.n_traced (sum p "collect_ms"));
        measured "fleet.detect_ticks_p50"
          (if Hist.count detect = 0 then 0.
           else float_of_int (Hist.quantile detect 0.5));
        measured "node.ticks_per_s" (ratio (sum p "ticks") (sum p "node_ms" /. 1e3));
        measured "protocol.useful_frac" (ratio (sum u "units") (sum u "work"));
        measured "trace.overhead_frac" (overhead v);
      ]
  in
  { exact_effort = false; setup; layers }

let all =
  [
    ("ff-scale", ff_scale);
    ("crash-storm", crash_storm);
    ("agreement", agreement);
    ("campaign", campaign);
    ("fleet", fleet);
  ]
