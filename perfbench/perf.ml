(* The repository benchmark: five closed-loop workloads, end-to-end
   metrics from untraced reps, per-layer metrics from a traced run.

     perf.exe run --workload W --seed S --seconds N --trace 0|1
                  [--json OUT] [--chrome OUT] [--toy]
     perf.exe all --seed S [--seconds N] [--trace 0|1] [--json OUT] [--toy]
     perf.exe compare BASE.json CAND.json [--spec BENCHMARK.json]
     perf.exe smoke BENCHMARK.json

   [run] measures one workload for about N seconds and prints every metric
   by name and unit; its last stdout line is one JSON object
   {correct, attempted, failed, metrics}. [all] re-executes itself once
   per workload, so each workload's peak RSS is its own. [compare] judges
   two [--json] documents against the bounds in BENCHMARK.json. [smoke]
   runs every workload at toy size, untraced and traced, and checks the
   printed metrics against BENCHMARK.json. *)

open Perfbench
module J = Dhw_util.Jsonw
module W = Workloads

(* The metric catalogue. BENCHMARK.json lists exactly these names and
   units; [smoke] holds the two together. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("units_per_s", "1/s");
    ("execs_per_s", "1/s");
    ("effort", "count");
    ("rss_peak_mb", "MB");
  ]

(* Per-layer metrics: name, unit, and the end-to-end metric and workload
   a change to that layer should move. *)
let per_layer =
  [
    ("kernel.round_self_s", "s",
      "units_per_s on crash-storm; no change on ff-scale");
    ("kernel.deliver_s", "s", "units_per_s on agreement");
    ("kernel.outside_rounds_s", "s", "units_per_s on ff-scale");
    ("kernel.rounds_processed", "count",
      "units_per_s on ff-scale and crash-storm");
    ("kernel.steps", "count", "units_per_s on ff-scale and crash-storm");
    ("kernel.words_per_round", "words",
      "units_per_s on crash-storm; no change on ff-scale");
    ("fault.crashes", "count", "effort on crash-storm; must not move");
    ("protocol.step_s", "s",
      "units_per_s and rss_peak_mb on agreement; no change on ff-scale");
    ("protocol.step_us_p50", "us", "units_per_s on agreement");
    ("protocol.step_us_p99", "us", "units_per_s on agreement");
    ("protocol.words_per_msg", "words",
      "units_per_s and rss_peak_mb on agreement");
    ("protocol.useful_frac", "ratio", "effort on crash-storm");
    ("trace.overhead_frac", "ratio",
      "none: untraced metrics must stay flat");
    ("campaign.sample_us_p50", "us", "execs_per_s on campaign");
    ("fuzz.crash.exec_us_p50", "us", "execs_per_s on campaign");
    ("fuzz.recovery.exec_us_p50", "us", "execs_per_s on campaign");
    ("fuzz.byz.exec_us_p50", "us", "execs_per_s on campaign");
    ("fuzz.async.exec_us_p50", "us", "execs_per_s on campaign");
    ("fuzz.exec_us_p99", "us", "execs_per_s on campaign");
    ("oracle.judge_us_p50", "us", "execs_per_s on campaign");
    ("oracle.share", "ratio", "execs_per_s on campaign");
    ("pool.busy_frac", "ratio", "execs_per_s on campaign");
    ("asim.link.retransmits_per_exec", "count", "execs_per_s on campaign");
    ("asim.hb.false_suspicions_per_exec", "count",
      "execs_per_s on campaign");
    ("fleet.spawn_ms", "ms", "units_per_s on fleet");
    ("fleet.collect_ms", "ms", "units_per_s on fleet");
    ("fleet.detect_ticks_p50", "ticks", "none on fleet: must not move");
    ("node.ticks_per_s", "1/s", "units_per_s on fleet");
    ("link.data_sent", "count", "effort on fleet");
    ("link.retransmits", "count", "effort on fleet");
    ("link.acks_sent", "count", "effort on fleet");
    ("hb.beats_sent", "count", "effort on fleet");
    ("hb.false_suspicions", "count", "units_per_s on fleet");
    ("mesh.dg_sent", "count", "units_per_s on fleet");
    ("mesh.undeliverable", "count", "units_per_s on fleet");
    ("chaos.dropped", "count", "units_per_s on fleet");
    ("ckpt.persists", "count", "units_per_s on fleet");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None ->
      let _, u, _ = List.find (fun (n, _, _) -> n = name) per_layer in
      u

let usage () =
  prerr_string
    "usage: perf.exe run --workload W --seed S --seconds N --trace 0|1 [--json OUT] \
     [--chrome OUT] [--toy]\n\
    \       perf.exe all --seed S [--seconds N] [--trace 0|1] [--json OUT] [--toy]\n\
    \       perf.exe compare BASE.json CAND.json [--spec BENCHMARK.json]\n\
    \       perf.exe smoke BENCHMARK.json\n";
  exit 2

(* ---- measuring one workload ------------------------------------------ *)

let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

type rep = { wall_s : float; outcome : W.outcome; words : float }

(* Set-up is timed in batches that repeat it often enough to take about
   100 us, so a set-up of a microsecond is not timer noise. Batches run
   between reps, paced so that the [setup_samples] of them spread over the
   whole run: the host's speed changes from second to second, and samples
   taken at one moment would all share that moment's speed. A set-up
   touches no files (the fleet creates its run directory itself), so the
   prepared reps of a batch are simply dropped. *)
let setup_samples = 31

let setup_batch (w : W.t) k =
  let t0 = W.now_ns () in
  for _ = 1 to k do
    ignore (Sys.opaque_identity (w.W.setup ()))
  done;
  W.seconds_since t0 /. float_of_int k

let setup_batch_size w =
  let once = List.fold_left Float.min infinity (List.init 3 (fun _ -> setup_batch w 1)) in
  max 1 (int_of_float (1e-4 /. once))

let measure (w : W.t) ~seconds ~trace =
  let k = setup_batch_size w in
  let t_start = W.now_ns () in
  let setups = ref [] and n_setups = ref 0 in
  let time_setups upto =
    while !n_setups < upto do
      setups := setup_batch w k :: !setups;
      incr n_setups
    done
  in
  let rep probe =
    let share = W.seconds_since t_start /. Float.max seconds 1e-3 in
    time_setups (min setup_samples (1 + int_of_float (float_of_int setup_samples *. share)));
    let p = w.W.setup () in
    let r =
      Fun.protect ~finally:p.W.cleanup (fun () ->
          let words0 = Gc.minor_words () in
          let t0 = W.now_ns () in
          let outcome = p.W.run probe in
          let wall_s = W.seconds_since t0 in
          { wall_s; outcome; words = Gc.minor_words () -. words0 })
    in
    W.addi probe "units" r.outcome.W.units;
    (* every rep starts from a collected heap, as a fresh process would *)
    Gc.full_major ();
    r
  in
  (* closed loop: reps back to back until the next one would overrun *)
  let loop probe budget =
    let t0 = W.now_ns () in
    let rec go acc =
      let acc = rep probe :: acc in
      let next = Stats.median (List.map (fun r -> r.wall_s) acc) in
      if W.seconds_since t0 +. next > budget then List.rev acc else go acc
    in
    go []
  in
  let untraced = W.probe ~traced:false and traced = W.probe ~traced:true in
  let budget = if trace then seconds /. 2. else seconds in
  let u_reps = loop untraced budget in
  let t_reps = if trace then loop traced budget else [] in
  time_setups setup_samples;
  (u_reps, t_reps, List.rev !setups, untraced, traced)

let run_one ~name ~(w : W.t) ~seed ~seconds ~trace =
  let u_reps, t_reps, setups, untraced, traced = measure w ~seconds ~trace in
  let reps = u_reps @ t_reps in
  let sum f = List.fold_left (fun a r -> a + f r.outcome) 0 reps in
  let attempted = sum (fun o -> o.W.execs) and failed = sum (fun o -> o.W.failed) in
  let efforts = List.map (fun r -> float_of_int r.outcome.W.effort) reps in
  let deterministic =
    (not w.W.exact_effort) || List.for_all (( = ) (List.hd efforts)) efforts
  in
  if not deterministic then
    prerr_endline "effort differs between reps of one seed: a run is not deterministic";
  let m name ?(exact = false) samples =
    { Run_doc.name; unit_ = unit_of name; value = Stats.median samples; samples; exact }
  in
  let metrics =
    if not trace then
      let per_s f = List.map (fun r -> float_of_int (f r.outcome) /. r.wall_s) u_reps in
      [
        m "setup_s" setups;
        m "units_per_s" (per_s (fun o -> o.W.units));
        m "execs_per_s" (per_s (fun o -> o.W.execs));
        m "effort" ~exact:w.W.exact_effort
          (List.map (fun r -> float_of_int r.outcome.W.effort) u_reps);
        m "rss_peak_mb" [ rss_peak_mb () ];
      ]
    else
      let walls = List.map (fun r -> r.wall_s) in
      let view =
        {
          W.untraced_probe = untraced;
          traced_probe = traced;
          n_untraced = List.length u_reps;
          n_traced = List.length t_reps;
          untraced_wall_s = Stats.median (walls u_reps);
          traced_wall_s =
            List.fold_left ( +. ) 0. (walls t_reps) /. float_of_int (List.length t_reps);
          words = Stats.median (List.map (fun r -> r.words) u_reps);
        }
      in
      let layers = w.W.layers view in
      (* a layer this workload never enters reads 0 *)
      List.map
        (fun (name, _, _) ->
          match List.find_opt (fun l -> l.W.l_name = name) layers with
          | Some l -> m name ~exact:l.W.l_exact [ l.W.l_value ]
          | None -> m name ~exact:true [ 0. ])
        per_layer
  in
  ( {
      Run_doc.workload = name;
      seed;
      trace;
      correct = failed = 0 && deterministic && attempted > 0;
      attempted;
      failed;
      metrics;
    },
    (List.length u_reps, List.length t_reps),
    traced )

let print_run (r : Run_doc.run) (n_untraced, n_traced) =
  Printf.printf "workload %s  seed %Ld  %s  reps: %d untraced, %d traced\n" r.workload
    r.seed
    (if r.trace then "traced" else "untraced")
    n_untraced n_traced;
  List.iter
    (fun (x : Run_doc.measured) ->
      let n = List.length x.samples in
      Printf.printf "  %-34s %16.6g %-6s %s\n" x.name x.value x.unit_
        (if n > 1 then
           Printf.sprintf "(median of %d, spread %.1f%%)" n (100. *. Stats.spread x.samples)
         else
           match List.find_opt (fun (name, _, _) -> name = x.name) per_layer with
           | Some (_, _, moves) ->
               (if x.exact then "exact; " else "") ^ "moves " ^ moves
           | None -> ""))
    r.metrics;
  Printf.printf "  attempted %d, failed %d: %s\n" r.attempted r.failed
    (if r.correct then "correct" else "INCORRECT")

let write_json path j =
  let oc = open_out path in
  output_string oc (J.pretty j);
  output_char oc '\n';
  close_out oc

(* ---- command line ---------------------------------------------------- *)

type opts = {
  workload : string option;
  seed : int64 option;
  seconds : float;
  trace : bool;
  json : string option;
  chrome : string option;
  size : W.size;
}

let parse_opts args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = Some w } rest
    | "--seed" :: s :: rest -> (
        match Int64.of_string_opt s with
        | Some s -> go { o with seed = Some s } rest
        | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s >= 0. -> go { o with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as b) :: rest -> go { o with trace = b = "1" } rest
    | "--json" :: p :: rest -> go { o with json = Some p } rest
    | "--chrome" :: p :: rest -> go { o with chrome = Some p } rest
    | "--toy" :: rest -> go { o with size = W.Toy } rest
    | _ -> usage ()
  in
  go
    { workload = None; seed = None; seconds = 10.; trace = false; json = None;
      chrome = None; size = W.Full }
    args

let cmd_run o =
  let name, seed =
    match (o.workload, o.seed) with Some w, Some s -> (w, s) | _ -> usage ()
  in
  let make = match List.assoc_opt name W.all with Some f -> f | None -> usage () in
  let w = make o.size ~seed in
  let r, counts, traced = run_one ~name ~w ~seed ~seconds:o.seconds ~trace:o.trace in
  print_run r counts;
  Option.iter (fun p -> write_json p (Run_doc.to_json [ r ])) o.json;
  Option.iter
    (fun p ->
      let spans = W.chrome_spans traced in
      write_json p (Dhw_util.Spanfile.to_chrome spans))
    (if o.trace then o.chrome else None);
  print_endline (Run_doc.summary_line r)

let self_args o ~workload ~json =
  [ Sys.executable_name; "run"; "--workload"; workload; "--seed";
    Int64.to_string (Option.get o.seed); "--seconds"; Printf.sprintf "%g" o.seconds;
    "--trace"; (if o.trace then "1" else "0"); "--json"; json ]
  @ if o.size = W.Toy then [ "--toy" ] else []

let cmd_all o =
  if o.seed = None then usage ();
  let run_workload (workload, _) =
    let json = Filename.temp_file ~temp_dir:Filename.current_dir_name ".perf-" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove json)
      (fun () ->
        let argv = Array.of_list (self_args o ~workload ~json) in
        let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> Run_doc.of_json (Verdict.read_json json)
        | _ -> failwith ("workload " ^ workload ^ " failed"))
  in
  let runs = List.concat_map run_workload W.all in
  Option.iter (fun p -> write_json p (Run_doc.to_json runs)) o.json;
  if not (List.for_all (fun (r : Run_doc.run) -> r.correct) runs) then exit 1

let cmd_compare base cand spec_path =
  let spec = Verdict.spec_of_json (Verdict.read_json spec_path) in
  let load p = Run_doc.of_json (Verdict.read_json p) in
  let base = load base and cand = load cand in
  let bad = ref 0 in
  List.iter
    (fun (c : Run_doc.run) ->
      match
        List.find_opt
          (fun (b : Run_doc.run) -> b.workload = c.workload && b.trace = c.trace)
          base
      with
      | None ->
          Printf.printf "%s: no baseline run\n" c.workload;
          incr bad
      | Some b ->
          Printf.printf "%s (%s)%s\n" c.workload
            (if c.trace then "per-layer" else "end-to-end")
            (if c.correct then "" else ": CANDIDATE INCORRECT");
          if not c.correct then incr bad;
          let metrics = if c.trace then spec.per_layer else spec.end_to_end in
          List.iter
            (fun (m : Verdict.metric) ->
              let side (r : Run_doc.run) =
                List.find_opt (fun (x : Run_doc.measured) -> x.name = m.name) r.metrics
                |> Option.map (fun (x : Run_doc.measured) ->
                       { Verdict.samples = x.samples; exact = x.exact })
              in
              match (side b, side c) with
              | Some bs, Some cs ->
                  let v = Verdict.judge m ~base:bs ~cand:cs in
                  if Verdict.failing v then incr bad;
                  Printf.printf "  %-34s %16.6g -> %-16.6g %s\n" m.name
                    (Stats.median bs.samples) (Stats.median cs.samples)
                    (Verdict.to_string v)
              | _ ->
                  Printf.printf "  %-34s MISSING\n" m.name;
                  incr bad)
            metrics)
    cand;
  List.iter
    (fun (b : Run_doc.run) ->
      if not (List.exists (fun (c : Run_doc.run) -> c.workload = b.workload && c.trace = b.trace) cand)
      then (
        Printf.printf "%s: no candidate run\n" b.workload;
        incr bad))
    base;
  exit (if !bad = 0 then 0 else 1)

(* Every workload at toy size, untraced then traced, through the same
   command line run.sh uses: the last stdout line must name every
   metric of BENCHMARK.json with its unit and report a correct run. *)
let cmd_smoke spec_path =
  let spec = Verdict.spec_of_json (Verdict.read_json spec_path) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (name, _) ->
      if not (List.mem name spec.workloads) then
        problem "workload %s is not in %s" name spec_path)
    W.all;
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let what = Printf.sprintf "%s --trace %d" workload (if trace then 1 else 0) in
          let argv =
            [| Sys.executable_name; "run"; "--workload"; workload; "--seed"; "1";
               "--seconds"; "0"; "--trace"; (if trace then "1" else "0"); "--toy" |]
          in
          let ic = Unix.open_process_args_in argv.(0) argv in
          let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
          let status = Unix.close_process_in ic in
          let last = List.nth lines (List.length lines - 1) in
          if status <> Unix.WEXITED 0 then problem "%s: exited abnormally" what
          else
            match J.parse last with
            | Error e -> problem "%s: last line is not JSON (%s)" what e
            | Ok j ->
                if J.member "correct" j <> Some (J.Bool true) then
                  problem "%s: not correct" what;
                if Option.bind (J.member "attempted" j) J.to_int < Some 1 then
                  problem "%s: nothing attempted" what;
                if Option.bind (J.member "failed" j) J.to_int <> Some 0 then
                  problem "%s: failures" what;
                let expected = if trace then spec.per_layer else spec.end_to_end in
                let printed =
                  match J.member "metrics" j with Some (J.Obj f) -> f | _ -> []
                in
                List.iter
                  (fun (m : Verdict.metric) ->
                    match List.assoc_opt m.name printed with
                    | None -> problem "%s: %s not printed" what m.name
                    | Some x ->
                        if Option.bind (J.member "unit" x) J.to_str <> Some m.unit_ then
                          problem "%s: %s printed without its unit %s" what m.name m.unit_;
                        if Option.bind (J.member "value" x) J.to_float = None then
                          problem "%s: %s has no numeric value" what m.name)
                  expected;
                List.iter
                  (fun (name, _) ->
                    if not (List.exists (fun (m : Verdict.metric) -> m.name = name) expected)
                    then problem "%s: %s printed but not in %s" what name spec_path)
                  printed)
        [ false; true ])
    spec.workloads;
  match List.rev !problems with
  | [] -> print_endline "perf-smoke: every workload and metric ok"
  | ps ->
      List.iter prerr_endline ps;
      exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> cmd_run (parse_opts args)
  | _ :: "all" :: args -> cmd_all (parse_opts args)
  | [ _; "compare"; base; cand ] -> cmd_compare base cand "BENCHMARK.json"
  | [ _; "compare"; base; cand; "--spec"; spec ] -> cmd_compare base cand spec
  | [ _; "smoke"; spec ] -> cmd_smoke spec
  | _ -> usage ()
