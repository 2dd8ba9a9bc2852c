module C = Simkit.Campaign
module Metrics = Simkit.Metrics
module Spec = Doall.Spec

type subject = {
  result : Event_sim.result;
  stats : Link.stats;
  spec : Spec.t;
  schedule : C.Async.t;
}

let default_max_ticks = 50_000

let link_of_schedule (sched : C.Async.t) =
  {
    Event_sim.drop_bp = sched.C.Async.drop_bp;
    dup_bp = sched.C.Async.dup_bp;
    corrupt_bp = sched.C.Async.corrupt_bp;
    slow_set = sched.C.Async.slow_set;
    slow_factor = sched.C.Async.slow_factor;
    severs =
      List.map
        (fun s ->
          C.Async.(s.s_src, s.s_dst, s.s_from, s.s_to))
        sched.C.Async.severs;
  }

let run_schedule ?(max_ticks = default_max_ticks) spec (sched : C.Async.t) =
  let link = link_of_schedule sched in
  let stats = Link.stats () in
  let result =
    Async_protocol_a.run_hardened
      ~crash_at:
        (List.map (fun c -> (c.C.Async.victim, c.C.Async.at)) sched.C.Async.crashes)
      ~max_delay:sched.C.Async.max_delay ~max_lag:sched.C.Async.max_lag
      ~seed:sched.C.Async.seed ~link ~stats ~max_ticks spec
  in
  { result; stats; spec; schedule = sched }

(* ------------------------------------------------------------------ *)
(* Oracles *)

let completed =
  {
    C.name = "completed";
    check =
      (fun s ->
        match s.result.Event_sim.outcome with
        | Event_sim.Completed -> C.Pass
        | o -> C.Fail (Format.asprintf "%a" Event_sim.pp_outcome o));
  }

let no_lost_unit =
  {
    C.name = "no-lost-unit";
    check =
      (fun s ->
        let m = s.result.Event_sim.metrics in
        let terminated =
          Array.exists
            (function Simkit.Types.Terminated _ -> true | _ -> false)
            s.result.Event_sim.statuses
        in
        if (not terminated) || Metrics.all_units_done m then C.Pass
        else
          C.Fail
            (Printf.sprintf
               "a process terminated with only %d/%d units performed"
               (Metrics.units_covered m) (Metrics.n_units m)));
  }

let default_grace = 5_000

let detector_complete ?(grace = default_grace) () =
  {
    C.name = "detector-complete";
    check =
      (fun s ->
        match s.result.Event_sim.outcome with
        | Event_sim.Completed -> C.Pass
        | Event_sim.Stalled end_t | Event_sim.Tick_limit end_t -> (
            let statuses = s.result.Event_sim.statuses in
            let notices = s.stats.Link.notices in
            let missing = ref [] in
            Array.iteri
              (fun o so ->
                if so = Simkit.Types.Running then
                  Array.iteri
                    (fun p sp ->
                      let retired_at =
                        match sp with
                        | Simkit.Types.Crashed r | Simkit.Types.Terminated r ->
                            Some r
                        | Simkit.Types.Running -> None
                      in
                      match retired_at with
                      | Some r when o <> p && end_t - r >= grace ->
                          if
                            not
                              (List.exists
                                 (fun (ob, su, _) -> ob = o && su = p)
                                 notices)
                          then missing := (o, p) :: !missing
                      | _ -> ())
                    statuses)
              statuses;
            match !missing with
            | [] -> C.Pass
            | (o, p) :: _ ->
                C.Fail
                  (Printf.sprintf
                     "process %d never suspected peer %d, retired >= %d \
                      ticks before the end"
                     o p grace)));
  }

let bounded_duplication =
  {
    C.name = "bounded-duplication";
    check =
      (fun s ->
        let m = s.result.Event_sim.metrics in
        let worst = ref 0 in
        for u = 0 to Metrics.n_units m - 1 do
          worst := max !worst (Metrics.unit_multiplicity m u)
        done;
        let observers =
          List.sort_uniq compare
            (List.map (fun (o, _, _) -> o) s.stats.Link.notices)
        in
        let bound = 1 + List.length observers in
        if !worst <= bound then
          C.Pass_margin (float_of_int !worst /. float_of_int bound)
        else
          C.Fail
            (Printf.sprintf
               "unit multiplicity %d exceeds 1 + %d notice-issuing observers"
               !worst (List.length observers)));
  }

let work_cap cap =
  {
    C.name = "work-cap";
    check =
      (fun s ->
        let w = Metrics.work s.result.Event_sim.metrics in
        if cap <= 0 then C.Pass
        else if w <= cap then
          C.Pass_margin (float_of_int w /. float_of_int cap)
        else C.Fail (Printf.sprintf "work = %d exceeds cap %d" w cap));
  }

let oracles ?grace () =
  [ completed; no_lost_unit; detector_complete ?grace (); bounded_duplication ]

(* ------------------------------------------------------------------ *)
(* Campaign driver *)

let stamp spec sched =
  C.Async.add_meta sched
    [
      ("protocol", "async-a");
      ("n", string_of_int (Spec.n spec));
      ("t", string_of_int (Spec.processes spec));
    ]

let default_window ?max_ticks spec =
  let ff = run_schedule ?max_ticks spec (C.Async.make ()) in
  (2 * Metrics.rounds ff.result.Event_sim.metrics) + 2

(* [?jobs] is [Campaign.run_parallel]'s worker count (default: one per
   core). Generation stays sequential so seeds keep their meaning. *)
let campaign ?jobs ?(seed = 1L) ?(executions = 100) ?window ?grace
    ?(extra = []) ?max_failures ?shrink_budget ?max_ticks spec =
  let window =
    match window with Some w -> w | None -> default_window ?max_ticks spec
  in
  let t = Spec.processes spec in
  let g = Dhw_util.Prng.create seed in
  let schedules =
    List.init executions (fun _ -> stamp spec (C.Async.sample g ~t ~window))
  in
  C.run_parallel ?jobs
    ~run:(run_schedule ?max_ticks spec)
    ~oracles:(oracles ?grace () @ extra)
    ~candidates:C.Async.candidates ?max_failures ?shrink_budget
    (List.to_seq schedules)

(* ------------------------------------------------------------------ *)
(* Corruption / Byzantine campaigns *)

let byz_protocol_name = function
  | Doall.Fuzz.Unhardened -> "async-a"
  | Doall.Fuzz.Hardened -> Async_protocol_a.validated_name

let byz_hardening_of_name = function
  | "async-a" | "a" -> Some Doall.Fuzz.Unhardened
  | "async-a+val" | "a+val" | "aval" -> Some Doall.Fuzz.Hardened
  | _ -> None

let run_byz_schedule ?(max_ticks = default_max_ticks) spec hardening
    (sched : C.Async.t) =
  let link = link_of_schedule sched in
  let crash_at =
    List.map (fun c -> (c.C.Async.victim, c.C.Async.at)) sched.C.Async.crashes
  in
  let byz =
    List.map (fun c -> (c.C.Async.victim, c.C.Async.at)) sched.C.Async.byz
  in
  let stats = Link.stats () in
  let runner =
    match hardening with
    | Doall.Fuzz.Unhardened -> Async_protocol_a.run_hardened
    | Doall.Fuzz.Hardened -> Async_protocol_a.run_validated
  in
  let result =
    runner ~crash_at ~max_delay:sched.C.Async.max_delay
      ~max_lag:sched.C.Async.max_lag ~seed:sched.C.Async.seed ~link ~stats
      ~max_ticks ~byz spec
  in
  { result; stats; spec; schedule = sched }

let no_phantom_unit =
  {
    C.name = "no-phantom-unit";
    check =
      (fun s ->
        let m = s.result.Event_sim.metrics in
        let terminated =
          Array.exists
            (function Simkit.Types.Terminated _ -> true | _ -> false)
            s.result.Event_sim.statuses
        in
        if (not terminated) || Metrics.all_units_done m then C.Pass
        else
          C.Fail
            (Printf.sprintf
               "a process reported done with only %d/%d units performed"
               (Metrics.units_covered m) (Metrics.n_units m)));
  }

let correct_despite_lies =
  {
    C.name = "correct-despite-lies";
    check =
      (fun s ->
        match s.result.Event_sim.outcome with
        | Event_sim.Completed ->
            let m = s.result.Event_sim.metrics in
            if Metrics.all_units_done m then C.Pass
            else
              C.Fail
                (Printf.sprintf "completed with only %d/%d units performed"
                   (Metrics.units_covered m) (Metrics.n_units m))
        | o -> C.Fail (Format.asprintf "%a" Event_sim.pp_outcome o));
  }

(* Airtight for any adversary: a process activates at most once and a
   script performs at most n units, so total work never exceeds one script
   per honest process. The margin carries the signal — with b subverted
   pids the quorum forces ~ (f+1) completions out of (t - b) honest. *)
let validation_overhead spec =
  {
    C.name = "validation-overhead-bounded";
    check =
      (fun s ->
        let t = Spec.processes spec in
        let subverted =
          List.length
            (List.sort_uniq compare
               (List.map (fun c -> c.C.Async.victim) s.schedule.C.Async.byz))
        in
        let cap = (t - subverted) * Spec.n spec in
        let w = Metrics.work s.result.Event_sim.metrics in
        if cap <= 0 then C.Pass
        else if w <= cap then C.Pass_margin (float_of_int w /. float_of_int cap)
        else C.Fail (Printf.sprintf "work = %d exceeds cap %d" w cap));
  }

let byz_oracles spec ~hardening =
  let base = [ no_phantom_unit; correct_despite_lies ] in
  match hardening with
  | Doall.Fuzz.Unhardened -> base
  | Doall.Fuzz.Hardened -> base @ [ validation_overhead spec ]

let byz_stamp spec hardening sched =
  C.Async.add_meta sched
    [
      ("protocol", byz_protocol_name hardening);
      ("n", string_of_int (Spec.n spec));
      ("t", string_of_int (Spec.processes spec));
    ]

let byz_campaign ?jobs ?(seed = 1L) ?(executions = 200) ?window ?byz
    ?(extra = []) ?max_failures ?shrink_budget ?max_ticks spec hardening =
  let t = Spec.processes spec in
  let byz =
    match byz with
    | Some b -> b
    | None -> min (max 0 ((t / 3) - 1)) (t - 1)
  in
  let window =
    match window with Some w -> w | None -> default_window ?max_ticks spec
  in
  let g = Dhw_util.Prng.create seed in
  let schedules =
    List.init executions (fun _ ->
        byz_stamp spec hardening (C.Async.sample_byz g ~t ~window ~byz))
  in
  C.run_parallel ?jobs
    ~run:(run_byz_schedule ?max_ticks spec hardening)
    ~oracles:(byz_oracles spec ~hardening @ extra)
    ~candidates:C.Async.candidates ~cost:C.Async.cost ?max_failures
    ?shrink_budget
    (List.to_seq schedules)
