module C = Simkit.Campaign
module Metrics = Simkit.Metrics
module Audit = Simkit.Audit

type subject = { report : Runner.report; audit : Audit.t }

let normalize name =
  match String.lowercase_ascii name with
  | "cchunked" -> "c-chunked"
  | "cnaive" -> "c-naive"
  | "dcoord" -> "d-coord"
  | s -> s

(* The protocols judged by the sequential audits: one active process at a
   time (Lemma 2.7), first performances in increasing unit order. *)
let sequential protocol =
  match normalize protocol with
  | "a" | "b" | "c" | "c-chunked" -> true
  | _ -> false

let checks_for protocol =
  if sequential protocol then Audit.[ Well_formed; One_active; Monotone ]
  else [ Audit.Well_formed ]

let armed spec checks =
  Audit.create ~checks ~processes:(Spec.processes spec) ~units:(Spec.n spec) ()

let run_schedule spec proto sched =
  let audit = armed spec (checks_for proto.Protocol.name) in
  let fault = C.Schedule.to_fault sched in
  let report = Runner.run ~fault ~audit spec proto in
  { report; audit }

(* The text a protocol renders its passive messages as, for recorded
   traces: taken from the protocol's own printer. *)
let passive_text protocol =
  let is rendering what = String.equal what rendering in
  match normalize protocol with
  | "b" -> is (Protocol_b.show_msg Protocol_b.Go_ahead)
  | "b+rec" ->
      is (Recovery.show_rmsg Protocol_b.show_msg (Recovery.Payload Protocol_b.Go_ahead))
  | "c" | "c-chunked" -> is (Protocol_c.show_msg Protocol_c.Alive)
  | _ -> Protocol.no_passive

(* ------------------------------------------------------------------ *)
(* Oracles *)

let completed =
  {
    C.name = "completed";
    check =
      (fun s ->
        match s.report.Runner.outcome with
        | Simkit.Kernel.Completed -> C.Pass
        | Simkit.Kernel.Stalled r -> C.Fail (Printf.sprintf "stalled at round %d" r)
        | Simkit.Kernel.Round_limit r ->
            C.Fail (Printf.sprintf "round limit hit at %d" r));
  }

let correct =
  {
    C.name = "correct";
    check =
      (fun s ->
        if Runner.correct s.report then C.Pass
        else
          C.Fail
            (Printf.sprintf "%d survivors but only %d/%d units performed"
               (Runner.survivors s.report)
               (Metrics.units_covered s.report.Runner.metrics)
               (Metrics.n_units s.report.Runner.metrics)));
  }

let audit name check =
  {
    C.name;
    check =
      (fun s ->
        match Audit.violations s.audit check with
        | [] -> C.Pass
        | v :: _ -> C.Fail (Format.asprintf "%a" Audit.pp_violation v));
  }

let bounded name measure bound =
  {
    C.name;
    check =
      (fun s ->
        let m = measure s.report.Runner.metrics in
        if bound <= 0 then C.Pass
        else if m <= bound then C.Pass_margin (float_of_int m /. float_of_int bound)
        else C.Fail (Printf.sprintf "%s = %d exceeds bound %d" name m bound));
  }

let work_bound = bounded "work" Metrics.work
let msgs_bound = bounded "messages" Metrics.messages
let rounds_bound = bounded "rounds" Metrics.rounds
let work_cap cap = bounded "work-cap" Metrics.work cap

let sequential_audits =
  [ audit "one-active" Audit.One_active; audit "monotone" Audit.Monotone ]

let oracles spec ~protocol =
  let base = [ completed; correct; audit "well-formed" Audit.Well_formed ] in
  let t = Spec.processes spec in
  match normalize protocol with
  | "a" ->
      let g = Grid.make spec in
      base
      @ sequential_audits
      @ [
          work_bound (Bounds.a_work g);
          msgs_bound (Bounds.a_msgs g);
          rounds_bound (Bounds.a_rounds g);
        ]
  | "b" ->
      let g = Grid.make spec in
      base
      @ sequential_audits
      @ [
          work_bound (Bounds.b_work g);
          msgs_bound (Bounds.b_msgs g);
          rounds_bound (Bounds.b_rounds g);
        ]
  | "c" ->
      (* the rounds bound overflows 63 bits (Thm 3.8's 2^(n+t) deadlines),
         so only work and messages are checked *)
      base
      @ sequential_audits
      @ [ work_bound (Bounds.c_work spec); msgs_bound (Bounds.c_msgs spec) ]
  | "c-chunked" ->
      base
      @ sequential_audits
      @ [
          work_bound (Bounds.c_chunked_work spec);
          msgs_bound (Bounds.c_chunked_msgs spec);
        ]
  | "d" ->
      (* arbitrary schedules can kill more than half a phase's processes, so
         judge against the revert-path envelope with f = t-1 *)
      base
      @ [
          work_bound (Bounds.d_work_revert spec);
          msgs_bound (Bounds.d_msgs_revert spec ~f:(t - 1));
          rounds_bound (Bounds.d_rounds_revert spec ~f:(t - 1));
        ]
  | _ -> base

(* ------------------------------------------------------------------ *)
(* Campaign drivers *)

let stamp spec proto sched =
  C.Schedule.add_meta sched
    [
      ("protocol", normalize proto.Protocol.name);
      ("n", string_of_int (Spec.n spec));
      ("t", string_of_int (Spec.processes spec));
    ]

let default_window spec proto =
  let ff = Runner.run spec proto in
  (2 * Metrics.rounds ff.Runner.metrics) + 2

(* Every campaign driver runs on [Campaign.run_parallel]; [?jobs] is its
   worker count (default: one per core). Schedule *generation* stays
   sequential — it walks one seeded PRNG, which keeps historical seeds
   meaning the same campaigns — only execution and judging fan out. *)
let campaign ?jobs ?(seed = 1L) ?(executions = 200) ?window ?(extra = [])
    ?max_failures ?shrink_budget spec proto =
  let window =
    match window with Some w -> w | None -> default_window spec proto
  in
  let t = Spec.processes spec in
  let g = Dhw_util.Prng.create seed in
  let schedules =
    List.init executions (fun _ -> stamp spec proto (C.sample g ~t ~window))
  in
  C.run_parallel ?jobs
    ~run:(run_schedule spec proto)
    ~oracles:(oracles spec ~protocol:proto.Protocol.name @ extra)
    ~candidates:C.schedule_candidates ?max_failures ?shrink_budget
    (List.to_seq schedules)

(* ------------------------------------------------------------------ *)
(* Crash–recovery campaigns *)

let recovery_protocol_name which = normalize (Recovery.name which)

let recovery_which_of_name name =
  match String.lowercase_ascii name with
  | "a+rec" | "a" -> Some Recovery.A
  | "b+rec" | "b" -> Some Recovery.B
  | _ -> None

let run_recovery_schedule ?max_rounds ?rejoin_rounds spec which sched =
  let audit = armed spec [ Audit.Well_formed ] in
  let fault = C.Schedule.to_fault sched in
  let report = Recovery.run ~fault ?max_rounds ?rejoin_rounds ~audit spec which in
  { report; audit }

let trace_audit ~protocol events =
  Audit.replay ~passive_msg:(passive_text protocol)
    ~checks:(checks_for protocol) events

(* Oracle bounds under crash–recovery are incarnation-counting envelopes:
   with [R] committed restarts an execution has at most [t + R] incarnations,
   each activating at most once and each performing / sending at most one
   full script's worth. They are airtight for an arbitrary adversary (a
   rejoiner can have slept through everything and redo the world), so
   margins on passing runs are the interesting signal, not the bound. *)

let dyn_bounded name measure bound_of =
  {
    C.name;
    check =
      (fun s ->
        let m = measure s.report.Runner.metrics in
        let bound = bound_of s in
        if bound <= 0 then C.Pass
        else if m <= bound then
          C.Pass_margin (float_of_int m /. float_of_int bound)
        else C.Fail (Printf.sprintf "%s = %d exceeds bound %d" name m bound));
  }

let incarnations spec s =
  Spec.processes spec + Metrics.restarts s.report.Runner.metrics

let recovery_multiplicity spec =
  {
    C.name = "multiplicity";
    check =
      (fun s ->
        let m = s.report.Runner.metrics in
        let bound = incarnations spec s in
        let worst = ref 0 in
        for u = 0 to Spec.n spec - 1 do
          worst := max !worst (Metrics.unit_multiplicity m u)
        done;
        if !worst <= bound then
          C.Pass_margin (float_of_int !worst /. float_of_int bound)
        else
          C.Fail
            (Printf.sprintf
               "a unit was performed %d times, above the incarnation count %d"
               !worst bound));
  }

let recovery_oracles spec which ~horizon =
  let g = Grid.make spec in
  let t = Spec.processes spec in
  let base_msgs, base_rounds =
    match which with
    | Recovery.A -> (Bounds.a_msgs g, Bounds.a_rounds g)
    | Recovery.B -> (Bounds.b_msgs g, Bounds.b_rounds g)
  in
  let restarts s = Metrics.restarts s.report.Runner.metrics in
  (* Each stable write strictly increases the writer's view rank, and there
     are (S+1)(G+2) + 1 ranks including No_msg. *)
  let rank_space =
    ((Grid.n_subchunks g + 1) * (Grid.n_groups g + 2)) + 1
  in
  [
    completed;
    correct;
    audit "well-formed" Audit.Well_formed;
    recovery_multiplicity spec;
    dyn_bounded "work" Metrics.work (fun s -> Spec.n spec * incarnations spec s);
    dyn_bounded "messages" Metrics.messages (fun s ->
        (incarnations spec s * base_msgs) + (2 * t * restarts s));
    dyn_bounded "rounds" Metrics.rounds (fun s ->
        horizon + ((incarnations spec s + 1) * base_rounds) + 2);
    dyn_bounded "persists" Metrics.persists (fun _ -> t * rank_space);
  ]

let recovery_stamp spec which sched =
  C.Schedule.add_meta sched
    [
      ("protocol", recovery_protocol_name which);
      ("n", string_of_int (Spec.n spec));
      ("t", string_of_int (Spec.processes spec));
    ]

let recovery_horizon ~window ~restart_gap = window + (4 * (restart_gap + 2))

let recovery_campaign ?jobs ?(seed = 1L) ?(executions = 200) ?window
    ?(restart_gap = 6) ?rejoin_rounds ?(extra = []) ?max_failures
    ?shrink_budget spec which =
  let window =
    match window with
    | Some w -> w
    | None ->
        let ff = Recovery.run spec which in
        (2 * Metrics.rounds ff.Runner.metrics) + 2
  in
  let horizon = recovery_horizon ~window ~restart_gap in
  let t = Spec.processes spec in
  let g = Dhw_util.Prng.create seed in
  let schedules =
    List.init executions (fun _ ->
        recovery_stamp spec which (C.sample_recovery g ~t ~window ~restart_gap))
  in
  let max_rounds =
    horizon + ((2 * t * (match which with
      | Recovery.A -> Bounds.a_rounds (Grid.make spec)
      | Recovery.B -> Bounds.b_rounds (Grid.make spec))) + 64)
  in
  C.run_parallel ?jobs
    ~run:(run_recovery_schedule ~max_rounds ?rejoin_rounds spec which)
    ~oracles:(recovery_oracles spec which ~horizon @ extra)
    ~candidates:C.schedule_candidates ?max_failures ?shrink_budget
    (List.to_seq schedules)

(* ------------------------------------------------------------------ *)
(* Corruption / Byzantine campaigns *)

type hardening = Unhardened | Hardened

let byz_protocol_name = function Unhardened -> "a" | Hardened -> "a+val"

let byz_hardening_of_name name =
  match String.lowercase_ascii name with
  | "a" -> Some Unhardened
  | "a+val" | "aval" -> Some Hardened
  | _ -> None

(* No byz oracle reads an audit, so none is fed. *)
let run_byz_schedule ?max_rounds spec hardening sched =
  let fault = C.Schedule.to_fault sched in
  let report =
    match hardening with
    | Unhardened -> Validate.run_unhardened ~fault ?max_rounds spec
    | Hardened -> Validate.run ~fault ?max_rounds spec
  in
  { report; audit = armed spec [] }

let no_phantom_unit =
  {
    C.name = "no-phantom-unit";
    check =
      (fun s ->
        let m = s.report.Runner.metrics in
        if Runner.survivors s.report > 0 && not (Metrics.all_units_done m) then
          C.Fail
            (Printf.sprintf
               "%d processes report done with only %d/%d units performed"
               (Runner.survivors s.report) (Metrics.units_covered m)
               (Metrics.n_units m))
        else C.Pass);
  }

let correct_despite_lies =
  {
    C.name = "correct-despite-lies";
    check =
      (fun s ->
        match s.report.Runner.outcome with
        | Simkit.Kernel.Stalled r ->
            C.Fail (Printf.sprintf "stalled at round %d" r)
        | Simkit.Kernel.Round_limit r ->
            C.Fail (Printf.sprintf "round limit hit at %d" r)
        | Simkit.Kernel.Completed ->
            if Runner.correct s.report then C.Pass
            else
              C.Fail
                (Printf.sprintf "%d survivors but only %d/%d units performed"
                   (Runner.survivors s.report)
                   (Metrics.units_covered s.report.Runner.metrics)
                   (Metrics.n_units s.report.Runner.metrics)));
  }

(* Hardening buys correctness, not free lunch: termination waits for f+1
   independent completion claims, so up to f+2 honest processes (one of
   them possibly half-overlapped by the deadline ladder) plus one per
   crash may each run a full script. The envelope is generous by one extra
   script so the margin — not the bound — carries the signal. *)
let validation_overhead spec =
  let g = Grid.make spec in
  let f = Validate.tolerated (Spec.processes spec) in
  {
    C.name = "validation-overhead-bounded";
    check =
      (fun s ->
        let m = s.report.Runner.metrics in
        let actives = f + 3 + Metrics.crashes m in
        let work_bound = actives * Spec.n spec in
        let msg_bound = actives * Bounds.a_msgs g in
        if Metrics.work m > work_bound then
          C.Fail
            (Printf.sprintf "work = %d exceeds hardened envelope %d"
               (Metrics.work m) work_bound)
        else if Metrics.messages m > msg_bound then
          C.Fail
            (Printf.sprintf "messages = %d exceeds hardened envelope %d"
               (Metrics.messages m) msg_bound)
        else
          C.Pass_margin (float_of_int (Metrics.work m) /. float_of_int work_bound));
  }

let byz_oracles spec ~hardening =
  let base = [ no_phantom_unit; correct_despite_lies ] in
  match hardening with
  | Unhardened -> base
  | Hardened -> base @ [ validation_overhead spec ]

let byz_stamp spec hardening sched =
  C.Schedule.add_meta sched
    [
      ("protocol", byz_protocol_name hardening);
      ("n", string_of_int (Spec.n spec));
      ("t", string_of_int (Spec.processes spec));
    ]

(* A subverted pid acts every round, so byz runs never stall — but they
   must be capped: the deadline ladder retires the last honest process by
   (t+1)·L even if no claim ever attests. *)
let byz_max_rounds spec ~window =
  ((Spec.processes spec + 2) * Grid.max_active_rounds (Grid.make spec))
  + window + 64

let byz_campaign ?jobs ?(seed = 1L) ?(executions = 200) ?window ?byz
    ?(extra = []) ?max_failures ?shrink_budget spec hardening =
  let t = Spec.processes spec in
  let byz =
    match byz with Some b -> b | None -> min (max 0 ((t / 3) - 1)) (t - 1)
  in
  let window =
    match window with
    | Some w -> w
    | None ->
        let ff = Validate.run_unhardened spec in
        (2 * Metrics.rounds ff.Runner.metrics) + 2
  in
  let g = Dhw_util.Prng.create seed in
  let schedules =
    List.init executions (fun _ ->
        byz_stamp spec hardening (C.sample_byz g ~t ~window ~byz))
  in
  C.run_parallel ?jobs
    ~run:(run_byz_schedule ~max_rounds:(byz_max_rounds spec ~window) spec hardening)
    ~oracles:(byz_oracles spec ~hardening @ extra)
    ~candidates:C.schedule_candidates ~cost:C.Schedule.cost ?max_failures
    ?shrink_budget (List.to_seq schedules)

let exhaustive_campaign ?jobs ?window ?round_step ?modes ?(extra = [])
    ?max_failures ?shrink_budget spec proto =
  let window =
    match window with Some w -> w | None -> default_window spec proto
  in
  let round_step =
    match round_step with
    | Some s -> s
    | None -> max 1 ((window + 7) / 8)
  in
  let modes = Option.value modes ~default:C.default_modes in
  let t = Spec.processes spec in
  let schedules =
    Seq.map (stamp spec proto) (C.exhaustive ~t ~window ~round_step ~modes ())
  in
  C.run_parallel ?jobs
    ~run:(run_schedule spec proto)
    ~oracles:(oracles spec ~protocol:proto.Protocol.name @ extra)
    ~candidates:C.schedule_candidates ?max_failures ?shrink_budget schedules
