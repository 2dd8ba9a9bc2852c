type report = {
  spec : Spec.t;
  protocol : string;
  metrics : Simkit.Metrics.t;
  statuses : Simkit.Types.status array;
  outcome : Simkit.Kernel.run_outcome;
}

let run ?fault ?max_rounds ?trace ?obs ?spans ?audit spec (p : Protocol.t) =
  let (Protocol.Packed { proc; show; passive }) = p.make spec in
  let cfg =
    Simkit.Kernel.config ?fault ?max_rounds ?trace ?obs ?spans ?audit ~passive
      ~show ~n_processes:(Spec.processes spec) ~n_units:(Spec.n spec) ()
  in
  let result = Simkit.Kernel.run cfg proc in
  {
    spec;
    protocol = p.name;
    metrics = result.metrics;
    statuses = result.statuses;
    outcome = result.outcome;
  }

let survivors r =
  Array.fold_left
    (fun acc s -> match s with Simkit.Types.Terminated _ -> acc + 1 | _ -> acc)
    0 r.statuses

let crashed r =
  Array.fold_left
    (fun acc s -> match s with Simkit.Types.Crashed _ -> acc + 1 | _ -> acc)
    0 r.statuses

let work_complete r = Simkit.Metrics.all_units_done r.metrics

let correct r =
  r.outcome = Simkit.Kernel.Completed && (survivors r = 0 || work_complete r)

let pp ppf r =
  Format.fprintf ppf "%s on %a: %a survivors=%d %s" r.protocol Spec.pp r.spec
    Simkit.Metrics.pp_summary r.metrics (survivors r)
    (match r.outcome with
    | Simkit.Kernel.Completed -> "completed"
    | Simkit.Kernel.Stalled r -> Printf.sprintf "STALLED@%d" r
    | Simkit.Kernel.Round_limit r -> Printf.sprintf "ROUND-LIMIT@%d" r)
