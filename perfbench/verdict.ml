(* [perf.exe compare]: judge a candidate set of runs against a baseline,
   metric by metric, under the bounds fixed in BENCHMARK.json.

   For each metric the two sides' samples (per-rep values) are reduced to
   medians. A count the benchmark knows to be exact must repeat exactly.
   Otherwise the candidate regresses when its median is worse than the
   baseline's by more than the bound (a share of the baseline median);
   when either side's own quartile spread is wider than the bound the
   comparison cannot tell, and the metric is unresolved — unless every
   candidate sample beats every baseline sample. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (* None: a per-layer metric, reported only *)
}

type side = { samples : float list; exact : bool }

type t =
  | Exact_match
  | Exact_mismatch of float * float
  | Within of float  (* the change in the worse direction, as a share *)
  | Better_everywhere
  | Regressed of float
  | Unresolved of float  (* the wider of the two spreads *)
  | Reported of float  (* no bound: the signed change, as a share *)

(* Positive = the candidate is worse. *)
let worsening m ~base ~cand =
  if base = 0. then (if cand = base then 0. else infinity)
  else
    let d = (cand -. base) /. Float.abs base in
    match m.better with Lower -> d | Higher -> -.d

let all_better m a b =
  let beats x y = match m.better with Lower -> x < y | Higher -> x > y in
  List.for_all (fun y -> List.for_all (fun x -> beats y x) a.samples) b.samples

let judge m ~base ~cand =
  let mb = Stats.median base.samples and mc = Stats.median cand.samples in
  if base.exact && cand.exact then
    if mb = mc then Exact_match else Exact_mismatch (mb, mc)
  else
    let w = worsening m ~base:mb ~cand:mc in
    match m.bound with
    | None -> Reported w
    | Some bound ->
        let s = Float.max (Stats.spread base.samples) (Stats.spread cand.samples) in
        if s > bound then
          if all_better m base cand then Better_everywhere else Unresolved s
        else if w > bound then Regressed w
        else Within w

let failing = function
  | Exact_mismatch _ | Regressed _ -> true
  | Exact_match | Within _ | Better_everywhere | Unresolved _ | Reported _ ->
      false

let to_string = function
  | Exact_match -> "exact, identical"
  | Exact_mismatch (a, b) -> Printf.sprintf "EXACT COUNT CHANGED %.17g -> %.17g" a b
  | Within w -> Printf.sprintf "ok (%+.1f%% worse)" (100. *. w)
  | Better_everywhere -> "better in every sample"
  | Regressed w -> Printf.sprintf "REGRESSED (%+.1f%% worse)" (100. *. w)
  | Unresolved s -> Printf.sprintf "unresolved (spread %.1f%%)" (100. *. s)
  | Reported w -> Printf.sprintf "%+.1f%% worse" (100. *. w)

(* ---- BENCHMARK.json -------------------------------------------------- *)

module J = Dhw_util.Jsonw

let field k j conv =
  match Option.bind (J.member k j) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing or malformed field %S" k)

let metric_of_json ~bounded j =
  {
    name = field "name" j J.to_str;
    unit_ = field "unit" j J.to_str;
    better =
      (match field "better" j J.to_str with
      | "lower" -> Lower
      | "higher" -> Higher
      | s -> failwith (Printf.sprintf "better must be lower or higher, not %S" s));
    bound = (if bounded then Some (field "bound" j J.to_float) else None);
  }

let list k j = match J.member k j with Some (J.Arr l) -> l | _ -> failwith k

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

type spec = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let spec_of_json j =
  {
    workloads = List.map (fun w -> field "name" w J.to_str) (list "workloads" j);
    end_to_end = List.map (metric_of_json ~bounded:true) (list "end_to_end" j);
    per_layer = List.map (metric_of_json ~bounded:false) (list "per_layer" j);
  }
