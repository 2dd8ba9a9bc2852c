(* The result of one benchmark run, and its JSON forms.

   [summary_line] is the one-line object the benchmark prints last on
   stdout (value and unit per metric). [to_json] is the fuller document
   written by [--json]: it adds every metric's per-rep samples and whether
   the benchmark knows the value to be an exact count, which is what
   [compare] needs to take medians and spreads. *)

module J = Dhw_util.Jsonw

type measured = {
  name : string;
  unit_ : string;
  value : float;
  samples : float list;
  exact : bool;
}

type run = {
  workload : string;
  seed : int64;
  trace : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : measured list;
}

let schema = "dhw-perf/v1"

let summary_line r =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool r.correct);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ]))
                r.metrics) );
       ])

let run_to_json r =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("seed", J.Str (Int64.to_string r.seed));
      ("trace", J.Bool r.trace);
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               ( m.name,
                 J.Obj
                   [
                     ("value", J.Float m.value);
                     ("unit", J.Str m.unit_);
                     ("exact", J.Bool m.exact);
                     ("samples", J.Arr (List.map (fun x -> J.Float x) m.samples));
                   ] ))
             r.metrics) );
    ]

let to_json runs =
  J.Obj [ ("schema", J.Str schema); ("runs", J.Arr (List.map run_to_json runs)) ]

let get k j conv =
  match Option.bind (J.member k j) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "run document: bad field %S" k)

let to_bool = function J.Bool b -> Some b | _ -> None

let run_of_json j =
  let metrics =
    match J.member "metrics" j with
    | Some (J.Obj fields) ->
        List.map
          (fun (name, m) ->
            {
              name;
              unit_ = get "unit" m J.to_str;
              value = get "value" m J.to_float;
              exact = get "exact" m to_bool;
              samples =
                (match J.member "samples" m with
                | Some (J.Arr xs) -> List.filter_map J.to_float xs
                | _ -> []);
            })
          fields
    | _ -> failwith "run document: no metrics"
  in
  {
    workload = get "workload" j J.to_str;
    seed = Int64.of_string (get "seed" j J.to_str);
    trace = get "trace" j to_bool;
    correct = get "correct" j to_bool;
    attempted = get "attempted" j J.to_int;
    failed = get "failed" j J.to_int;
    metrics;
  }

let of_json j =
  (match J.member "schema" j with
  | Some (J.Str s) when s = schema -> ()
  | _ -> failwith (Printf.sprintf "not a %s document" schema));
  match J.member "runs" j with
  | Some (J.Arr runs) -> List.map run_of_json runs
  | _ -> failwith "run document: no runs"
