(* The bench gate: an exact-cell diff of freshly regenerated E-tables
   against the committed BENCH_results.json snapshot.

   The tables are the paper's bounds on work, messages and rounds made
   executable, so every computed cell is a claim. Both documents must carry
   the current schema id. Each fresh table must exist in the reference with
   the same headers, the same row keys (first-column values) in the same
   order, and equal cells outside the measured columns in [exempt]. Every
   reference table must be regenerated, except the [ungated] ones. Titles
   are prose (E19's embeds the host's core count) and are not compared. *)

module J = Dhw_util.Jsonw

let schema = "dhw-bench/v3"

(* Measured, not computed: wall clock, throughput and minor-heap words vary
   from run to run and host to host. *)
let exempt =
  [
    ("E19", "wall s"); ("E19", "exec/s"); ("E19", "speedup");
    ("E23", "minor words"); ("E23", "words/round");
    ("E23", "words/round traced");
  ]

(* Reference tables the gate does not regenerate. E24 runs a real async
   fleet for ~9 s, and its work and oracle verdicts are already asserted by
   the fleet cases of test/test_net.ml. E25 takes ~15 s, and its
   correctness and budgets belong to @scale-smoke. *)
let ungated = [ "E24"; "E25" ]

let document tables =
  J.Obj
    [
      ("schema", J.Str schema);
      ( "tables",
        J.Arr (List.map (fun (id, t) -> Dhw_util.Table.to_json ~id t) tables) );
    ]

type table = { id : string; headers : string list; rows : string list list }

let strings = function J.Arr xs -> List.filter_map J.to_str xs | _ -> []
let field k j = Option.value (J.member k j) ~default:J.Null

let tables_of doc =
  match field "tables" doc with
  | J.Arr ts ->
      List.filter_map
        (fun t ->
          match J.to_str (field "id" t) with
          | None -> None
          | Some id ->
              let rows =
                match field "rows" t with
                | J.Arr rows -> List.map strings rows
                | _ -> []
              in
              Some { id; headers = strings (field "headers" t); rows })
        ts
  | _ -> []

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s -> (
      match J.parse s with
      | Ok doc -> Ok doc
      | Error e -> Error (Printf.sprintf "%s: parse error: %s" path e))

let key = function k :: _ -> k | [] -> ""

(* The first difference between a fresh table and its reference, if any. *)
let diff ~(ref_t : table) (t : table) =
  let rec rows i fresh refs =
    match (fresh, refs) with
    | [], [] -> None
    | r :: _, [] -> Some (Printf.sprintf "table %s: extra row %d %S" t.id i (key r))
    | [], r :: _ ->
        Some (Printf.sprintf "table %s: missing row %d %S" t.id i (key r))
    | f :: _, r :: _ when key f <> key r ->
        Some
          (Printf.sprintf "table %s row %d: key %S, reference %S" t.id i (key f)
             (key r))
    | f :: fresh, r :: refs -> (
        match cells i (key f) t.headers f r with
        | None -> rows (i + 1) fresh refs
        | d -> d)
  and cells i k headers f r =
    match (headers, f, r) with
    | [], [], [] -> None
    | h :: hs, a :: f, b :: r ->
        if a = b || List.mem (t.id, h) exempt then cells i k hs f r
        else
          Some
            (Printf.sprintf "table %s row %d %S column %S: %S, reference %S"
               t.id i k h a b)
    | _ ->
        Some
          (Printf.sprintf "table %s row %d %S: %d cells, reference %d" t.id i k
             (List.length f) (List.length r))
  in
  if t.headers <> ref_t.headers then
    Some
      (Printf.sprintf "table %s columns changed: [%s] vs reference [%s]" t.id
         (String.concat "; " t.headers)
         (String.concat "; " ref_t.headers))
  else rows 0 t.rows ref_t.rows

(* Every violation, at most one per table; [] = the gate passes. *)
let check ~ref_doc ~fresh_doc =
  let schema_violation what doc =
    match J.to_str (field "schema" doc) with
    | Some s when s = schema -> None
    | Some s -> Some (Printf.sprintf "%s schema %S, expected %S" what s schema)
    | None -> Some (Printf.sprintf "%s has no schema id" what)
  in
  let schemas =
    List.filter_map Fun.id
      [
        schema_violation "fresh document" fresh_doc;
        schema_violation "reference" ref_doc;
      ]
  in
  let refs = tables_of ref_doc and fresh = tables_of fresh_doc in
  if fresh = [] then schemas @ [ "fresh document has no tables" ]
  else
    let fresh_diffs =
      List.filter_map
        (fun t ->
          match List.find_opt (fun r -> r.id = t.id) refs with
          | None -> Some (Printf.sprintf "table %s missing from reference" t.id)
          | Some ref_t -> diff ~ref_t t)
        fresh
    in
    let unregenerated =
      List.filter_map
        (fun r ->
          if List.mem r.id ungated || List.exists (fun t -> t.id = r.id) fresh
          then None
          else Some (Printf.sprintf "table %s missing from the fresh run" r.id))
        refs
    in
    schemas @ fresh_diffs @ unregenerated

(* Read the reference, then regenerate the tables and compare. Exit status:
   0 = every gated cell matches, 1 = a difference, 2 = unreadable
   reference. *)
let run ~ref_path ~regenerate =
  match load ref_path with
  | Error e ->
      Printf.eprintf "bench gate: %s\n" e;
      2
  | Ok ref_doc -> (
      match check ~ref_doc ~fresh_doc:(document (regenerate ())) with
      | [] ->
          Printf.printf "bench gate: every gated cell matches %s\n" ref_path;
          0
      | vs ->
          List.iter (fun v -> Printf.eprintf "bench gate: %s\n" v) vs;
          1)
