(* The perf-regression gate: structural diff of a freshly generated
   dhw-bench document against the committed BENCH_results.json snapshot.

   Timings and measured counts drift run to run — the *shape* must not:
   the schema id, each table's column set, and each table's row keys
   (first-column values) are contracts consumed by downstream tooling.
   The fresh document must carry at least one table. A fresh table must
   exist in the reference, carry exactly the same columns, and its row
   keys must appear in the reference in order (a subsequence, because
   smoke runs truncate sweeps: jobs 1-2 of 1-8, n<=10^6 of a 10^7 sweep).
   Anything else is schema drift and fails the build. *)

module J = Dhw_util.Jsonw

let expected_schema = "dhw-bench/v2"

type table_shape = { id : string; headers : string list; keys : string list }

let shapes_of doc =
  match J.member "tables" doc with
  | Some (J.Arr ts) ->
      List.filter_map
        (fun t ->
          match Option.bind (J.member "id" t) J.to_str with
          | None -> None
          | Some id ->
              let headers =
                match J.member "headers" t with
                | Some (J.Arr hs) -> List.filter_map J.to_str hs
                | _ -> []
              in
              let keys =
                match J.member "rows" t with
                | Some (J.Arr rows) ->
                    List.filter_map
                      (function
                        | J.Arr (c0 :: _) -> J.to_str c0 | _ -> None)
                      rows
                | _ -> []
              in
              Some { id; headers; keys })
        ts
  | _ -> []

(* Row labels embed numeric parameters that smoke runs legitimately shrink
   ("sync A, 30-schedule storm" vs the reference's 250) — strip digit runs
   before comparing so only the label structure is load-bearing. *)
let normalize_key s =
  String.init (String.length s) (fun i ->
      match s.[i] with '0' .. '9' -> '#' | c -> c)
  |> String.split_on_char '#'
  |> List.filter (fun part -> part <> "")
  |> String.concat ""

let rec is_subseq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
      if String.equal x y then is_subseq xs' ys' else is_subseq xs ys'

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

let check ~ref_doc ~new_doc =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let schema_of doc = Option.bind (J.member "schema" doc) J.to_str in
  (match schema_of new_doc with
  | Some s when s = expected_schema -> ()
  | Some s -> add "fresh document schema %S, expected %S" s expected_schema
  | None -> add "fresh document has no schema id");
  (match schema_of ref_doc with
  | Some s when s = expected_schema -> ()
  | Some s -> add "reference schema %S, expected %S" s expected_schema
  | None -> add "reference has no schema id");
  let ref_shapes = shapes_of ref_doc in
  let new_shapes = shapes_of new_doc in
  if new_shapes = [] then add "fresh document has no tables";
  List.iter
    (fun nt ->
      match List.find_opt (fun rt -> rt.id = nt.id) ref_shapes with
      | None -> add "table %s missing from reference" nt.id
      | Some rt ->
          if nt.headers <> rt.headers then
            add "table %s columns changed: [%s] vs reference [%s]" nt.id
              (String.concat "; " nt.headers)
              (String.concat "; " rt.headers);
          if
            not
              (is_subseq
                 (List.map normalize_key nt.keys)
                 (List.map normalize_key rt.keys))
          then
            add "table %s row keys are not a subsequence of the reference"
              nt.id)
    new_shapes;
  List.rev !violations

(* Exit status: 0 = shapes match, 1 = drift, 2 = unreadable inputs. *)
let run ~ref_path ~new_path =
  match (load ref_path, load new_path) with
  | Error e, _ | _, Error e ->
      Printf.eprintf "bench gate: %s\n" e;
      2
  | Ok ref_doc, Ok new_doc -> (
      match check ~ref_doc ~new_doc with
      | [] ->
          Printf.printf "bench gate: %s structurally matches %s\n" new_path
            ref_path;
          0
      | vs ->
          List.iter (fun v -> Printf.eprintf "bench gate: %s\n" v) vs;
          1)
