(* Benchmark harness: regenerates every evaluation claim of the paper
   (experiments E1-E25, DESIGN.md section 3) and times representative runs
   with Bechamel.

     dune exec bench/main.exe                        # all tables + timings
     dune exec bench/main.exe -- tables              # logical-cost tables only
     dune exec bench/main.exe -- timing              # Bechamel only
     dune exec bench/main.exe -- smoke               # tiny E19 only (@ci)
     dune exec bench/main.exe -- --scale             # E25 scale sweep to n=10^7
     dune exec bench/main.exe -- scale-smoke         # E25 to n=10^6 + budgets (@ci)
     dune exec bench/main.exe -- gate REF NEW        # structural diff vs snapshot
     dune exec bench/main.exe -- --json BENCH_results.json
                                  # also write the dhw-bench/v2 document

   Schema note: dhw-bench/v2 = v1 plus the E25 scale table; documents are
   otherwise shape-identical, so v1 consumers only need the id bump. *)

module J = Dhw_util.Jsonw

let timing_json (t : Bench_timing.timing) =
  J.Obj
    [
      ("benchmark", J.Str t.Bench_timing.benchmark);
      ("ns_per_run", J.Float t.Bench_timing.ns_per_run);
      ( "r_square",
        match t.Bench_timing.r_square with Some r -> J.Float r | None -> J.Null );
    ]

let modes = [ "all"; "tables"; "timing"; "smoke"; "scale"; "scale-smoke" ]

let usage =
  "usage: main.exe [all|tables|timing|smoke|scale|scale-smoke] [--json [PATH]]\n\
  \       main.exe gate REF NEW"

let () =
  match Array.to_list Sys.argv with
  | _ :: "gate" :: ref_path :: new_path :: [] ->
      exit (Bench_gate.run ~ref_path ~new_path)
  | _ :: args ->
      let rec parse what json = function
        | [] -> (what, json)
        | [ "--json" ] -> (what, Some "BENCH_results.json")
        | "--json" :: path :: rest -> parse what (Some path) rest
        | "--scale" :: rest -> parse "scale" json rest
        | "--scale-smoke" :: rest -> parse "scale-smoke" json rest
        | w :: rest -> parse w json rest
      in
      let what, json = parse "all" None args in
      if not (List.mem what modes) then begin
        prerr_endline usage;
        exit 2
      end;
      let violations = ref [] in
      (match what with
      | "smoke" -> Bench_tables.smoke ()
      | "scale" -> Bench_tables.scale ()
      | "scale-smoke" -> violations := Bench_tables.scale_smoke ()
      | "all" | "tables" -> Bench_tables.all ()
      | _ -> ());
      let timings =
        if what = "all" || what = "timing" then Bench_timing.run () else []
      in
      (match json with
      | None -> ()
      | Some path ->
          let doc =
            J.Obj
              [
                ("schema", J.Str "dhw-bench/v2");
                ( "tables",
                  J.Arr
                    (List.map
                       (fun (id, tbl) -> Dhw_util.Table.to_json ~id tbl)
                       (Bench_tables.tables ())) );
                ("timings", J.Arr (List.map timing_json timings));
              ]
          in
          let oc = open_out path in
          output_string oc (J.pretty doc);
          output_char oc '\n';
          close_out oc;
          Printf.printf "\nwritten: %s\n" path);
      print_newline ();
      if !violations <> [] then begin
        List.iter (fun v -> Printf.eprintf "scale budget: %s\n" v) !violations;
        exit 1
      end
  | [] -> ()
