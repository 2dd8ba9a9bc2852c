(* Benchmark harness: regenerates every evaluation claim of the paper
   (experiments E1-E25, DESIGN.md section 3) as tables.

     dune exec bench/main.exe                    # E1-E25 (the tables mode)
     dune exec bench/main.exe -- scale           # E25 scale sweep to n=10^7
     dune exec bench/main.exe -- scale-smoke     # E25 to n=10^6 + budgets (@ci)
     dune exec bench/main.exe -- gate REF        # E1-E23 vs REF, cell for cell
     dune exec bench/main.exe -- tables --json BENCH_results.json
                                 # also write the dhw-bench/v3 document

   E21 and E24 run real dhw_node processes; without bin/dhw_node.exe
   (dune build @all) their rows read "skipped". Wall-clock timing is
   perfbench/'s job.

   Schema note: dhw-bench/v3 is v2 without the "timings" array (Bechamel
   wall-clock entries, no longer produced); v2 was v1 plus the E25 table.
   The tables are otherwise shape-identical, so a v2 consumer needs only the
   id bump and to stop reading "timings". *)

let usage =
  "usage: main.exe [tables|scale|scale-smoke] [--json [PATH]]\n\
  \       main.exe gate REF"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gate"; ref_path ] ->
      exit
        (Bench_gate.run ~ref_path ~regenerate:(fun () ->
             Bench_tables.echo := false;
             Bench_tables.gated ();
             Bench_tables.tables ()))
  | args ->
      let mode, rest =
        match args with
        | (("tables" | "scale" | "scale-smoke") as mode) :: rest -> (mode, rest)
        | rest -> ("tables", rest)
      in
      let json =
        match rest with
        | [] -> None
        | [ "--json" ] -> Some "BENCH_results.json"
        | [ "--json"; path ] -> Some path
        | _ ->
            prerr_endline usage;
            exit 2
      in
      let violations =
        match mode with
        | "scale" ->
            Bench_tables.scale ();
            []
        | "scale-smoke" -> Bench_tables.scale_smoke ()
        | _ ->
            Bench_tables.all ();
            []
      in
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc
            (Dhw_util.Jsonw.pretty (Bench_gate.document (Bench_tables.tables ())));
          output_char oc '\n';
          close_out oc;
          Printf.printf "\nwritten: %s\n" path)
        json;
      print_newline ();
      if violations <> [] then begin
        List.iter (fun v -> Printf.eprintf "scale budget: %s\n" v) violations;
        exit 1
      end
