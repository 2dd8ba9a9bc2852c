(* The bench harness's own contracts: the exact-cell gate's verdicts on
   hand-built documents, and the exit status of malformed invocations. *)

module J = Dhw_util.Jsonw
module Table = Dhw_util.Table

let table id headers rows =
  let t = Table.create (List.map (fun h -> (h, Table.Right)) headers) in
  List.iter (Table.add_row t) rows;
  (id, t)

(* What the gate reads back: a written snapshot, parsed. *)
let snapshot tables =
  match J.parse (J.pretty (Bench_gate.document tables)) with
  | Ok doc -> doc
  | Error e -> failwith e

let e1 rows = table "E1" [ "t"; "adversary"; "work" ] rows
let row_none = [ "16"; "none"; "256" ]
let row_storm = [ "25"; "kill active @1 unit"; "400" ]

let e19 wall =
  table "E19"
    [ "campaign"; "jobs"; "wall s"; "deterministic" ]
    [ [ "sync A, 250-schedule storm"; "1"; wall; "ok" ] ]

let e24 = table "E24" [ "drop"; "units/s" ] [ [ "0 bp"; "194" ] ]
let reference = snapshot [ e1 [ row_none; row_storm ]; e19 "0.05"; e24 ]

let violations ?(ref_doc = reference) fresh =
  Bench_gate.check ~ref_doc ~fresh_doc:(Bench_gate.document fresh)

let none = Alcotest.(list string)

let test_identical_passes () =
  Alcotest.check none "every table regenerated" []
    (violations [ e1 [ row_none; row_storm ]; e19 "0.05"; e24 ]);
  Alcotest.check none "E24 and E25 are not regenerated" []
    (violations [ e1 [ row_none; row_storm ]; e19 "0.05" ])

let test_exempt_drift_passes () =
  Alcotest.check none "E19 wall time" []
    (violations [ e1 [ row_none; row_storm ]; e19 "0.21" ])

let test_exact_cell_fails () =
  Alcotest.check none "table, row key and column named"
    [ {|table E1 row 1 "25" column "work": "401", reference "400"|} ]
    (violations
       [ e1 [ row_none; [ "25"; "kill active @1 unit"; "401" ] ]; e19 "0.05" ]);
  (* a column is exempt in its own table only *)
  Alcotest.(check int)
    "wall s outside E19" 1
    (List.length
       (violations ~ref_doc:(snapshot [ table "E1" [ "wall s" ] [ [ "1" ] ] ])
          [ table "E1" [ "wall s" ] [ [ "2" ] ] ]))

let test_rows_and_tables_fail () =
  Alcotest.check none "missing row"
    [ {|table E1: missing row 1 "25"|} ]
    (violations [ e1 [ row_none ]; e19 "0.05" ]);
  Alcotest.check none "extra row"
    [ {|table E1: extra row 2 "16"|} ]
    (violations [ e1 [ row_none; row_storm; row_none ]; e19 "0.05" ]);
  Alcotest.check none "reordered rows"
    [ {|table E1 row 0: key "25", reference "16"|} ]
    (violations [ e1 [ row_storm; row_none ]; e19 "0.05" ]);
  Alcotest.check none "gated table not regenerated"
    [ "table E1 missing from the fresh run" ]
    (violations [ e19 "0.05" ])

let test_v2_rejected () =
  let v2 =
    match reference with
    | J.Obj fields ->
        J.Obj (("schema", J.Str "dhw-bench/v2") :: List.remove_assoc "schema" fields)
    | _ -> assert false
  in
  Alcotest.check none "v2 reference"
    [ {|reference schema "dhw-bench/v2", expected "dhw-bench/v3"|} ]
    (violations ~ref_doc:v2 [ e1 [ row_none; row_storm ]; e19 "0.05" ])

let test_empty_document_fails () =
  Alcotest.check none "no tables at all" [ "fresh document has no tables" ]
    (violations []);
  Alcotest.check none "no tables member" [ "fresh document has no tables" ]
    (Bench_gate.check ~ref_doc:reference
       ~fresh_doc:(J.Obj [ ("schema", J.Str Bench_gate.schema) ]))

let test_drift_fails () =
  Alcotest.(check int)
    "renamed column" 1
    (List.length
       (violations
          [ table "E1" [ "t"; "adversary"; "Work" ] [ row_none; row_storm ];
            e19 "0.05" ]));
  Alcotest.check none "unknown table" [ "table E99 missing from reference" ]
    (violations
       [ e1 [ row_none; row_storm ]; e19 "0.05"; table "E99" [ "n" ] [ [ "1" ] ] ])

(* Removed modes, the two-path gate and an unreadable reference all exit 2
   before any table is computed. *)
let test_unknown_mode_is_usage_error () =
  let null = if Sys.win32 then "NUL" else "/dev/null" in
  List.iter
    (fun args ->
      let code =
        Sys.command (Filename.quote_command "./main.exe" ~stdout:null ~stderr:null args)
      in
      Alcotest.(check int) (String.concat " " args) 2 code)
    [
      [ "scal" ]; [ "all" ]; [ "timing" ]; [ "smoke" ]; [ "--scale" ];
      [ "tables"; "--json"; "a"; "b" ]; [ "gate" ]; [ "gate"; "a"; "b" ];
      [ "gate"; "no-such-snapshot.json" ];
    ]

let () =
  Alcotest.run "bench"
    [
      ( "gate",
        [
          Alcotest.test_case "identical documents pass" `Quick test_identical_passes;
          Alcotest.test_case "exempt column drift passes" `Quick
            test_exempt_drift_passes;
          Alcotest.test_case "changed exact cell fails" `Quick test_exact_cell_fails;
          Alcotest.test_case "missing rows and tables fail" `Quick
            test_rows_and_tables_fail;
          Alcotest.test_case "v2 document is rejected" `Quick test_v2_rejected;
          Alcotest.test_case "empty document fails" `Quick test_empty_document_fails;
          Alcotest.test_case "schema drift fails" `Quick test_drift_fails;
        ] );
      ( "cli",
        [
          Alcotest.test_case "unknown mode is a usage error" `Quick
            test_unknown_mode_is_usage_error;
        ] );
    ]
