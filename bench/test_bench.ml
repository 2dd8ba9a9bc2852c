(* The bench harness's own contracts: the snapshot gate's verdicts on
   hand-built documents, and the exit status of an unknown mode. *)

module J = Dhw_util.Jsonw

let table id headers keys =
  J.Obj
    [
      ("id", J.Str id);
      ("headers", J.Arr (List.map (fun h -> J.Str h) headers));
      ("rows", J.Arr (List.map (fun k -> J.Arr [ J.Str k; J.Str "1" ]) keys));
    ]

let doc tables =
  J.Obj [ ("schema", J.Str Bench_gate.expected_schema); ("tables", J.Arr tables) ]

let reference =
  doc [ table "E25" [ "protocol"; "n" ] [ "A"; "A"; "B" ] ]

let violations new_doc = Bench_gate.check ~ref_doc:reference ~new_doc

let test_matching_shape_passes () =
  Alcotest.(check (list string))
    "a truncated sweep is a subsequence" []
    (violations (doc [ table "E25" [ "protocol"; "n" ] [ "A"; "B" ] ]))

let test_empty_document_fails () =
  Alcotest.(check (list string))
    "no tables at all" [ "fresh document has no tables" ] (violations (doc []));
  Alcotest.(check (list string))
    "no tables member" [ "fresh document has no tables" ]
    (violations (J.Obj [ ("schema", J.Str Bench_gate.expected_schema) ]))

let test_drift_fails () =
  Alcotest.(check int)
    "renamed column" 1
    (List.length (violations (doc [ table "E25" [ "protocol"; "N" ] [ "A" ] ])));
  Alcotest.(check int)
    "unknown table" 1
    (List.length (violations (doc [ table "E99" [ "protocol"; "n" ] [ "A" ] ])))

let test_unknown_mode_is_usage_error () =
  let null = if Sys.win32 then "NUL" else "/dev/null" in
  let code =
    Sys.command
      (Filename.quote_command "./main.exe" ~stdout:null ~stderr:null [ "scal" ])
  in
  Alcotest.(check int) "exit code" 2 code

let () =
  Alcotest.run "bench"
    [
      ( "gate",
        [
          Alcotest.test_case "matching shape passes" `Quick test_matching_shape_passes;
          Alcotest.test_case "empty document fails" `Quick test_empty_document_fails;
          Alcotest.test_case "schema drift fails" `Quick test_drift_fails;
        ] );
      ( "cli",
        [
          Alcotest.test_case "unknown mode is a usage error" `Quick
            test_unknown_mode_is_usage_error;
        ] );
    ]
