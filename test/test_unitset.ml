(* Equivalence laws for Dhw_util.Unitset: every operation must agree with
   the naive Set.Make(Int) model on random op sequences, and the canonical
   representation invariant must hold after every step. The interval set is
   the scale representation under all protocol views and the kernel metrics,
   so a divergence here would silently corrupt protocol state at any n. *)

module U = Dhw_util.Unitset
module M = Set.Make (Int)
module Gen = QCheck2.Gen

(* ops over a small universe so collisions/adjacency/coalescing all happen *)
type op =
  | Add of int
  | Remove of int
  | Add_range of int * int
  | Union_range of int * int  (* union with of_range *)
  | Inter_range of int * int
  | Diff_range of int * int

let universe = 64

let gen_op =
  let open Gen in
  let elt = 0 -- (universe - 1) in
  let range = pair elt (0 -- 16) in
  oneof
    [
      map (fun x -> Add x) elt;
      map (fun x -> Remove x) elt;
      map (fun (lo, len) -> Add_range (lo, lo + len)) range;
      map (fun (lo, len) -> Union_range (lo, lo + len)) range;
      map (fun (lo, len) -> Inter_range (lo, lo + len)) range;
      map (fun (lo, len) -> Diff_range (lo, lo + len)) range;
    ]

let show_op = function
  | Add x -> Printf.sprintf "add %d" x
  | Remove x -> Printf.sprintf "remove %d" x
  | Add_range (lo, hi) -> Printf.sprintf "add_range %d %d" lo hi
  | Union_range (lo, hi) -> Printf.sprintf "union [%d,%d)" lo hi
  | Inter_range (lo, hi) -> Printf.sprintf "inter [%d,%d)" lo hi
  | Diff_range (lo, hi) -> Printf.sprintf "diff [%d,%d)" lo hi

let m_range lo hi = M.of_list (List.init (max 0 (hi - lo)) (fun i -> lo + i))

let apply (u, m) = function
  | Add x -> (U.add x u, M.add x m)
  | Remove x -> (U.remove x u, M.remove x m)
  | Add_range (lo, hi) -> (U.add_range lo hi u, M.union m (m_range lo hi))
  | Union_range (lo, hi) -> (U.union u (U.of_range lo hi), M.union m (m_range lo hi))
  | Inter_range (lo, hi) -> (U.inter u (U.of_range lo hi), M.inter m (m_range lo hi))
  | Diff_range (lo, hi) -> (U.diff u (U.of_range lo hi), M.diff m (m_range lo hi))

(* Full observational check after every step: same elements, same derived
   queries, and the canonical-representation invariant. *)
let agrees u m =
  U.invariant_ok u
  && U.elements u = M.elements m
  && U.cardinal u = M.cardinal m
  && U.is_empty u = M.is_empty m
  && (M.is_empty m
     || U.min_elt u = M.min_elt m
        && U.max_elt u = M.max_elt m
        && U.nth u (M.cardinal m - 1) = M.max_elt m)
  && List.for_all
       (fun x ->
         let rec run_end y = if M.mem y m then run_end (y + 1) else y in
         U.mem x u = M.mem x m && U.run_end x u = if M.mem x m then run_end x else x)
       (List.init universe Fun.id)

let model_law =
  Helpers.qcheck_case ~count:300 ~name:"unitset agrees with Set.Make(Int) model"
    (Gen.list_size (Gen.(1 -- 40)) gen_op)
    (fun ops ->
      let _ =
        List.fold_left
          (fun (u, m) op ->
            let u', m' = apply (u, m) op in
            if not (agrees u' m') then
              QCheck2.Test.fail_reportf "diverged after %s: unitset=%s model=[%s]"
                (show_op op)
                (Format.asprintf "%a" U.pp u')
                (String.concat ";" (List.map string_of_int (M.elements m')));
            (u', m'))
          (U.empty, M.empty) ops
      in
      true)

(* Binary ops between two independently built sets (not just set-vs-range). *)
let binop_law =
  Helpers.qcheck_case ~count:300 ~name:"unitset binary ops agree with model"
    (Gen.pair (Gen.list_size Gen.(1 -- 25) gen_op) (Gen.list_size Gen.(1 -- 25) gen_op))
    (fun (ops1, ops2) ->
      let build ops = List.fold_left apply (U.empty, M.empty) ops in
      let u1, m1 = build ops1 and u2, m2 = build ops2 in
      agrees (U.union u1 u2) (M.union m1 m2)
      && agrees (U.inter u1 u2) (M.inter m1 m2)
      && agrees (U.diff u1 u2) (M.diff m1 m2)
      && U.subset u1 u2 = M.subset m1 m2
      && U.equal u1 u2 = M.equal m1 m2)

(* A merge allocates only its result: a header and two words per run, or
   nothing when the result is empty or one of the operands handed back.
   Each operation runs once before it is measured, so its domain's
   scratch buffer has grown to size. *)
let alloc_law =
  Helpers.qcheck_case ~count:300 ~name:"unitset merges allocate only their result"
    (Gen.triple
       (Gen.list_size Gen.(1 -- 25) gen_op)
       (Gen.list_size Gen.(1 -- 25) gen_op)
       (Gen.pair Gen.(0 -- 70) Gen.(0 -- 70)))
    (fun (ops1, ops2, (lo, len)) ->
      let build ops = fst (List.fold_left apply (U.empty, M.empty) ops) in
      let a = build ops1 and b = build ops2 in
      let words f =
        ignore (f ());
        let before = Gc.minor_words () in
        let r = f () in
        let w = Gc.minor_words () -. before in
        let expected =
          if U.is_empty r || r == a || r == b then 0. else float_of_int ((2 * U.intervals r) + 1)
        in
        w = expected
      in
      words (fun () -> U.union a b)
      && words (fun () -> U.inter a b)
      && words (fun () -> U.diff a b)
      && words (fun () -> U.slice a ~lo ~hi:(lo + len)))

(* slice by rank = take a window of the sorted element list *)
let slice_law =
  Helpers.qcheck_case ~count:300 ~name:"unitset slice/nth agree with sorted list"
    (Gen.triple (Gen.list_size Gen.(1 -- 30) gen_op) Gen.(0 -- 70) Gen.(0 -- 70))
    (fun (ops, lo, len) ->
      let u, m = List.fold_left apply (U.empty, M.empty) ops in
      let hi = lo + len in
      let elts = M.elements m in
      let expected =
        List.filteri (fun i _ -> i >= lo && i < hi) elts
      in
      let s = U.slice u ~lo ~hi in
      U.invariant_ok s
      && U.elements s = expected
      && List.for_all2
           (fun k x -> U.nth u k = x)
           (List.init (List.length elts) Fun.id)
           elts)

(* contains_range lo hi = the whole half-open interval is present *)
let contains_law =
  Helpers.qcheck_case ~count:300 ~name:"unitset contains_range agrees with model"
    (Gen.triple (Gen.list_size Gen.(1 -- 30) gen_op) Gen.(0 -- 64) Gen.(0 -- 12))
    (fun (ops, lo, len) ->
      let u, m = List.fold_left apply (U.empty, M.empty) ops in
      let hi = lo + len in
      U.contains_range lo hi u = M.subset (m_range lo hi) m)

(* of_list on arbitrary duplicated input *)
let of_list_law =
  Helpers.qcheck_case ~count:300 ~name:"unitset of_list canonicalizes arbitrary input"
    (Gen.list_size Gen.(0 -- 60) Gen.(0 -- 30))
    (fun xs ->
      let u = U.of_list xs in
      U.invariant_ok u && U.elements u = M.elements (M.of_list xs))

(* Small-n end-to-end: with the protocols rewired onto interval sets, the
   live CLI report must stay byte-identical to the committed golden fixture
   (same args as the @golden-cli-diff alias, asserted here from the suite
   too so `dune exec test/test_main.exe` alone catches drift). *)
let report_stable () =
  let cli =
    let candidates =
      [ "../bin/doall_cli.exe"; "_build/default/bin/doall_cli.exe" ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some c -> c
    | None -> Alcotest.fail "doall_cli.exe not found (run under dune)"
  in
  let fixture =
    let candidates =
      [ "fixtures/report_golden.json"; "test/fixtures/report_golden.json" ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some f -> f
    | None -> Alcotest.fail "report_golden.json fixture not found"
  in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let out = Filename.temp_file "dhw-unitset-report" ".json" in
  let code =
    Sys.command
      (Filename.quote_command cli ~stdout:out
         [ "run"; "-p"; "a"; "-n"; "24"; "-t"; "6"; "--crash"; "0@3";
           "--crash"; "2@7"; "--report"; "json" ])
  in
  Alcotest.(check int) "cli exit" 0 code;
  let fresh = read out in
  Sys.remove out;
  Alcotest.(check string) "report byte-identical to golden fixture"
    (read fixture) fresh

let suite =
  [
    model_law;
    binop_law;
    alloc_law;
    slice_law;
    contains_law;
    of_list_law;
    Alcotest.test_case "protocol D report stable on Unitset views" `Quick
      report_stable;
  ]
