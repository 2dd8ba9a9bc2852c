(* Property tests for the √t-grid: the group and work partitions must
   exactly cover their domains for every instance shape, and reduce to the
   paper's layout on perfect squares. *)

module Grid = Doall.Grid
module Intmath = Dhw_util.Intmath

let gen_spec =
  QCheck2.Gen.(
    map (fun (n, t) -> Doall.Spec.make ~n ~t) (pair (1 -- 300) (1 -- 40)))

let prop_groups_partition =
  Helpers.qcheck_case ~count:200 ~name:"groups partition the processes" gen_spec
    (fun spec ->
      let g = Grid.make spec in
      let t = Doall.Spec.processes spec in
      let seen = Array.make t 0 in
      for grp = 1 to Grid.n_groups g do
        let lo, hi = Grid.members g grp in
        for pid = lo to hi - 1 do
          seen.(pid) <- seen.(pid) + 1
        done
      done;
      Array.for_all (( = ) 1) seen
      && List.for_all
           (fun pid ->
             let lo, hi = Grid.members g (Grid.group_of g pid) in
             lo <= pid && pid < hi)
           (List.init t Fun.id))

let prop_subchunks_partition =
  Helpers.qcheck_case ~count:200 ~name:"subchunks partition the units" gen_spec
    (fun spec ->
      let g = Grid.make spec in
      let n = Doall.Spec.n spec in
      let seen = Array.make n 0 in
      for c = 1 to Grid.n_subchunks g do
        List.iter (fun u -> seen.(u) <- seen.(u) + 1) (Grid.subchunk_units g c)
      done;
      Array.for_all (( = ) 1) seen)

let prop_subchunk_sizes =
  Helpers.qcheck_case ~count:200 ~name:"subchunk sizes bounded and ordered" gen_spec
    (fun spec ->
      let g = Grid.make spec in
      let max_size = Grid.subchunk_size_max g in
      let ok = ref true in
      let prev_hi = ref (-1) in
      for c = 1 to Grid.n_subchunks g do
        let units = Grid.subchunk_units g c in
        if List.length units > max_size || List.length units < 1 then ok := false;
        List.iter
          (fun u ->
            if u <= !prev_hi then ok := false;
            prev_hi := u)
          units
      done;
      !ok)

let prop_members_above =
  Helpers.qcheck_case ~count:200 ~name:"members_above = higher own-group pids" gen_spec
    (fun spec ->
      let g = Grid.make spec in
      let t = Doall.Spec.processes spec in
      List.for_all
        (fun pid ->
          let lo, hi = Grid.members_above g pid in
          let expected =
            List.filter
              (fun k -> k > pid && Grid.group_of g k = Grid.group_of g pid)
              (List.init t Fun.id)
          in
          List.init (max 0 (hi - lo)) (fun i -> lo + i) = expected)
        (List.init t Fun.id))

let prop_chunk_ends =
  Helpers.qcheck_case ~count:200 ~name:"chunk ends: multiples of s plus the last" gen_spec
    (fun spec ->
      let g = Grid.make spec in
      let s = Grid.group_size g in
      let last = Grid.n_subchunks g in
      Grid.is_chunk_end g last
      && List.for_all
           (fun c -> Grid.is_chunk_end g c = (c mod s = 0 || c = last))
           (List.init last (fun i -> i + 1)))

let prop_n_chunk_ends =
  Helpers.qcheck_case ~count:200 ~name:"n_chunk_ends = count of chunk ends"
    QCheck2.Gen.(pair gen_spec (1 -- 40))
    (fun (spec, s) ->
      let count g =
        let rec go c acc =
          if c > Grid.n_subchunks g then acc
          else go (c + 1) (if Grid.is_chunk_end g c then acc + 1 else acc)
        in
        go 1 0
      in
      let g = Grid.make spec in
      let s = min s (Doall.Spec.processes spec) in
      let g' = Grid.make_with_group_size spec s in
      Grid.n_chunk_ends g = count g && Grid.n_chunk_ends g' = count g')

let test_perfect_square_layout () =
  (* n = 256, t = 16: the paper's exact layout *)
  let g = Grid.make (Doall.Spec.make ~n:256 ~t:16) in
  Alcotest.(check int) "group size √t" 4 (Grid.group_size g);
  Alcotest.(check int) "√t groups" 4 (Grid.n_groups g);
  Alcotest.(check int) "t subchunks" 16 (Grid.n_subchunks g);
  Alcotest.(check int) "subchunk size n/t" 16 (Grid.subchunk_size_max g);
  Alcotest.(check (pair int int)) "group 2 members" (4, 8) (Grid.members g 2);
  Alcotest.(check (pair int int)) "above pid 5" (6, 8) (Grid.members_above g 5);
  Alcotest.(check (pair int int)) "above pid 7" (8, 8) (Grid.members_above g 7);
  Alcotest.(check int) "group of pid 5" 2 (Grid.group_of g 5);
  Alcotest.(check int) "rank of pid 5" 1 (Grid.rank_in_group g 5);
  Alcotest.(check int) "chunk ends" 4 (Grid.n_chunk_ends g);
  Alcotest.(check (list int)) "subchunk 1 units" (List.init 16 Fun.id)
    (Grid.subchunk_units g 1)

(* Every view a takeover can start from: none, every partial checkpoint
   [(c)], and every full checkpoint [(c, g)] heard from inside and from
   outside [pid]'s group. *)
let takeover_views g pid =
  let s = Grid.group_size g and n_groups = Grid.n_groups g in
  let gj = Grid.group_of g pid in
  let srcs =
    ((gj - 1) * s) :: (if n_groups = 1 then [] else [ (if gj = 1 then s else 0) ])
  in
  let cs = List.init (Grid.n_subchunks g + 1) Fun.id in
  let open Doall.Ckpt_script in
  No_msg
  :: List.map (fun c -> Last_ord { ord = Partial c; src = 0 }) cs
  @ List.concat_map
      (fun c ->
        List.concat_map
          (fun grp ->
            List.map (fun src -> Last_ord { ord = Full (c, grp); src }) srcs)
          (List.init n_groups (fun i -> i + 1)))
      cs

let test_deadline_budget_dominates () =
  (* DD separation: the budget L must exceed any active script's length,
     measured directly on the takeover script from every view. *)
  List.iter
    (fun (n, t, s) ->
      let spec = Doall.Spec.make ~n ~t in
      let g =
        match s with None -> Grid.make spec | Some s -> Grid.make_with_group_size spec s
      in
      let l = Grid.max_active_rounds g in
      for pid = 0 to t - 1 do
        List.iter
          (fun last ->
            let script = Doall.Ckpt_script.takeover_script g pid last in
            let rounds = Doall.Ckpt_script.script_rounds script in
            if rounds >= l then
              Alcotest.failf
                "script takes %d rounds >= budget %d at n=%d t=%d pid=%d from %s"
                rounds l n t pid
                (match last with
                | No_msg -> "no message"
                | Last_ord { ord; src } ->
                    Printf.sprintf "%s from %d" (Doall.Ckpt_script.show_ord ord) src))
          (takeover_views g pid)
      done)
    [ (1, 1, None); (10, 3, None); (100, 16, None); (64, 8, None); (37, 11, None);
      (200, 25, None); (5, 20, None); (1000, 30, None); (300, 40, None);
      (120, 12, Some 1); (120, 12, Some 3); (90, 20, Some 7); (50, 9, Some 9) ]

let suite =
  [
    prop_groups_partition;
    prop_subchunks_partition;
    prop_subchunk_sizes;
    prop_members_above;
    prop_chunk_ends;
    prop_n_chunk_ends;
    Alcotest.test_case "perfect-square layout" `Quick test_perfect_square_layout;
    Alcotest.test_case "deadline budget dominates scripts" `Quick test_deadline_budget_dominates;
  ]
