(* Reference model of Doall.Ckpt_script: the eager list builder it replaced.
   A takeover materialises the whole remaining script — every unit range and
   every broadcast with its recipient list — and [run_active] pops one action
   per round. The cursor in the library must take the same actions in the
   same rounds; test_ckpt_script.ml checks that, step by step. The group
   membership lists are computed here from the group size, not through
   [Grid.members], so the law also covers the library's pid ranges. *)

open Simkit.Types
open Doall.Ckpt_script
module Grid = Doall.Grid

type action = Do_units of int * int | Bcast of ord * pid list

let members grid grp =
  let s = Grid.group_size grid in
  let t = Doall.Spec.processes (Grid.spec grid) in
  let lo = (grp - 1) * s in
  let hi = min (grp * s) t - 1 in
  List.init (hi - lo + 1) (fun i -> lo + i)

let members_above grid pid =
  List.filter (fun k -> k > pid) (members grid (Grid.group_of grid pid))

let script_rounds script =
  List.fold_left
    (fun acc -> function
      | Do_units (lo, hi) -> acc + (hi - lo)
      | Bcast _ -> acc + 1)
    0 script

let partial_ckpt grid j c = [ Bcast (Partial c, members_above grid j) ]

let full_ckpt grid j c l =
  let num_groups = Grid.n_groups grid in
  let rec go g acc =
    if g > num_groups then List.rev acc
    else
      go (g + 1)
        (Bcast (Full (c, g), members_above grid j)
        :: Bcast (Full (c, g), members grid g)
        :: acc)
  in
  go l []

let work_script grid j from_sub =
  let last_sub = Grid.n_subchunks grid in
  let gj = Grid.group_of grid j in
  let rec go c acc =
    if c > last_sub then List.concat (List.rev acc)
    else
      let lo, hi = Grid.subchunk_range grid c in
      let units = if hi > lo then [ Do_units (lo, hi) ] else [] in
      let ckpts =
        partial_ckpt grid j c
        @ if Grid.is_chunk_end grid c then full_ckpt grid j c (gj + 1) else []
      in
      go (c + 1) ((units @ ckpts) :: acc)
  in
  go from_sub []

let takeover_script grid j last =
  let gj = Grid.group_of grid j in
  match last with
  | No_msg -> partial_ckpt grid j 0 @ work_script grid j 1
  | Last_ord { ord = Partial c; _ } ->
      partial_ckpt grid j c
      @ (if c > 0 && c mod Grid.group_size grid = 0 then full_ckpt grid j c (gj + 1)
         else [])
      @ work_script grid j (c + 1)
  | Last_ord { ord = Full (c, g); src } ->
      let prologue =
        if Grid.group_of grid src <> gj then
          partial_ckpt grid j c @ full_ckpt grid j c (g + 1)
        else Bcast (Full (c, g), members_above grid j) :: full_ckpt grid j c (g + 1)
      in
      prologue @ work_script grid j (c + 1)

let run_active ~inject ?(map_dst = Fun.id) ?(map_unit = Fun.id) r script =
  match script with
  | [] -> { state = []; sends = []; work = []; terminate = true; wakeup = None }
  | Do_units (lo, hi) :: rest ->
      let rest = if lo + 1 < hi then Do_units (lo + 1, hi) :: rest else rest in
      {
        state = rest;
        sends = [];
        work = [ map_unit lo ];
        terminate = rest = [];
        wakeup = Some (r + 1);
      }
  | Bcast (m, dsts) :: rest ->
      {
        state = rest;
        sends = List.map (fun dst -> { dst = map_dst dst; payload = inject m }) dsts;
        work = [];
        terminate = rest = [];
        wakeup = Some (r + 1);
      }
