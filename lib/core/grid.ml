module Intmath = Dhw_util.Intmath

type t = {
  spec : Spec.t;
  s : int; (* group size, ⌈√t⌉ *)
  n_groups : int;
  n_sub : int; (* S *)
}

let make_with_group_size spec s =
  let tt = Spec.processes spec in
  if s < 1 || s > tt then invalid_arg "Grid.make_with_group_size";
  let n = Spec.n spec in
  (* Subchunks are tied to the partial-checkpoint frequency: with groups of
     size s there are min(t, n) subchunks regardless, but chunk boundaries
     land every s subchunks, so the trade-off of Section 2 moves with s. *)
  { spec; s; n_groups = Intmath.ceil_div tt s; n_sub = min tt n }

let make spec =
  make_with_group_size spec (Intmath.isqrt_up (Spec.processes spec))

let spec g = g.spec
let group_size g = g.s
let n_groups g = g.n_groups

let group_of g pid =
  if pid < 0 || pid >= Spec.processes g.spec then invalid_arg "Grid.group_of";
  (pid / g.s) + 1

let members g grp =
  if grp < 1 || grp > g.n_groups then invalid_arg "Grid.members";
  ((grp - 1) * g.s, min (grp * g.s) (Spec.processes g.spec))

let members_above g pid =
  let _, hi = members g (group_of g pid) in
  (pid + 1, hi)

let rank_in_group g pid = pid mod g.s

let n_subchunks g = g.n_sub

let subchunk_range g c =
  if c < 1 || c > g.n_sub then invalid_arg "Grid.subchunk_range";
  let n = Spec.n g.spec in
  ((c - 1) * n / g.n_sub, c * n / g.n_sub)

let subchunk_units g c =
  if c < 1 || c > g.n_sub then invalid_arg "Grid.subchunk_units";
  let lo, hi = subchunk_range g c in
  List.init (hi - lo) (fun i -> lo + i)

let subchunk_size_max g = Intmath.ceil_div (Spec.n g.spec) g.n_sub

let is_chunk_end g c = c mod g.s = 0 || c = g.n_sub

(* the multiples of s in [1, S], plus S itself when it is not one *)
let n_chunk_ends g = Intmath.ceil_div g.n_sub g.s

let max_active_rounds g =
  let n = Spec.n g.spec in
  (* Work rounds + one partial checkpoint per subchunk + two broadcast rounds
     per (full checkpoint, group) pair + takeover prologue slack. *)
  let full_rounds = 2 * g.n_groups * n_chunk_ends g in
  n + g.n_sub + full_rounds + (2 * g.n_groups) + 4
