open Simkit.Types

type ord = Partial of int | Full of int * int

let show_ord = function
  | Partial c -> Printf.sprintf "(%d)" c
  | Full (c, g) -> Printf.sprintf "(%d,g%d)" c g

type last = No_msg | Last_ord of { ord : ord; src : pid }

let c_of_last = function
  | No_msg -> 0
  | Last_ord { ord = Partial c; _ } | Last_ord { ord = Full (c, _); _ } -> c

(* Who runs the script: fixed for the script's whole life. *)
type owner = { grid : Grid.t; j : pid }

(* The action the active process takes this round. [Partial_ckpt]'s
   [full_from] is the first group the full checkpoint of [c] goes to next;
   past [n_groups] there is none. *)
type script =
  | Units of { o : owner; c : int; lo : int; hi : int }
  | Partial_ckpt of { o : owner; c : int; full_from : int }
  | Full_group of { o : owner; c : int; g : int }
  | Full_echo of { o : owner; c : int; g : int }
  | Finished

let partial_ckpt o c =
  let full_from =
    if Grid.is_chunk_end o.grid c then Grid.group_of o.grid o.j + 1
    else Grid.n_groups o.grid + 1
  in
  Partial_ckpt { o; c; full_from }

(* S = min t n, so no subchunk is empty *)
let subchunk o c =
  if c > Grid.n_subchunks o.grid then Finished
  else
    let lo, hi = Grid.subchunk_range o.grid c in
    Units { o; c; lo; hi }

let full_ckpt o c g =
  if g > Grid.n_groups o.grid then subchunk o (c + 1) else Full_group { o; c; g }

let next = function
  | Units { o; c; lo; hi } ->
      if lo + 1 < hi then Units { o; c; lo = lo + 1; hi } else partial_ckpt o c
  | Partial_ckpt { o; c; full_from } -> full_ckpt o c full_from
  | Full_group { o; c; g } -> Full_echo { o; c; g }
  | Full_echo { o; c; g } -> full_ckpt o c (g + 1)
  | Finished -> Finished

let work_script grid j from_sub = subchunk { grid; j } from_sub

let takeover_script grid j last =
  let o = { grid; j } in
  let no_full = Grid.n_groups grid + 1 in
  match last with
  | No_msg ->
      (* An empty "(0)" partial checkpoint keeps the invariant that the first
         takeover action is an own-group broadcast (Protocol B's fictitious
         round-0 message makes this case unreachable there, but Protocol A
         reaches it when a process saw no message at all). *)
      Partial_ckpt { o; c = 0; full_from = no_full }
  | Last_ord { ord = Partial c; _ } ->
      let full_from =
        if c > 0 && c mod Grid.group_size grid = 0 then Grid.group_of grid j + 1
        else no_full
      in
      Partial_ckpt { o; c; full_from }
  | Last_ord { ord = Full (c, g); src } ->
      if Grid.group_of grid src <> Grid.group_of grid j then
        (* the sender was informing my whole group (g = g_j): spread the
           news in my remainder, then continue the full checkpoint with
           the next group *)
        Partial_ckpt { o; c; full_from = g + 1 }
      else
        (* the sender was echoing to our group that group g was informed:
           re-echo, then continue from group g+1 *)
        Full_echo { o; c; g }

let script_rounds script =
  let rec go acc = function
    | Finished -> acc
    | Units { o; c; lo; hi } -> go (acc + (hi - lo)) (partial_ckpt o c)
    | script -> go (acc + 1) (next script)
  in
  go 0 script

let knows_all_done grid j last =
  let last_sub = Grid.n_subchunks grid in
  match last with
  | No_msg -> false
  | Last_ord { ord = Partial c; _ } -> c = last_sub
  | Last_ord { ord = Full (c, g); _ } -> c = last_sub && g = Grid.group_of grid j

let run_active ~inject ?(map_dst = Fun.id) ?(map_unit = Fun.id) r script =
  let advance ~sends ~work =
    let state = next script in
    {
      state;
      sends;
      work;
      terminate = (match state with Finished -> true | _ -> false);
      wakeup = Some (r + 1);
    }
  in
  let bcast m (lo, hi) =
    let payload = inject m in
    let rec go k acc =
      if k < lo then acc else go (k - 1) ({ dst = map_dst k; payload } :: acc)
    in
    advance ~sends:(go (hi - 1) []) ~work:[]
  in
  match script with
  | Finished -> { state = Finished; sends = []; work = []; terminate = true; wakeup = None }
  | Units { lo; _ } -> advance ~sends:[] ~work:[ map_unit lo ]
  | Partial_ckpt { o; c; _ } -> bcast (Partial c) (Grid.members_above o.grid o.j)
  | Full_group { o; c; g } -> bcast (Full (c, g)) (Grid.members o.grid g)
  | Full_echo { o; c; g } -> bcast (Full (c, g)) (Grid.members_above o.grid o.j)

(* A subchunk's remaining units are one run: one unit per round, no sends,
   and the round after the last unit starts the partial checkpoint. *)
let ahead wrap = function
  | Units { o; c; lo; hi } ->
      let len = hi - lo in
      Some
        {
          unit0 = lo;
          units = len;
          len;
          at =
            (fun k ->
              wrap
                (if lo + k < hi then Units { o; c; lo = lo + k; hi } else partial_ckpt o c));
        }
  | Partial_ckpt _ | Full_group _ | Full_echo _ | Finished -> None
