(* Differential law: Doall.Ckpt_script's O(1) cursor against the eager list
   builder of Ref_ckpt_script. Both are drained through [run_active] from
   the same start — a work script from any subchunk, or a takeover from any
   view — and must produce the same sends (destination and payload), work,
   termination and wakeup in every round. *)

open Simkit.Types
module Ck = Doall.Ckpt_script
module Grid = Doall.Grid

(* A boxing [inject], as Protocol B's [Ord] and Protocol D's [AOrd]. *)
type boxed = Boxed of Ck.ord

type start = Work of int | Takeover of Ck.last

type case = {
  n : int;
  t : int;
  group_size : int option;  (* [None]: the default ⌈√t⌉ *)
  pid : pid;
  start : start;
  mapped : bool;  (* non-identity [map_dst]/[map_unit] and a boxing [inject] *)
  r0 : round;
}

let grid_of c =
  let spec = Doall.Spec.make ~n:c.n ~t:c.t in
  match c.group_size with
  | None -> Grid.make spec
  | Some s -> Grid.make_with_group_size spec s

let show_last = function
  | Ck.No_msg -> "No_msg"
  | Ck.Last_ord { ord; src } -> Printf.sprintf "%s from %d" (Ck.show_ord ord) src

let show_case c =
  Printf.sprintf "n=%d t=%d s=%s pid=%d %s mapped=%b r0=%d" c.n c.t
    (match c.group_size with None -> "default" | Some s -> string_of_int s)
    c.pid
    (match c.start with
    | Work from_sub -> Printf.sprintf "work from %d" from_sub
    | Takeover last -> "takeover after " ^ show_last last)
    c.mapped c.r0

let gen_case =
  let open QCheck2.Gen in
  let* n = 1 -- 300 and* t = 1 -- 40 in
  let* group_size = oneof [ pure None; map Option.some (1 -- t) ] in
  let spec = Doall.Spec.make ~n ~t in
  let grid =
    match group_size with
    | None -> Grid.make spec
    | Some s -> Grid.make_with_group_size spec s
  in
  let last_sub = Grid.n_subchunks grid and n_groups = Grid.n_groups grid in
  let s = Grid.group_size grid in
  let* pid = 0 -- (t - 1) in
  let gj = Grid.group_of grid pid in
  (* bias the subchunk towards the edges the prologues special-case *)
  let gen_c =
    frequency
      [ (3, 0 -- last_sub); (1, pure 0); (1, pure last_sub);
        (1, map (fun k -> min last_sub (k * s)) (0 -- (last_sub / s))) ]
  in
  let gen_src ~in_group =
    if in_group then map (fun r -> min (t - 1) (((gj - 1) * s) + r)) (0 -- (s - 1))
    else if n_groups = 1 then pure pid
    else
      map
        (fun g -> if g >= gj then (g * s) else (g - 1) * s)
        (1 -- (n_groups - 1))
  in
  let gen_last =
    frequency
      [
        (1, pure Ck.No_msg);
        (3, map (fun c -> Ck.Last_ord { ord = Partial c; src = 0 }) gen_c);
        ( 6,
          let* c = gen_c and* g = 1 -- n_groups and* in_group = bool in
          let+ src = gen_src ~in_group in
          Ck.Last_ord { ord = Full (c, g); src } );
      ]
  in
  let* start =
    frequency
      [ (1, map (fun f -> Work f) (1 -- (last_sub + 1)));
        (3, map (fun l -> Takeover l) gen_last) ]
  in
  let+ mapped = bool and+ r0 = 0 -- 1000 in
  { n; t; group_size; pid; start; mapped; r0 }

let show_outcome show (o : (_, _) outcome) =
  Printf.sprintf "sends=[%s] work=[%s] terminate=%b wakeup=%s"
    (String.concat "; "
       (List.map (fun { dst; payload } -> Printf.sprintf "%d<-%s" dst (show payload)) o.sends))
    (String.concat "; " (List.map string_of_int o.work))
    o.terminate
    (match o.wakeup with None -> "none" | Some w -> string_of_int w)

let same (a : (_, 'm) outcome) (b : (_, 'm) outcome) =
  a.sends = b.sends && a.work = b.work && a.terminate = b.terminate
  && a.wakeup = b.wakeup

(* Step both scripts until both have terminated, plus one step past it. *)
let drain (type m) c ~(inject : Ck.ord -> m) ~(show : m -> string) ?map_dst
    ?map_unit cursor reference =
  let rec go i r cursor reference ~past_end =
    let a = Ck.run_active ~inject ?map_dst ?map_unit r cursor in
    let b = Ref_ckpt_script.run_active ~inject ?map_dst ?map_unit r reference in
    if not (same a b) then
      QCheck2.Test.fail_reportf "%s@.round %d (step %d):@.  cursor    %s@.  reference %s"
        (show_case c) r i (show_outcome show a) (show_outcome show b)
    else if past_end then true
    else go (i + 1) (r + 1) a.state b.state ~past_end:a.terminate
  in
  go 0 c.r0 cursor reference ~past_end:false

let law c =
  let grid = grid_of c in
  let cursor, reference =
    match c.start with
    | Work from_sub ->
        (Ck.work_script grid c.pid from_sub, Ref_ckpt_script.work_script grid c.pid from_sub)
    | Takeover last ->
        (Ck.takeover_script grid c.pid last, Ref_ckpt_script.takeover_script grid c.pid last)
  in
  let rounds = Ck.script_rounds cursor
  and ref_rounds = Ref_ckpt_script.script_rounds reference in
  if rounds <> ref_rounds then
    QCheck2.Test.fail_reportf "%s@.script_rounds: cursor %d, reference %d" (show_case c)
      rounds ref_rounds
  else if c.mapped then
    drain c
      ~inject:(fun o -> Boxed o)
      ~show:(fun (Boxed o) -> "Boxed " ^ Ck.show_ord o)
      ~map_dst:(fun k -> (3 * k) + 7)
      ~map_unit:(fun u -> (u * 5) + 2)
      cursor reference
  else drain c ~inject:Fun.id ~show:Ck.show_ord cursor reference

let suite =
  [ Helpers.qcheck_case ~count:10_000 ~name:"cursor = list builder, round by round" gen_case law ]
