(* Differential law: Doall.Protocol_d (one shared payload per broadcast, a
   one-pass agreement merge over scratch bitmaps, a binary-searched revert
   rank, work phases declared as runs) against the list-based
   Ref_protocol_d, which declares none, under the same kernel, spec, revert
   threshold and fault plan. Both runs must agree on statuses, outcome,
   every Metrics reader and the full observability stream, their spans must
   follow the kernel-diff range rule, and with its runs withdrawn the
   library must match the reference span for span; the law counts how many
   cases reach the branches the rewrite touched. *)

open Simkit
open Types
module Prng = Dhw_util.Prng
module C = Campaign
module Kd = Test_kernel_diff
module Ref = Ref_protocol_d

type case = { alpha : float; n : int; t : int; plan : Kd.plan }

let case_to_string c =
  Printf.sprintf "alpha=%.1f n=%d t=%d\n%s" c.alpha c.n c.t (Kd.plan_to_string c.plan)

(* Branches a case reached, read off the reference run. *)
type reach = { mutable stashed : bool; mutable mixed : bool }

let views_of phase inbox =
  List.filter_map
    (fun { payload; _ } ->
      match payload with
      | Ref.View v when v.phase = phase -> Some v.done_
      | Ref.View _ | Ref.AOrd _ -> None)
    inbox

(* The reference process, noting when a Working process stashes views of
   its own phase and when an agreement inbox mixes done and undone ones. *)
let watched reach (p : (Ref.mode, Ref.msg) process) =
  let step pid r st inbox =
    (match st with
    | Ref.Working w -> if views_of w.w_phase inbox <> [] then reach.stashed <- true
    | Ref.Agreeing a ->
        let v = views_of a.a_phase inbox in
        if List.mem true v && List.mem false v then reach.mixed <- true
    | Ref.RWaiting _ | Ref.RActive _ -> ());
    p.step pid r st inbox
  in
  { p with step }

let observe c ?ranges ~show proc =
  let spec = Doall.Spec.make ~n:c.n ~t:c.t in
  Kd.observe Kd.real ?ranges ~n:c.n ~t:c.t ~fault:(Kd.fault_of ~t:c.t c.plan) ~show
    ~metrics:(Metrics.create ~n_processes:c.t ~n_units:c.n)
    ~max_rounds:(Doall.Fuzz.byz_max_rounds spec ~window:(4 * c.n))
    proc

(* The library run [lib] against the reference: exact with the library's
   runs withdrawn ([unit_steps]), and by the range rule with them. *)
let explain c ~show proc ~lib reference =
  let unit_steps = observe c ~ranges:false ~show proc in
  List.find_map
    (fun (rule, seen) -> Kd.explain ~names:("library", "reference") ~rule seen reference)
    [ (`Coalesced, lib); (`Exact, unit_steps) ]

let reverted (seen : Kd.seen) =
  List.exists
    (function
      | Obs.Send { tag; _ } -> String.starts_with ~prefix:"A:" tag | _ -> false)
    seen.stream

type tally = {
  mutable cases : int;
  mutable reverts : int;
  mutable mixes : int;
  mutable stashes : int;
}

let tally = { cases = 0; reverts = 0; mixes = 0; stashes = 0 }

let agree c =
  let spec = Doall.Spec.make ~n:c.n ~t:c.t in
  let (Doall.Protocol.Packed { proc; show; _ }) =
    (Doall.Protocol_d.protocol_with_alpha ~alpha:c.alpha ~name:"D").make spec
  in
  let lib = observe c ~show proc in
  let reach = { stashed = false; mixed = false } in
  let reference =
    observe c ~show:Ref.show_msg (watched reach (Ref.proc ~alpha:c.alpha spec))
  in
  tally.cases <- tally.cases + 1;
  if reverted reference then tally.reverts <- tally.reverts + 1;
  if reach.mixed then tally.mixes <- tally.mixes + 1;
  if reach.stashed then tally.stashes <- tally.stashes + 1;
  match explain c ~show proc ~lib reference with
  | None -> true
  | Some why -> QCheck2.Test.fail_reportf "%s\n%s" (case_to_string c) why

(* Small instances with short fault windows, so crashes land in the first
   phases and catastrophic ones revert to the embedded Protocol A. *)
let gen_case =
  let open QCheck2.Gen in
  let* alpha = oneofl [ 0.5; 0.9 ] in
  let* t = int_range 1 12 in
  let* n = int_range 1 60 in
  (* a shrunk seed is just another schedule: shrink the sizes only *)
  let* seed = no_shrink int in
  let* family = int_range 0 4 in
  let g = Prng.create (Int64.of_int seed) in
  let window = (2 * Dhw_util.Intmath.ceil_div n t) + 6 in
  let plan =
    match family with
    | 0 -> Kd.Sched (C.sample g ~t ~window)
    | 1 -> Kd.Sched (C.sample_recovery g ~t ~window ~restart_gap:(1 + Prng.int g 6))
    | 2 | 3 when t >= 2 ->
        let victims = 1 + Prng.int g (t - 1) in
        Kd.Random { seed = Int64.of_int seed; victims; window; restarts = [] }
    | _ -> Kd.Storm { seed = Int64.of_int seed; max_crashes = Prng.int g t }
  in
  return { alpha; n; t; plan }

(* The law, then the coverage it reached: a law that never reverts, never
   mixes done and undone views and never stashes has not tested the merge. *)
let law =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000
         ~name:"Protocol_d = list-based reference on random schedules" gen_case agree)
  in
  let run () =
    run ();
    Printf.printf
      "%d cases: %d revert to A, %d mix done and undone views, %d stash views\n"
      tally.cases tally.reverts tally.mixes tally.stashes;
    List.iter
      (fun (what, k) -> if k = 0 then Alcotest.failf "no case %s" what)
      [ ("reverts to A", tally.reverts); ("mixes done and undone views", tally.mixes);
        ("stashes views while working", tally.stashes) ]
  in
  (name, speed, run)

(* Every D step that sends is one broadcast, and all of its envelopes carry
   the same payload value, built once. *)
let test_shared_payload () =
  let spec = Doall.Spec.make ~n:60 ~t:8 in
  let (Doall.Protocol.Packed { proc; _ }) = Doall.Protocol_d.protocol.make spec in
  let broadcasts = ref 0 in
  let step pid r st inbox =
    let o = proc.step pid r st inbox in
    (match o.sends with
    | [] -> ()
    | first :: rest ->
        incr broadcasts;
        if not (List.for_all (fun (s : _ send) -> s.payload == first.payload) rest) then
          Alcotest.failf "pid %d round %d: %d sends do not share one payload" pid r
            (List.length o.sends));
    o
  in
  List.iter
    (fun fault ->
      let cfg = Kernel.config ~fault ~max_rounds:10_000 ~n_processes:8 ~n_units:60 () in
      ignore (Kernel.run cfg { proc with step }))
    [ Fault.none; Fault.crash_silently_at [ (1, 2); (6, 9) ];
      Fault.crash_silently_at (List.init 6 (fun i -> (i, 3))) ];
  Alcotest.(check bool) "some broadcasts were checked" true (!broadcasts > 0)

(* A rejoiner outside the live set at a revert (shrunk from a failing law
   case): pid 9 crashes at round 2 and comes back at 7 as an amnesiac
   phase-1 worker; at round 13 it reverts to Protocol A with a live set
   T = {0, ..., 7} that leaves it out. It used to take A-rank 8 in the
   8-rank revert grid and raise [Invalid_argument "Grid.group_of"]; now it
   waits as the lowest-priority waiter. Library and reference must agree,
   complete and do every unit. *)
let test_revert_outside_live_set () =
  let text =
    "schedule v1\n\
     crash 0 @6 acting keep indices 1,2,7\n\
     crash 2 @12 acting keep indices\n\
     crash 8 @4 silent\n\
     crash 9 @2 acting drop prefix 3\n\
     restart 0 @7\n\
     restart 8 @5\n\
     restart 9 @7\n\
     end\n"
  in
  let sched = match C.Schedule.parse text with Ok s -> s | Error e -> Alcotest.fail e in
  let c = { alpha = 0.9; n = 41; t = 10; plan = Kd.Sched sched } in
  let spec = Doall.Spec.make ~n:c.n ~t:c.t in
  let (Doall.Protocol.Packed { proc; show; _ }) =
    (Doall.Protocol_d.protocol_with_alpha ~alpha:c.alpha ~name:"D").make spec
  in
  let lib = observe c ~show proc in
  let reference = observe c ~show:Ref.show_msg (Ref.proc ~alpha:c.alpha spec) in
  (match explain c ~show proc ~lib reference with
  | None -> ()
  | Some why -> Alcotest.fail why);
  Alcotest.(check bool) "reverts to A" true (reverted lib);
  Alcotest.(check bool) "completes" true (lib.outcome = Kernel.Completed);
  Alcotest.(check int) "every unit done" 1 (List.assoc "all_units_done" lib.readers)

let suite =
  [
    Alcotest.test_case "broadcast shares one payload" `Quick test_shared_payload;
    Alcotest.test_case "revert by a pid outside T" `Quick test_revert_outside_live_set;
    law;
  ]
