(* The [ahead] contract (Simkit.Types.run): whenever a process declares a run
   from a due round r, k successive steps with an empty inbox from the same
   state, for any k <= len, perform the run's units in order, send
   nothing, do not terminate, ask for wakeup r + k, and end in state
   [at k]. The law steps A, B, D, A+rec and A+val round by round under
   sampled fault plans (their runs withdrawn from the kernel, so every
   state they pass through is visited), and at each empty-inbox step
   checks a random k against the run declared there. *)

open Simkit
open Types
module Prng = Dhw_util.Prng
module C = Campaign

type variant = A | B | D | A_rec | A_val

let variant_name = function
  | A -> "A"
  | B -> "B"
  | D -> "D"
  | A_rec -> "A+rec"
  | A_val -> "A+val"

let variants = [ A; B; D; A_rec; A_val ]

type case = { variant : variant; n : int; t : int; seed : int }

(* Runs checked, per variant. *)
let checked = Hashtbl.create 8

(* [proc] with every empty-inbox step preceded by the check of the run
   declared there; [fail] reports the first breach. *)
let checking ~variant ~seed ~fail (proc : ('s, 'm) process) : ('s, 'm) process =
  let step pid r s inbox =
    (if inbox = [] then
       match proc.ahead r s with
       | None -> ()
       | Some run ->
           Hashtbl.replace checked variant
             (1 + Option.value ~default:0 (Hashtbl.find_opt checked variant));
           let g = Prng.stream (Int64.of_int seed) ((r * 64) + pid) in
           let k = 1 + Prng.int g run.len in
           let s = ref s in
           for i = 0 to k - 1 do
             let o = proc.step pid (r + i) !s [] in
             let work = if i < run.units then [ run.unit0 + i ] else [] in
             if o.work <> work then
               fail pid r (Printf.sprintf "round %d: other units" (r + i));
             if o.sends <> [] then fail pid r (Printf.sprintf "round %d: sends" (r + i));
             if o.terminate then fail pid r (Printf.sprintf "round %d: terminates" (r + i));
             if o.wakeup <> Some (r + i + 1) then
               fail pid r (Printf.sprintf "round %d: another wakeup" (r + i));
             s := o.state
           done;
           if !s <> run.at k then
             fail pid r (Printf.sprintf "state after %d rounds is not at %d" k k));
    proc.step pid r s inbox
  in
  { proc with step; ahead = no_ahead }

let law_holds c =
  let spec = Doall.Spec.make ~n:c.n ~t:c.t in
  let grid = Doall.Grid.make spec in
  let g = Prng.create (Int64.of_int c.seed) in
  let window = (3 * c.n) + 12 in
  let sched =
    match c.variant with
    | A_rec -> C.sample_recovery g ~t:c.t ~window ~restart_gap:(1 + Prng.int g 6)
    | A_val -> C.sample_byz g ~t:c.t ~window ~byz:(Prng.int g c.t)
    | A | B | D -> C.sample g ~t:c.t ~window
  in
  let fail pid r why =
    QCheck2.Test.fail_reportf "%s n=%d t=%d seed=%d: pid %d's run from round %d: %s\n%s"
      (variant_name c.variant) c.n c.t c.seed pid r why (C.Schedule.print sched)
  in
  let go ?tamper ?recover ?metrics ~show proc =
    let cfg =
      Kernel.config ~fault:(C.Schedule.to_fault sched) ?tamper ~show
        ~max_rounds:(Doall.Fuzz.byz_max_rounds spec ~window:(4 * c.n))
        ~n_processes:c.t ~n_units:c.n ()
    in
    let proc = checking ~variant:c.variant ~seed:c.seed ~fail proc in
    ignore (Kernel.run ?recover ?metrics cfg proc)
  in
  (match c.variant with
  | A | B | D ->
      let p =
        match c.variant with
        | A -> Doall.Protocol_a.protocol
        | B -> Doall.Protocol_b.protocol
        | _ -> Doall.Protocol_d.protocol
      in
      let (Doall.Protocol.Packed { proc; show; _ }) = p.make spec in
      go ~show proc
  | A_rec ->
      let metrics = Metrics.create ~n_processes:c.t ~n_units:c.n in
      let stable =
        Stable.create ~on_write:(Metrics.record_persist metrics) ~n_processes:c.t ()
      in
      let ad = Doall.Recovery.adapter_a grid in
      go ~metrics
        ~recover:(Doall.Recovery.recover_hook stable ~rejoin_rounds:3)
        ~show:(Doall.Recovery.show_rmsg ad.show) (Doall.Recovery.harden ad ~stable)
  | A_val ->
      go ~tamper:(Doall.Validate.tamper_signed grid) ~show:Doall.Validate.show_signed
        (Doall.Validate.proc_validated grid ~on_reject:(fun ~pid:_ ~at:_ -> ())));
  true

let gen_case =
  let open QCheck2.Gen in
  let* variant = oneofl variants in
  let* t = int_range 1 9 in
  let* n = int_range 1 80 in
  let* seed = int in
  return { variant; n; t; seed }

let law =
  let name, speed, run =
    Helpers.qcheck_case ~count:300 ~name:"a declared run = its empty-inbox steps" gen_case
      law_holds
  in
  let run () =
    run ();
    List.iter
      (fun v ->
        let k = Option.value ~default:0 (Hashtbl.find_opt checked v) in
        Printf.printf "%s: %d runs checked\n" (variant_name v) k;
        if k = 0 then Alcotest.failf "%s declared no run" (variant_name v))
      variants
  in
  (name, speed, run)

let suite = [ law ]
