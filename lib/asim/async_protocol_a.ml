open Simkit.Types
open Doall
module ISet = Set.Make (Int)

type msg = Ckpt_script.ord

let show_msg = Ckpt_script.show_ord

type state =
  | Awaiting_fd of { retired_below : ISet.t; last : Ckpt_script.last }
  | Running_script of Ckpt_script.script

let idle st =
  {
    Event_sim.state = st;
    sends = [];
    work = [];
    terminate = false;
    continue_after = None;
  }

(* [recover = None] is the fresh state machine of the paper; [Some last]
   builds the state a restarted incarnation adopts: it rejoins as a waiting
   process seeded with its best on-disk checkpoint knowledge, and never
   self-activates on [Started] (pid 0's vacuous takeover right would
   otherwise duplicate the active chain on every respawn). If the
   checkpoint already proves all work done, the incarnation terminates on
   [Started] — nothing is owed. *)
let aproc_gen ?recover spec =
  let grid = Grid.make spec in
  let run_script script =
    (* the round argument only feeds the wakeup, which we discard *)
    let o = Ckpt_script.run_active ~inject:Fun.id 0 script in
    {
      Event_sim.state = Running_script o.state;
      sends = List.map (fun { dst; payload } -> (dst, payload)) o.sends;
      work = o.work;
      terminate = o.terminate;
      continue_after = (if o.terminate then None else Some 1);
    }
  in
  let a_init _pid =
    let last =
      match recover with Some l -> l | None -> Ckpt_script.No_msg
    in
    Awaiting_fd { retired_below = ISet.empty; last }
  in
  let a_handle pid _now st (ev : msg Event_sim.aevent) =
    match st with
    | Running_script script -> (
        match ev with
        | Continue -> run_script script
        | Started | Got _ | Retired_notice _ ->
            (* the unique active process ignores stale traffic *)
            { (idle st) with continue_after = None })
    | Awaiting_fd { retired_below; last } -> (
        let try_activate retired_below last =
          let all_below_retired =
            let rec check i =
              i >= pid || (ISet.mem i retired_below && check (i + 1))
            in
            check 0
          in
          if all_below_retired then
            run_script (Ckpt_script.takeover_script grid pid last)
          else idle (Awaiting_fd { retired_below; last })
        in
        match ev with
        | Started -> (
            match recover with
            | Some _ ->
                if Ckpt_script.knows_all_done grid pid last then
                  {
                    Event_sim.state = st;
                    sends = [];
                    work = [];
                    terminate = true;
                    continue_after = None;
                  }
                else idle st
            | None ->
                if pid = 0 then run_script (Ckpt_script.work_script grid 0 1)
                else idle st)
        | Got { src; payload } ->
            let last = Ckpt_script.Last_ord { ord = payload; src } in
            if Ckpt_script.knows_all_done grid pid last then
              {
                Event_sim.state = Awaiting_fd { retired_below; last };
                sends = [];
                work = [];
                terminate = true;
                continue_after = None;
              }
            else idle (Awaiting_fd { retired_below; last })
        | Retired_notice who ->
            let retired_below =
              if who < pid then ISet.add who retired_below else retired_below
            in
            try_activate retired_below last
        | Continue -> idle st)
  in
  { Event_sim.a_init; a_handle }

let aproc spec = aproc_gen spec
let aproc_recover ~last spec = aproc_gen ~recover:last spec

let run ?crash_at ?max_delay ?max_lag ?seed ?false_suspicions ?link ?obs spec =
  let cfg =
    Event_sim.config ?crash_at ?max_delay ?max_lag ?seed ?false_suspicions
      ?link ?obs ~n_processes:(Spec.processes spec) ~n_units:(Spec.n spec) ()
  in
  Event_sim.run cfg (aproc spec)

let default_heartbeat ~max_delay =
  (* Period and timeout scale with the delay bound so that defaults stay
     mostly accurate under moderate loss; false suspicions remain possible
     (and harmless) by design. *)
  let period = max 4 (2 * max_delay) in
  Heartbeat.config ~period ~timeout:(6 * period) ~backoff:2 ()

(* ------------------------------------------------------------------ *)
(* Wire-level tamper models: how the corruption / Byzantine adversary
   speaks the hardened substrate's ['m Link.wire] alphabet. Only [Data]
   frames are touched — acks and beats pass unchanged, so a Byzantine
   process's silenced heartbeat generator is what gets it suspected (the
   model's stand-in for progress-based accusation) and the honest takeover
   chain stays live. Forged frames use a sequence space far above any
   honest sender's, so per-source dedup never swallows a lie. *)

let corrupt_kind ~src ~at =
  match (at + src) mod 3 with
  | 0 -> Simkit.Fault.Lying_view
  | 1 -> Simkit.Fault.Replay_stale
  | _ -> Simkit.Fault.Inflate_done

let corrupt_body grid ~src ~dst ~at body =
  Validate.mutate_body grid
    { Simkit.Fault.t_kind = corrupt_kind ~src ~at; t_salt = at }
    ~dst body

let forged_seq at i = 1_000_000 + (at * 4) + i

let wire_tamper_plain grid : msg Link.wire Event_sim.tamper_model =
  {
    t_corrupt =
      (fun ~src ~dst ~at w ->
        match w with
        | Link.Data { seq; payload } ->
            Link.Data { seq; payload = corrupt_body grid ~src ~dst ~at payload }
        | Link.Ack _ | Link.Beat -> w);
    t_forge =
      (fun pid ~at ->
        List.mapi
          (fun i (dst, body) ->
            (dst, Link.Data { seq = forged_seq at i; payload = body }))
          (Validate.forge_plain grid pid ~at));
  }

let wire_tamper_signed grid : Validate.signed Link.wire Event_sim.tamper_model
    =
  {
    (* garbling the body cannot recompute the authenticator: the stale one
       no longer matches, so the receiving validation layer rejects it *)
    t_corrupt =
      (fun ~src ~dst ~at w ->
        match w with
        | Link.Data { seq; payload } ->
            Link.Data
              {
                seq;
                payload =
                  {
                    payload with
                    Validate.body =
                      corrupt_body grid ~src ~dst ~at payload.Validate.body;
                  };
              }
        | Link.Ack _ | Link.Beat -> w);
    t_forge =
      (fun pid ~at ->
        List.mapi
          (fun i (dst, payload) ->
            (dst, Link.Data { seq = forged_seq at i; payload }))
          (Validate.forge_signed grid pid ~at));
  }

(* A subverted peer streams forged traffic (alive evidence, so it is never
   durably suspected) while never acking, which would hold every draining
   sender hostage forever under unlimited retransmission. When the caller
   requests Byzantine subversion without choosing a link config, bound the
   retries so honest senders eventually abandon the subverted peer. *)
let byz_link_config link_config byz =
  match (link_config, byz) with
  | Some _, _ | None, (None | Some []) -> link_config
  | None, Some (_ :: _) -> Some (Link.config ~max_retries:8 ())

let run_hardened ?crash_at ?(max_delay = 5) ?max_lag ?seed ?false_suspicions
    ?link ?link_config ?heartbeat ?stats ?max_ticks ?byz ?obs spec =
  let link_config = byz_link_config link_config byz in
  let t = Spec.processes spec in
  let grid = Grid.make spec in
  let heartbeat =
    match heartbeat with
    | Some hb -> hb
    | None -> default_heartbeat ~max_delay
  in
  let cfg =
    Event_sim.config ?crash_at ~max_delay ?max_lag ?seed ?false_suspicions
      ?link ?max_ticks ?byz ~oracle_detector:false ~n_processes:t
      ~n_units:(Spec.n spec) ?obs ()
  in
  Event_sim.run ~tamper:(wire_tamper_plain grid) cfg
    (Link.harden ?config:link_config ~heartbeat ?stats ~n:t (aproc spec))

(* ------------------------------------------------------------------ *)
(* The validated wrapper: the asynchronous counterpart of
   [Doall.Validate.proc_validated]. Every inner checkpoint view travels as
   a [Validate.signed] authenticated claim; the wrapper drops anything
   that fails verification, folds the rest into a per-signer monotone
   claim table, and delivers to the inner state machine only the
   (f+1)-quorum-attested subchunk — as a [Partial] view, the
   group-independent shape every receiver can act on. A waiting process
   therefore terminates only once f+1 distinct signers (hence at least one
   honest one) have claimed all-done; liveness never depends on the
   quorum, because the takeover chain is driven by the detection layer. *)

type vstate = {
  v_inner : state;
  v_claims : int option array;  (* per-signer best verified claimed subchunk *)
  v_seen : int option;  (* last attested subchunk delivered to the inner *)
}

let validate_wrap grid ~on_reject (inner : (state, msg) Event_sim.aproc) :
    (vstate, Validate.signed) Event_sim.aproc =
  let np = Spec.processes (Grid.spec grid) in
  let f = Validate.tolerated np in
  let a_init pid =
    {
      v_inner = inner.Event_sim.a_init pid;
      v_claims = Array.make np None;
      v_seen = None;
    }
  in
  let note claims i c =
    match claims.(i) with Some c0 when c0 >= c -> () | _ -> claims.(i) <- Some c
  in
  let wrap pid claims seen (o : (state, msg) Event_sim.aoutcome) =
    List.iter
      (fun (_, m) -> note claims pid (Validate.claimed_subchunk m))
      o.Event_sim.sends;
    {
      Event_sim.state = { v_inner = o.Event_sim.state; v_claims = claims; v_seen = seen };
      sends = List.map (fun (dst, m) -> (dst, Validate.sign pid m)) o.Event_sim.sends;
      work = o.Event_sim.work;
      terminate = o.Event_sim.terminate;
      continue_after = o.Event_sim.continue_after;
    }
  in
  let a_handle pid now st (ev : Validate.signed Event_sim.aevent) =
    match ev with
    | Event_sim.Got { src; payload } ->
        if not (Validate.verify ~src payload) then begin
          on_reject ~pid ~at:now;
          {
            Event_sim.state = st;
            sends = [];
            work = [];
            terminate = false;
            continue_after = None;
          }
        end
        else begin
          let claims = Array.copy st.v_claims in
          note claims payload.Validate.claimant
            (Validate.claimed_subchunk payload.Validate.body);
          let att = Validate.attested ~f claims in
          let improved =
            match (att, st.v_seen) with
            | None, _ -> false
            | Some _, None -> true
            | Some (_, c), Some c0 -> c > c0
          in
          match att with
          | Some (src', c) when improved ->
              wrap pid claims (Some c)
                (inner.Event_sim.a_handle pid now st.v_inner
                   (Event_sim.Got
                      { src = src'; payload = Ckpt_script.Partial c }))
          | _ ->
              (* sub-quorum claim: absorb without disturbing the inner *)
              {
                Event_sim.state = { st with v_claims = claims };
                sends = [];
                work = [];
                terminate = false;
                continue_after = None;
              }
        end
    | Event_sim.Started ->
        wrap pid (Array.copy st.v_claims) st.v_seen
          (inner.Event_sim.a_handle pid now st.v_inner Event_sim.Started)
    | Event_sim.Continue ->
        wrap pid (Array.copy st.v_claims) st.v_seen
          (inner.Event_sim.a_handle pid now st.v_inner Event_sim.Continue)
    | Event_sim.Retired_notice who ->
        wrap pid (Array.copy st.v_claims) st.v_seen
          (inner.Event_sim.a_handle pid now st.v_inner
             (Event_sim.Retired_notice who))
  in
  { Event_sim.a_init; a_handle }

let validated_name = "async-a+val"

let run_validated ?crash_at ?(max_delay = 5) ?max_lag ?seed ?false_suspicions
    ?link ?link_config ?heartbeat ?stats ?max_ticks ?byz ?obs spec =
  let link_config = byz_link_config link_config byz in
  let t = Spec.processes spec in
  let grid = Grid.make spec in
  let metrics =
    Simkit.Metrics.create ~n_processes:t ~n_units:(Spec.n spec)
  in
  let on_reject ~pid ~at =
    Simkit.Metrics.record_reject metrics;
    match obs with
    | Some sink -> sink (Simkit.Obs.Reject { pid; at })
    | None -> ()
  in
  let heartbeat =
    match heartbeat with
    | Some hb -> hb
    | None -> default_heartbeat ~max_delay
  in
  let cfg =
    Event_sim.config ?crash_at ~max_delay ?max_lag ?seed ?false_suspicions
      ?link ?max_ticks ?byz ~oracle_detector:false ~n_processes:t
      ~n_units:(Spec.n spec) ?obs ()
  in
  Event_sim.run ~metrics ~tamper:(wire_tamper_signed grid) cfg
    (Link.harden ?config:link_config ~heartbeat ?stats ~n:t
       (validate_wrap grid ~on_reject (aproc spec)))
