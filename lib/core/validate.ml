open Simkit.Types
open Ckpt_script

(* ------------------------------------------------------------------ *)
(* Authenticated checkpoint views                                      *)
(* ------------------------------------------------------------------ *)

type signed = { body : ord; claimant : pid; auth : int64 }

let show_signed m =
  Printf.sprintf "%s!%d" (show_ord m.body) m.claimant

(* splitmix64 finalizer: the keyed digest below only has to resist the
   simulated adversary, who never inverts it — tamper models forge either
   self-signed claims (allowed: a Byzantine process owns its own key) or
   junk authenticators (rejected). *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let session_secret = 0x7c15d1b54a32e9f3L

let key pid = mix64 (Int64.logxor session_secret (Int64.of_int (pid + 1)))

let encode_body = function
  | Partial c -> Int64.of_int ((c * 131) + 1)
  | Full (c, g) -> Int64.of_int ((c * 131) + ((g + 2) * 65537))

let digest pid body = mix64 (Int64.logxor (key pid) (encode_body body))

let sign pid body = { body; claimant = pid; auth = digest pid body }

let verify ~src m =
  m.claimant = src && Int64.equal m.auth (digest m.claimant m.body)

(* ------------------------------------------------------------------ *)
(* Quorum attestation                                                  *)
(* ------------------------------------------------------------------ *)

let tolerated p = (p - 1) / 3

let claimed_subchunk = function Partial c | Full (c, _) -> c

(* The (f+1)-th largest per-signer claimed subchunk (claim desc, claimant
   asc): any f+1 distinct signers include at least one honest one, and
   honest claims are anchored — an honest process only claims subchunks
   derived from its own work or from previously attested views — so the
   attested prefix is truly done. *)
let attested ~f claims =
  let entries = ref [] in
  Array.iteri
    (fun i o -> match o with Some c -> entries := (i, c) :: !entries | None -> ())
    claims;
  let sorted =
    List.sort
      (fun (i, a) (j, b) ->
        match compare (b : int) a with 0 -> compare i j | c -> c)
      !entries
  in
  List.nth_opt sorted f

(* ------------------------------------------------------------------ *)
(* Tamper models                                                       *)
(* ------------------------------------------------------------------ *)

let plain_forge_seed = 0x6279_7a2d_706c_61L (* "byz-pla" *)
let signed_forge_seed = 0x6279_7a2d_736eL (* "byz-sn" *)

let forge_stream seed pid ~at =
  Dhw_util.Prng.stream seed (((at * 31) + pid) land 0x3FFF_FFFF)

(* 1–2 victims per round; the headline lie is [Full (S, g_dst)] — the exact
   shape [knows_all_done] accepts, i.e. the phantom-termination attack. *)
let forge_bodies grid g pid =
  let s = Grid.n_subchunks grid in
  let np = Spec.processes (Grid.spec grid) in
  if np <= 1 then []
  else
    let n_dst = min (1 + Dhw_util.Prng.int g 2) (np - 1) in
    let dsts =
      Dhw_util.Prng.sample_without_replacement g n_dst (np - 1)
      |> List.map (fun d -> if d >= pid then d + 1 else d)
    in
    List.map
      (fun dst ->
        let body =
          if Dhw_util.Prng.int g 4 < 3 then Full (s, Grid.group_of grid dst)
          else Partial (Dhw_util.Prng.int g (s + 1))
        in
        (dst, body))
      dsts

let mutate_body grid (tam : Simkit.Fault.tamper) ~dst body =
  let s = Grid.n_subchunks grid in
  let c = match body with Partial c | Full (c, _) -> c in
  match tam.t_kind with
  | Simkit.Fault.Lying_view -> Full (s, Grid.group_of grid dst)
  | Simkit.Fault.Replay_stale ->
      Partial (if c <= 0 then 0 else tam.t_salt mod c)
  | Simkit.Fault.Inflate_done -> Partial (min s (c + 1 + (tam.t_salt mod 3)))

let forge_plain grid pid ~at =
  let g = forge_stream plain_forge_seed pid ~at in
  forge_bodies grid g pid

let forge_signed grid pid ~at =
  let np = Spec.processes (Grid.spec grid) in
  let g = forge_stream signed_forge_seed pid ~at in
  List.map
    (fun (dst, body) ->
      let payload =
        if Dhw_util.Prng.int g 8 = 0 then
          (* impersonation attempt: the adversary does not hold other
             processes' keys, so the authenticator is junk *)
          {
            body;
            claimant = Dhw_util.Prng.int g np;
            auth = Dhw_util.Prng.next_int64 g;
          }
        else sign pid body
      in
      (dst, payload))
    (forge_bodies grid g pid)

let tamper_plain grid : Protocol_a.msg Simkit.Kernel.tamper_model =
  {
    mutate = (fun tam ~src:_ ~dst ~at:_ m -> mutate_body grid tam ~dst m);
    forge =
      (fun pid ~at ->
        List.map (fun (dst, body) -> { dst; payload = body })
          (forge_plain grid pid ~at));
  }

let tamper_signed grid : signed Simkit.Kernel.tamper_model =
  {
    (* In-flight corruption garbles the body but cannot recompute the
       authenticator: the stale one no longer matches, so the receiver
       rejects the message. *)
    mutate =
      (fun tam ~src:_ ~dst ~at:_ m ->
        { m with body = mutate_body grid tam ~dst m.body });
    forge =
      (fun pid ~at ->
        List.map (fun (dst, payload) -> { dst; payload })
          (forge_signed grid pid ~at));
  }

(* ------------------------------------------------------------------ *)
(* The validated wrapper process                                       *)
(* ------------------------------------------------------------------ *)

type vstate = {
  inner : Protocol_a.state;
  iw : round option;  (** the inner process's pending wakeup, if any *)
  claims : int option array;  (** per-signer best verified claimed subchunk *)
  seen : int option;  (** last attested subchunk delivered to the inner *)
}

let proc_validated grid ~on_reject : (vstate, signed) process =
  let inner_proc = Protocol_a.proc_on_grid grid in
  let np = Spec.processes (Grid.spec grid) in
  let f = tolerated np in
  let init pid =
    let inner, w = inner_proc.init pid in
    ({ inner; iw = w; claims = Array.make np None; seen = None }, w)
  in
  let step pid r st inbox =
    let claims = Array.copy st.claims in
    let note i c =
      match claims.(i) with
      | Some c0 when c0 >= c -> ()
      | _ -> claims.(i) <- Some c
    in
    (* Inbox sanitization: drop anything unauthenticated, fold the rest
       into the per-signer claim table (monotone). *)
    List.iter
      (fun e ->
        if verify ~src:e.src e.payload then
          note e.payload.claimant (claimed_subchunk e.payload.body)
        else on_reject ~pid ~at:r)
      inbox;
    let att = attested ~f claims in
    let improved =
      match (att, st.seen) with
      | None, _ -> false
      | Some _, None -> true
      | Some (_, c), Some c0 -> c > c0
    in
    let due = match st.iw with Some w -> w <= r | None -> false in
    if due || improved then (
      (* Deliver at most one synthetic message: the attested subchunk, as
         a partial checkpoint (the group-independent shape every receiver
         can act on). The inner protocol never sees a raw claim, so a
         sub-quorum lie cannot reach [knows_all_done]. An [Active] inner is
         only ever stepped when due — its wakeup chains every round — so
         the script cannot be advanced early by inbound traffic. *)
      let inbox' =
        match att with
        | Some (src, c) when improved ->
            [ { src; sent_at = r; payload = Partial c } ]
        | _ -> []
      in
      let o = inner_proc.step pid r st.inner inbox' in
      List.iter
        (fun (sd : Protocol_a.msg send) -> note pid (claimed_subchunk sd.payload))
        o.sends;
      let sends =
        List.map (fun sd -> { dst = sd.dst; payload = sign pid sd.payload }) o.sends
      in
      let seen =
        match att with Some (_, c) when improved -> Some c | _ -> st.seen
      in
      {
        state = { inner = o.state; iw = o.wakeup; claims; seen };
        sends;
        work = o.work;
        terminate = o.terminate;
        wakeup = o.wakeup;
      })
    else
      (* Sub-quorum traffic only: absorb the claims without stepping the
         inner process or disturbing its wakeup. *)
      {
        state = { st with claims };
        sends = [];
        work = [];
        terminate = false;
        wakeup = st.iw;
      }
  in
  { init; step }

(* ------------------------------------------------------------------ *)
(* Runners                                                             *)
(* ------------------------------------------------------------------ *)

let name = "A+val"

let run ?fault ?max_rounds ?obs spec =
  let grid = Grid.make spec in
  let metrics =
    Simkit.Metrics.create ~n_processes:(Spec.processes spec) ~n_units:(Spec.n spec)
  in
  let on_reject ~pid ~at =
    Simkit.Metrics.record_reject metrics;
    match obs with
    | Some sink -> sink (Simkit.Obs.Reject { pid; at })
    | None -> ()
  in
  let proc = proc_validated grid ~on_reject in
  let cfg =
    Simkit.Kernel.config ?fault ?max_rounds ?obs ~show:show_signed
      ~tamper:(tamper_signed grid) ~n_processes:(Spec.processes spec)
      ~n_units:(Spec.n spec) ()
  in
  let result = Simkit.Kernel.run ~metrics cfg proc in
  {
    Runner.spec;
    protocol = name;
    metrics = result.metrics;
    statuses = result.statuses;
    outcome = result.outcome;
  }

let run_unhardened ?fault ?max_rounds ?obs spec =
  let grid = Grid.make spec in
  let proc = Protocol_a.proc_on_grid grid in
  let cfg =
    Simkit.Kernel.config ?fault ?max_rounds ?obs ~show:Protocol_a.show_msg
      ~tamper:(tamper_plain grid) ~n_processes:(Spec.processes spec)
      ~n_units:(Spec.n spec) ()
  in
  let result = Simkit.Kernel.run cfg proc in
  {
    Runner.spec;
    protocol = "A";
    metrics = result.metrics;
    statuses = result.statuses;
    outcome = result.outcome;
  }
