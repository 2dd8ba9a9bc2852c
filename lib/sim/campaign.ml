open Types
module Prng = Dhw_util.Prng

module Schedule = struct
  type mode =
    | Silent
    | Acting of { keep_work : bool; delivery : Fault.delivery }
    | Restart
    | Corrupt of Fault.tamper
    | Byzantine

  type entry = { victim : pid; at : round; mode : mode }

  type t = { meta : (string * string) list; entries : entry list }

  let make ?(meta = []) entries = { meta; entries }

  let meta t key = List.assoc_opt key t.meta

  let add_meta t bindings =
    let replaced =
      List.map
        (fun (k, v) ->
          match List.assoc_opt k bindings with Some v' -> (k, v') | None -> (k, v))
        t.meta
    in
    let fresh =
      List.filter (fun (k, _) -> not (List.mem_assoc k t.meta)) bindings
    in
    { t with meta = replaced @ fresh }

  (* Normalize a schedule into per-victim crash/restart cycles: entries are
     sorted by round (stable), then walked with an alternating state machine.
     A restart with no preceding crash is dropped (the adversary cannot
     restart what is up); a crash while already down is dropped (first crash
     of a cycle wins — the crash-only special case of which is the documented
     [Fault.crash_silently_at] earliest-round rule); a restart must be
     strictly after its cycle's crash round. Each cycle is a crash entry plus
     an optional restart round. *)
  let cycles_of t =
    let per : (pid, entry list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        match e.mode with
        | Corrupt _ | Byzantine ->
            () (* not crash/restart cycle members; [to_fault] reads them *)
        | _ ->
            let tail =
              Option.value ~default:[] (Hashtbl.find_opt per e.victim)
            in
            Hashtbl.replace per e.victim (e :: tail))
      t.entries;
    let out : (pid, (entry * round option) array) Hashtbl.t = Hashtbl.create 8 in
    Hashtbl.iter
      (fun pid entries ->
        let sorted =
          List.stable_sort (fun a b -> compare a.at b.at) (List.rev entries)
        in
        let cycles = ref [] in
        let current = ref None in
        List.iter
          (fun e ->
            match (e.mode, !current) with
            | Restart, None -> () (* restart of an up process: dropped *)
            | Restart, Some (c : entry) ->
                if e.at > c.at then begin
                  cycles := (c, Some e.at) :: !cycles;
                  current := None
                end
                (* restart at or before the crash round: inapplicable, kept
                   pending in case a later restart round arrives *)
            | _, Some _ -> () (* crash while already down: first wins *)
            | _, None -> current := Some e)
          sorted;
        (match !current with Some c -> cycles := (c, None) :: !cycles | None -> ());
        Hashtbl.replace out pid (Array.of_list (List.rev !cycles)))
      per;
    out

  (* Normalization rules for the corruption/Byzantine algebra:
     - per victim, the earliest [Byzantine] entry wins; later ones are
       duplicates and dropped;
     - a Byzantine pid's entries at or after its subversion round are
       subsumed (crashing, restarting or corrupting an adversary-controlled
       process adds nothing — in particular Byzantine subsumes later crashes
       and a subverted pid is never restarted);
     - duplicate [Corrupt] entries (same victim, same round) keep the first.
     Crash/restart cycles are left to [cycles_of]'s own state machine.
     Idempotent; [to_fault] applies it, so un-normalized schedules and their
     normal forms build identical fault plans. *)
  let normalize t =
    let byz_at : (pid, round) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        match e.mode with
        | Byzantine -> (
            match Hashtbl.find_opt byz_at e.victim with
            | Some b when b <= e.at -> ()
            | _ -> Hashtbl.replace byz_at e.victim e.at)
        | _ -> ())
      t.entries;
    let seen_byz : (pid, unit) Hashtbl.t = Hashtbl.create 8 in
    let seen_corrupt : (pid * round, unit) Hashtbl.t = Hashtbl.create 8 in
    let keep e =
      match e.mode with
      | Byzantine ->
          (match Hashtbl.find_opt byz_at e.victim with
          | Some b when e.at > b -> false
          | _ ->
              if Hashtbl.mem seen_byz e.victim then false
              else begin
                Hashtbl.add seen_byz e.victim ();
                true
              end)
      | m -> (
          match Hashtbl.find_opt byz_at e.victim with
          | Some b when e.at >= b -> false
          | _ -> (
              match m with
              | Corrupt _ ->
                  if Hashtbl.mem seen_corrupt (e.victim, e.at) then false
                  else begin
                    Hashtbl.add seen_corrupt (e.victim, e.at) ();
                    true
                  end
              | _ -> true))
    in
    { t with entries = List.filter keep t.entries }

  (* The shrinker's cost objective: how much adversary power a schedule
     spends. Subverting a process outweighs tampering with one link-round,
     which outweighs an ordinary crash or restart. *)
  let cost t =
    List.fold_left
      (fun acc e ->
        acc
        + match e.mode with Byzantine -> 5 | Corrupt _ -> 2 | _ -> 1)
      0 t.entries

  let to_fault t =
    let t = normalize t in
    let cycles = cycles_of t in
    (* which cycle each pid is currently in; advanced by committed revivals *)
    let idx : (pid, int) Hashtbl.t = Hashtbl.create 8 in
    let current pid =
      match Hashtbl.find_opt cycles pid with
      | None -> None
      | Some arr ->
          let i = Option.value ~default:0 (Hashtbl.find_opt idx pid) in
          if i < Array.length arr then Some arr.(i) else None
    in
    let silent_from pid =
      match current pid with
      | Some ({ mode = Silent; at; _ }, _) -> Some at
      | _ -> None
    in
    let on_step (v : Fault.step_view) =
      match current v.sv_pid with
      | Some ({ mode = Acting { keep_work; delivery }; at; _ }, _)
        when v.sv_round >= at ->
          Fault.Crash { keep_work; delivery }
      | _ -> Fault.Survive
    in
    let acts_from pid =
      match current pid with
      | Some ({ mode = Acting _; at; _ }, _) -> at
      | _ -> max_int
    in
    let restarts =
      Hashtbl.fold
        (fun pid arr acc ->
          Array.fold_left
            (fun acc (_, rr) ->
              match rr with Some r -> (pid, r) :: acc | None -> acc)
            acc arr)
        cycles []
      |> List.sort compare
    in
    let on_restart pid _r =
      Hashtbl.replace idx pid
        (1 + Option.value ~default:0 (Hashtbl.find_opt idx pid))
    in
    (* Corruption entries, per victim in round order, each consumable once:
       an entry fires at the victim's first message-emitting round >= its
       scheduled round (the kernel only asks when there are sends to
       corrupt). *)
    let corrupt_tbl : (pid, (round * Fault.tamper * bool ref) list) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun e ->
        match e.mode with
        | Corrupt tam ->
            let tail =
              Option.value ~default:[] (Hashtbl.find_opt corrupt_tbl e.victim)
            in
            Hashtbl.replace corrupt_tbl e.victim
              ((e.at, tam, ref false) :: tail)
        | _ -> ())
      t.entries;
    Hashtbl.iter
      (fun pid l ->
        Hashtbl.replace corrupt_tbl pid
          (List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) (List.rev l)))
      (Hashtbl.copy corrupt_tbl);
    let corrupts pid r =
      match Hashtbl.find_opt corrupt_tbl pid with
      | None -> None
      | Some l ->
          let rec go = function
            | [] -> None
            | (at, tam, used) :: rest ->
                if !used then go rest
                else if at <= r then begin
                  used := true;
                  Some tam
                end
                else None (* ascending by round: nothing due yet *)
          in
          go l
    in
    let byz : (pid, round) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        match e.mode with
        | Byzantine -> Hashtbl.replace byz e.victim e.at
        | _ -> ())
      t.entries;
    let byzantine_from pid = Hashtbl.find_opt byz pid in
    Fault.custom ~restarts ~on_restart ~corrupts ~byzantine_from ~acts_from
      ~silent_from ~on_step ()

  let restart_count t =
    List.length (List.filter (fun e -> e.mode = Restart) t.entries)

  let delivery_to_string = function
    | Fault.All -> "all"
    | Fault.Prefix k -> "prefix " ^ string_of_int k
    | Fault.Indices l ->
        "indices " ^ String.concat "," (List.map string_of_int l)

  let mode_to_string = function
    | Silent -> "silent"
    | Acting { keep_work; delivery } ->
        Printf.sprintf "acting %s %s"
          (if keep_work then "keep" else "drop")
          (delivery_to_string delivery)
    | Restart -> "restart"
    | Corrupt tam ->
        Printf.sprintf "corrupt %s salt %d"
          (Fault.tamper_kind_to_string tam.t_kind)
          tam.t_salt
    | Byzantine -> "byz"

  let entry_to_string e =
    match e.mode with
    | Restart -> Printf.sprintf "restart %d @%d" e.victim e.at
    | Corrupt tam ->
        Printf.sprintf "corrupt %d @%d %s salt %d" e.victim e.at
          (Fault.tamper_kind_to_string tam.t_kind)
          tam.t_salt
    | Byzantine -> Printf.sprintf "byz %d @%d" e.victim e.at
    | m -> Printf.sprintf "crash %d @%d %s" e.victim e.at (mode_to_string m)

  let print t =
    let b = Buffer.create 256 in
    Buffer.add_string b "schedule v1\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "meta %s %s\n" k v))
      t.meta;
    List.iter
      (fun e -> Buffer.add_string b (entry_to_string e ^ "\n"))
      t.entries;
    Buffer.add_string b "end\n";
    Buffer.contents b

  let parse text =
    let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
    let int_tok lineno what s k =
      match int_of_string_opt s with
      | Some i -> k i
      | None -> err lineno (Printf.sprintf "expected %s, got %S" what s)
    in
    let parse_delivery lineno toks k =
      match toks with
      | [ "all" ] -> k Fault.All
      | [ "prefix"; n ] -> int_tok lineno "prefix length" n (fun i -> k (Fault.Prefix i))
      | [ "indices" ] -> k (Fault.Indices [])
      | [ "indices"; csv ] ->
          let parts = String.split_on_char ',' csv in
          let rec go acc = function
            | [] -> k (Fault.Indices (List.rev acc))
            | p :: rest ->
                int_tok lineno "index" p (fun i -> go (i :: acc) rest)
          in
          go [] parts
      | _ -> err lineno "expected all | prefix <k> | indices <i,..>"
    in
    let parse_mode lineno toks k =
      match toks with
      | [ "silent" ] -> k Silent
      | "acting" :: kw :: rest ->
          let keep =
            match kw with
            | "keep" -> Some true
            | "drop" -> Some false
            | _ -> None
          in
          (match keep with
          | None -> err lineno "expected keep or drop after acting"
          | Some keep_work ->
              parse_delivery lineno rest (fun delivery ->
                  k (Acting { keep_work; delivery })))
      | _ -> err lineno "expected silent or acting ..."
    in
    let lines = String.split_on_char '\n' text in
    let strip s =
      let s =
        if String.length s > 0 && s.[String.length s - 1] = '\r' then
          String.sub s 0 (String.length s - 1)
        else s
      in
      String.trim s
    in
    let rec body lineno meta entries = function
      | [] -> Error "missing final \"end\" line"
      | raw :: rest -> (
          let line = strip raw in
          if line = "" || line.[0] = '#' then body (lineno + 1) meta entries rest
          else if line = "end" then
            Ok { meta = List.rev meta; entries = List.rev entries }
          else
            let toks =
              String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
            in
            match toks with
            | "meta" :: key :: rest_toks ->
                (* the value is everything after the key, single-spaced *)
                body (lineno + 1)
                  ((key, String.concat " " rest_toks) :: meta)
                  entries rest
            | "crash" :: pid :: at :: mode_toks
              when String.length at > 1 && at.[0] = '@' ->
                int_tok lineno "pid" pid (fun victim ->
                    int_tok lineno "round"
                      (String.sub at 1 (String.length at - 1))
                      (fun at ->
                        parse_mode lineno mode_toks (fun mode ->
                            body (lineno + 1) meta
                              ({ victim; at; mode } :: entries)
                              rest)))
            | [ "restart"; pid; at ] when String.length at > 1 && at.[0] = '@' ->
                int_tok lineno "pid" pid (fun victim ->
                    int_tok lineno "round"
                      (String.sub at 1 (String.length at - 1))
                      (fun at ->
                        body (lineno + 1) meta
                          ({ victim; at; mode = Restart } :: entries)
                          rest))
            | [ "corrupt"; pid; at; kind; "salt"; salt ]
              when String.length at > 1 && at.[0] = '@' -> (
                match Fault.tamper_kind_of_string kind with
                | None ->
                    err lineno
                      (Printf.sprintf
                         "expected lying-view | replay-stale | inflate-done, \
                          got %S"
                         kind)
                | Some t_kind ->
                    int_tok lineno "pid" pid (fun victim ->
                        int_tok lineno "round"
                          (String.sub at 1 (String.length at - 1))
                          (fun at ->
                            int_tok lineno "salt" salt (fun t_salt ->
                                body (lineno + 1) meta
                                  ({ victim;
                                     at;
                                     mode = Corrupt { Fault.t_kind; t_salt } }
                                  :: entries)
                                  rest))))
            | [ "byz"; pid; at ] when String.length at > 1 && at.[0] = '@' ->
                int_tok lineno "pid" pid (fun victim ->
                    int_tok lineno "round"
                      (String.sub at 1 (String.length at - 1))
                      (fun at ->
                        body (lineno + 1) meta
                          ({ victim; at; mode = Byzantine } :: entries)
                          rest))
            | _ -> err lineno (Printf.sprintf "unrecognized line %S" line))
    in
    let rec header lineno = function
      | [] -> Error "empty schedule text"
      | raw :: rest ->
          let line = strip raw in
          if line = "" || line.[0] = '#' then header (lineno + 1) rest
          else if line = "schedule v1" then body (lineno + 1) [] [] rest
          else err lineno "expected header \"schedule v1\""
    in
    header 1 lines

  let pp ppf t =
    if t.entries = [] then Format.fprintf ppf "(fault-free)"
    else
      Format.fprintf ppf "%s"
        (String.concat "; "
           (List.map
              (fun e ->
                match e.mode with
                | Restart -> Printf.sprintf "%d@%d restart" e.victim e.at
                | m -> Printf.sprintf "%d@%d %s" e.victim e.at (mode_to_string m))
              t.entries))
end

(* ------------------------------------------------------------------ *)
(* Generation *)

let default_modes =
  [
    Schedule.Silent;
    Schedule.Acting { keep_work = true; delivery = Fault.All };
    Schedule.Acting { keep_work = false; delivery = Fault.Prefix 0 };
    Schedule.Acting { keep_work = false; delivery = Fault.Prefix 1 };
  ]

let exhaustive ~t ~window ?(round_step = 1) ~modes () =
  if t < 1 then invalid_arg "Campaign.exhaustive: t must be >= 1";
  if round_step < 1 then invalid_arg "Campaign.exhaustive: round_step >= 1";
  if modes = [] then invalid_arg "Campaign.exhaustive: no modes";
  if window < 0 then invalid_arg "Campaign.exhaustive: negative window";
  let rounds = List.init ((window / round_step) + 1) (fun i -> i * round_step) in
  (* all victim subsets of [0..t-1]; the full set is filtered out below *)
  let rec subsets pid : pid list Seq.t =
    if pid = t then Seq.return []
    else
      Seq.concat_map
        (fun tail -> List.to_seq [ tail; pid :: tail ])
        (subsets (pid + 1))
  in
  let rec assign : pid list -> Schedule.entry list Seq.t = function
    | [] -> Seq.return []
    | v :: rest ->
        Seq.concat_map
          (fun tail ->
            Seq.concat_map
              (fun at ->
                Seq.map
                  (fun mode -> { Schedule.victim = v; at; mode } :: tail)
                  (List.to_seq modes))
              (List.to_seq rounds))
          (assign rest)
  in
  subsets 0
  |> Seq.filter (fun vs -> List.length vs < t)
  |> Seq.concat_map (fun vs -> Seq.map (Schedule.make ?meta:None) (assign vs))

let sample g ~t ~window =
  if t < 1 then invalid_arg "Campaign.sample: t must be >= 1";
  let victims = Prng.int g t in
  let pids = Prng.sample_without_replacement g victims t in
  let entries =
    List.map
      (fun victim ->
        let at = Prng.int g (max 1 (window + 1)) in
        let mode =
          match Prng.int g 6 with
          | 0 -> Schedule.Silent
          | 1 ->
              Schedule.Acting { keep_work = Prng.bool g; delivery = Fault.All }
          | 2 | 3 ->
              Schedule.Acting
                { keep_work = Prng.bool g; delivery = Fault.Prefix (Prng.int g 4) }
          | _ ->
              let k = Prng.int g 4 in
              let idx = Prng.sample_without_replacement g k 8 in
              Schedule.Acting
                { keep_work = Prng.bool g; delivery = Fault.Indices idx }
        in
        { Schedule.victim; at; mode })
      pids
  in
  Schedule.make entries

let sample_recovery g ~t ~window ~restart_gap =
  if restart_gap < 1 then invalid_arg "Campaign.sample_recovery: restart_gap >= 1";
  let base = sample g ~t ~window in
  (* Give each victim a restart with probability 3/4; a restarted victim
     gets a whole second crash/restart cycle with probability 1/4 — storms,
     not just blips. *)
  let extra =
    List.concat_map
      (fun (e : Schedule.entry) ->
        match e.mode with
        | Schedule.Restart -> []
        | _ ->
            if Prng.int g 4 = 0 then []
            else begin
              let r1 = e.at + 1 + Prng.int g restart_gap in
              let restart1 = { e with Schedule.at = r1; mode = Schedule.Restart } in
              if Prng.int g 4 > 0 then [ restart1 ]
              else begin
                let c2 = r1 + Prng.int g (max 1 restart_gap) in
                let crash2 =
                  { e with
                    Schedule.at = c2;
                    mode =
                      (if Prng.bool g then Schedule.Silent
                       else
                         Schedule.Acting
                           { keep_work = Prng.bool g;
                             delivery = Fault.Prefix (Prng.int g 4) });
                  }
                in
                if Prng.int g 2 = 0 then [ restart1; crash2 ]
                else
                  [ restart1; crash2;
                    { e with
                      Schedule.at = c2 + 1 + Prng.int g restart_gap;
                      mode = Schedule.Restart } ]
              end
            end)
      base.Schedule.entries
  in
  Schedule.make (base.Schedule.entries @ extra)

(* Corruption/Byzantine sampler: exactly [byz] subverted pids (the storm's
   [b]), crashes only among the honest remainder (always leaving at least one
   honest survivor), plus a handful of link corruptions. No restarts: the
   bounds judged by the byz oracle stacks assume crash-stop honest pids. *)
let sample_byz g ~t ~window ~byz =
  if t < 1 then invalid_arg "Campaign.sample_byz: t must be >= 1";
  if byz < 0 || byz >= t then
    invalid_arg "Campaign.sample_byz: need 0 <= byz < t";
  if window < 0 then invalid_arg "Campaign.sample_byz: negative window";
  let round () = Prng.int g (max 1 (window + 1)) in
  let byz_pids = Prng.sample_without_replacement g byz t in
  let byz_entries =
    List.map
      (fun victim -> { Schedule.victim; at = round (); mode = Schedule.Byzantine })
      byz_pids
  in
  let honest =
    List.filter (fun p -> not (List.mem p byz_pids)) (List.init t Fun.id)
  in
  let honest_arr = Array.of_list honest in
  let n_honest = Array.length honest_arr in
  let n_crash = if n_honest <= 1 then 0 else Prng.int g n_honest in
  let crash_entries =
    List.map
      (fun i ->
        let victim = honest_arr.(i) in
        let at = round () in
        let mode =
          match Prng.int g 4 with
          | 0 -> Schedule.Silent
          | 1 -> Schedule.Acting { keep_work = Prng.bool g; delivery = Fault.All }
          | _ ->
              Schedule.Acting
                { keep_work = Prng.bool g; delivery = Fault.Prefix (Prng.int g 4) }
        in
        { Schedule.victim; at; mode })
      (Prng.sample_without_replacement g n_crash n_honest)
  in
  let n_corrupt = Prng.int g (t + 1) in
  let corrupt_entries =
    List.init n_corrupt (fun _ ->
        let victim = Prng.int g t in
        let at = round () in
        let t_kind =
          match Prng.int g 3 with
          | 0 -> Fault.Lying_view
          | 1 -> Fault.Replay_stale
          | _ -> Fault.Inflate_done
        in
        let t_salt = Prng.int g 1_000_000 in
        { Schedule.victim; at; mode = Schedule.Corrupt { Fault.t_kind; t_salt } })
  in
  Schedule.make (byz_entries @ crash_entries @ corrupt_entries)

(* ------------------------------------------------------------------ *)
(* Oracles *)

type check_result = Pass | Pass_margin of float | Fail of string

type 'r oracle = { name : string; check : 'r -> check_result }

let first_failure oracles r =
  List.fold_left
    (fun acc o ->
      match acc with
      | Some _ -> acc
      | None -> (
          match o.check r with
          | Pass | Pass_margin _ -> None
          | Fail detail -> Some (o.name, detail)))
    None oracles

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let remove_at l i = List.filteri (fun j _ -> j <> i) l

let schedule_candidates =
  let remove = remove_at in
  let replace l i e = List.mapi (fun j x -> if j = i then e else x) l in
  let with_entries s entries = { s with Schedule.entries } in
  fun (s : Schedule.t) : Schedule.t Seq.t ->
    let es = s.entries in
    let n = List.length es in
    (* 1. drop a victim outright *)
    let drops = Seq.init n (fun i -> with_entries s (remove es i)) in
    (* 2. widen its delivery cut toward All / let it keep the work *)
    let weakenings =
      Seq.concat_map
        (fun i ->
          let e = List.nth es i in
          let variants =
            match e.Schedule.mode with
            | Schedule.Byzantine ->
                (* weaken full subversion to an ordinary silent crash *)
                [ Schedule.Silent ]
            | Schedule.Silent | Schedule.Restart | Schedule.Corrupt _ -> []
            | Schedule.Acting { keep_work; delivery } ->
                let widened =
                  match delivery with
                  | Fault.All -> []
                  | Fault.Prefix k ->
                      [ Fault.All; Fault.Prefix (k + 1) ]
                  | Fault.Indices _ -> [ Fault.All ]
                in
                List.map
                  (fun d -> Schedule.Acting { keep_work; delivery = d })
                  widened
                @
                if keep_work then []
                else [ Schedule.Acting { keep_work = true; delivery } ]
          in
          List.to_seq
            (List.map
               (fun mode -> with_entries s (replace es i { e with mode }))
               variants))
        (Seq.init n Fun.id)
    in
    (* 3. delay the crash (larger jumps first) *)
    let delays =
      Seq.concat_map
        (fun i ->
          let e = List.nth es i in
          List.to_seq
            (List.map
               (fun d -> with_entries s (replace es i { e with Schedule.at = e.at + d }))
               [ 16; 4; 1 ]))
        (Seq.init n Fun.id)
    in
    Seq.append drops (Seq.append weakenings delays)

let shrink ~run ~oracles ~oracle ~candidates ?cost ?(budget = 500) sched0 =
  let target = List.find_opt (fun o -> o.name = oracle) oracles in
  let runs = ref 0 in
  let last_detail = ref "" in
  let still_fails s =
    match target with
    | None -> false
    | Some o ->
        if !runs >= budget then false
        else begin
          incr runs;
          match o.check (run s) with
          | Fail d ->
              last_detail := d;
              true
          | Pass | Pass_margin _ -> false
        end
  in
  (* record the detail of the starting point (and sanity-check it fails) *)
  ignore (still_fails sched0);
  (* With a cost objective, a candidate must both still fail and not spend
     more adversary power than the incumbent — the greedy walk then ends on
     a cheapest-break along its candidate path. Checked before running: the
     cost test is free, the execution is not. *)
  let acceptable incumbent =
    match cost with
    | None -> fun _ -> true
    | Some c ->
        let bound = c incumbent in
        fun cand -> c cand <= bound
  in
  let rec improve s =
    let ok = acceptable s in
    match Seq.find (fun cand -> ok cand && still_fails cand) (candidates s) with
    | Some better -> improve better
    | None -> s
  in
  let final = improve sched0 in
  (final, !last_detail, !runs)

(* ------------------------------------------------------------------ *)
(* Campaign runner *)

type 'a failure = {
  schedule : 'a;
  oracle : string;
  detail : string;
  shrunk : 'a;
  shrunk_detail : string;
  shrink_executions : int;
}

type 'a stats = {
  schedules : int;
  executions : int;
  failures : 'a failure list;
  margins : (string * float) list;
}

(* The campaign engine: judge every schedule on a [Simkit.Pool] of [jobs]
   worker domains (one worker is a plain loop in the calling domain), then
   reduce the verdicts strictly in schedule order, shrinking sequentially
   (shrinking is a greedy walk whose minimality argument depends on
   candidate order, so it stays on one domain). The whole campaign is
   always judged, and the first [max_failures] failures in schedule order
   are kept, so results are byte-identical for every [jobs] value. Generic
   over the schedule type. *)
let run_parallel ?jobs ~run:exec ~oracles ~candidates ?cost
    ?(max_failures = 3) ?(shrink_budget = 500) schedules =
  let scheds = Array.of_seq schedules in
  (* Pure per-schedule judgement: margins are noted only for oracles
     checked before the first failure. *)
  let judge sched =
    let r = exec sched in
    List.fold_left
      (fun (margins, failure) o ->
        match failure with
        | Some _ -> (margins, failure)
        | None -> (
            match o.check r with
            | Pass -> (margins, None)
            | Pass_margin m -> ((o.name, m) :: margins, None)
            | Fail detail -> (margins, Some (o.name, detail))))
      ([], None) oracles
  in
  let verdicts = Pool.map ?jobs judge scheds in
  let margins : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let note_margin (name, m) =
    match Hashtbl.find_opt margins name with
    | Some m' when m' >= m -> ()
    | _ -> Hashtbl.replace margins name m
  in
  let executions = ref (Array.length scheds) in
  let failures = ref [] in
  Array.iteri
    (fun i (ms, verdict) ->
      List.iter note_margin (List.rev ms);
      match verdict with
      | Some (oracle, detail) when List.length !failures < max_failures ->
          let shrunk, shrunk_detail, spent =
            shrink ~run:exec ~oracles ~oracle ~candidates ?cost
              ~budget:shrink_budget scheds.(i)
          in
          executions := !executions + spent;
          failures :=
            { schedule = scheds.(i); oracle; detail; shrunk; shrunk_detail;
              shrink_executions = spent }
            :: !failures
      | _ -> ())
    verdicts;
  let margins =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) margins []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    schedules = Array.length scheds;
    executions = !executions;
    failures = List.rev !failures;
    margins;
  }

let pp_stats ppf s =
  Format.fprintf ppf "schedules=%d executions=%d violations=%d" s.schedules
    s.executions (List.length s.failures);
  if s.margins <> [] then begin
    Format.fprintf ppf " margins:";
    List.iter
      (fun (name, m) -> Format.fprintf ppf " %s=%.2f" name m)
      s.margins
  end

(* ------------------------------------------------------------------ *)
(* Asynchronous schedules *)

module Async = struct
  type crash = { victim : pid; at : int }
  type sever = { s_src : pid; s_dst : pid; s_from : int; s_to : int }

  type t = {
    meta : (string * string) list;
    crashes : crash list;
    restarts : crash list;  (* respawn ticks; net fleets only, sim crashes are final *)
    drop_bp : int;
    dup_bp : int;
    corrupt_bp : int;
    byz : crash list;  (* adversary-controlled from the given tick on *)
    slow_set : pid list;
    slow_factor : int;
    severs : sever list;  (* directed link cuts over tick windows *)
    max_delay : int;
    max_lag : int;
    seed : int64;
  }

  let make ?(meta = []) ?(crashes = []) ?(restarts = []) ?(drop_bp = 0)
      ?(dup_bp = 0) ?(corrupt_bp = 0) ?(byz = []) ?(slow_set = [])
      ?(slow_factor = 1) ?(severs = []) ?(max_delay = 5) ?(max_lag = 3)
      ?(seed = 1L) () =
    List.iter
      (fun s ->
        if s.s_from < 0 || s.s_to < s.s_from then
          invalid_arg "Campaign.Async.make: sever window must be 0 <= from <= to")
      severs;
    {
      meta;
      crashes;
      restarts;
      drop_bp;
      dup_bp;
      corrupt_bp;
      byz;
      slow_set;
      slow_factor;
      severs;
      max_delay;
      max_lag;
      seed;
    }

  let meta t key = List.assoc_opt key t.meta

  let add_meta t bindings =
    let replaced =
      List.map
        (fun (k, v) ->
          match List.assoc_opt k bindings with Some v' -> (k, v') | None -> (k, v))
        t.meta
    in
    let fresh =
      List.filter (fun (k, _) -> not (List.mem_assoc k t.meta)) bindings
    in
    { t with meta = replaced @ fresh }

  let csv_of_pids = function
    | [] -> "-"
    | l -> String.concat "," (List.map string_of_int l)

  let print t =
    let b = Buffer.create 256 in
    Buffer.add_string b "async-schedule v1\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "meta %s %s\n" k v))
      t.meta;
    Buffer.add_string b
      (Printf.sprintf "link drop %d dup %d\n" t.drop_bp t.dup_bp);
    if t.corrupt_bp > 0 then
      Buffer.add_string b (Printf.sprintf "corrupt %d\n" t.corrupt_bp);
    Buffer.add_string b
      (Printf.sprintf "slow %s factor %d\n" (csv_of_pids t.slow_set)
         t.slow_factor);
    Buffer.add_string b
      (Printf.sprintf "delay %d lag %d\n" t.max_delay t.max_lag);
    Buffer.add_string b (Printf.sprintf "seed %Ld\n" t.seed);
    List.iter
      (fun c ->
        Buffer.add_string b (Printf.sprintf "crash %d @%d\n" c.victim c.at))
      t.crashes;
    List.iter
      (fun c ->
        Buffer.add_string b (Printf.sprintf "byz %d @%d\n" c.victim c.at))
      t.byz;
    List.iter
      (fun c ->
        Buffer.add_string b (Printf.sprintf "restart %d @%d\n" c.victim c.at))
      t.restarts;
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "sever %d %d @%d @%d\n" s.s_src s.s_dst s.s_from
             s.s_to))
      t.severs;
    Buffer.add_string b "end\n";
    Buffer.contents b

  let parse text =
    let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
    let int_tok lineno what s k =
      match int_of_string_opt s with
      | Some i -> k i
      | None -> err lineno (Printf.sprintf "expected %s, got %S" what s)
    in
    let pids_tok lineno s k =
      if s = "-" then k []
      else
        let rec go acc = function
          | [] -> k (List.rev acc)
          | p :: rest -> int_tok lineno "pid" p (fun i -> go (i :: acc) rest)
        in
        go [] (String.split_on_char ',' s)
    in
    let lines = String.split_on_char '\n' text in
    let strip s =
      let s =
        if String.length s > 0 && s.[String.length s - 1] = '\r' then
          String.sub s 0 (String.length s - 1)
        else s
      in
      String.trim s
    in
    let rec body lineno acc = function
      | [] -> Error "missing final \"end\" line"
      | raw :: rest -> (
          let line = strip raw in
          if line = "" || line.[0] = '#' then body (lineno + 1) acc rest
          else if line = "end" then
            Ok
              { acc with
                meta = List.rev acc.meta;
                crashes = List.rev acc.crashes;
                restarts = List.rev acc.restarts;
                severs = List.rev acc.severs;
                byz = List.rev acc.byz }
          else
            let toks =
              String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
            in
            match toks with
            | "meta" :: key :: rest_toks ->
                body (lineno + 1)
                  { acc with meta = (key, String.concat " " rest_toks) :: acc.meta }
                  rest
            | [ "link"; "drop"; d; "dup"; u ] ->
                int_tok lineno "drop basis points" d (fun drop_bp ->
                    int_tok lineno "dup basis points" u (fun dup_bp ->
                        body (lineno + 1) { acc with drop_bp; dup_bp } rest))
            | [ "corrupt"; c ] ->
                int_tok lineno "corrupt basis points" c (fun corrupt_bp ->
                    body (lineno + 1) { acc with corrupt_bp } rest)
            | [ "slow"; pids; "factor"; f ] ->
                pids_tok lineno pids (fun slow_set ->
                    int_tok lineno "slow factor" f (fun slow_factor ->
                        body (lineno + 1) { acc with slow_set; slow_factor } rest))
            | [ "delay"; d; "lag"; l ] ->
                int_tok lineno "max delay" d (fun max_delay ->
                    int_tok lineno "max lag" l (fun max_lag ->
                        body (lineno + 1) { acc with max_delay; max_lag } rest))
            | [ "seed"; s ] -> (
                match Int64.of_string_opt s with
                | Some seed -> body (lineno + 1) { acc with seed } rest
                | None -> err lineno (Printf.sprintf "expected seed, got %S" s))
            | [ "crash"; pid; at ] when String.length at > 1 && at.[0] = '@' ->
                int_tok lineno "pid" pid (fun victim ->
                    int_tok lineno "tick"
                      (String.sub at 1 (String.length at - 1))
                      (fun at ->
                        body (lineno + 1)
                          { acc with crashes = { victim; at } :: acc.crashes }
                          rest))
            | [ "byz"; pid; at ] when String.length at > 1 && at.[0] = '@' ->
                int_tok lineno "pid" pid (fun victim ->
                    int_tok lineno "tick"
                      (String.sub at 1 (String.length at - 1))
                      (fun at ->
                        body (lineno + 1)
                          { acc with byz = { victim; at } :: acc.byz }
                          rest))
            | [ "restart"; pid; at ] when String.length at > 1 && at.[0] = '@'
              ->
                int_tok lineno "pid" pid (fun victim ->
                    int_tok lineno "tick"
                      (String.sub at 1 (String.length at - 1))
                      (fun at ->
                        body (lineno + 1)
                          { acc with restarts = { victim; at } :: acc.restarts }
                          rest))
            | [ "sever"; src; dst; from_; to_ ]
              when String.length from_ > 1
                   && from_.[0] = '@'
                   && String.length to_ > 1
                   && to_.[0] = '@' ->
                int_tok lineno "pid" src (fun s_src ->
                    int_tok lineno "pid" dst (fun s_dst ->
                        int_tok lineno "tick"
                          (String.sub from_ 1 (String.length from_ - 1))
                          (fun s_from ->
                            int_tok lineno "tick"
                              (String.sub to_ 1 (String.length to_ - 1))
                              (fun s_to ->
                                if s_from < 0 || s_to < s_from then
                                  err lineno "sever window must be 0 <= from <= to"
                                else
                                  body (lineno + 1)
                                    { acc with
                                      severs =
                                        { s_src; s_dst; s_from; s_to }
                                        :: acc.severs }
                                    rest))))
            | _ -> err lineno (Printf.sprintf "unrecognized line %S" line))
    in
    let rec header lineno = function
      | [] -> Error "empty schedule text"
      | raw :: rest ->
          let line = strip raw in
          if line = "" || line.[0] = '#' then header (lineno + 1) rest
          else if line = "async-schedule v1" then body (lineno + 1) (make ()) rest
          else err lineno "expected header \"async-schedule v1\""
    in
    header 1 lines

  let pp ppf t =
    Format.fprintf ppf "drop %d.%02d%% dup %d.%02d%%" (t.drop_bp / 100)
      (t.drop_bp mod 100) (t.dup_bp / 100) (t.dup_bp mod 100);
    if t.corrupt_bp > 0 then
      Format.fprintf ppf " corrupt %d.%02d%%" (t.corrupt_bp / 100)
        (t.corrupt_bp mod 100);
    if t.slow_set <> [] then
      Format.fprintf ppf " slow {%s}x%d" (csv_of_pids t.slow_set) t.slow_factor;
    Format.fprintf ppf " delay %d lag %d seed %Ld" t.max_delay t.max_lag t.seed;
    if t.crashes = [] && t.byz = [] then Format.fprintf ppf " (crash-free)"
    else begin
      List.iter
        (fun c -> Format.fprintf ppf " crash %d@@%d" c.victim c.at)
        t.crashes;
      List.iter
        (fun c -> Format.fprintf ppf " byz %d@@%d" c.victim c.at)
        t.byz
    end;
    List.iter
      (fun c -> Format.fprintf ppf " restart %d@@%d" c.victim c.at)
      t.restarts;
    List.iter
      (fun s ->
        Format.fprintf ppf " sever %d>%d@@%d-%d" s.s_src s.s_dst s.s_from
          s.s_to)
      t.severs

  let sample g ~t ~window =
    if t < 1 then invalid_arg "Campaign.Async.sample: t must be >= 1";
    if window < 0 then invalid_arg "Campaign.Async.sample: negative window";
    let drop_bp = Prng.int g 3_001 in
    let dup_bp = Prng.int g 2_001 in
    let slow_set =
      List.filter (fun _ -> Prng.int g 4 = 0) (List.init t Fun.id)
    in
    let slow_factor = if slow_set = [] then 1 else Prng.int_in g 2 4 in
    let max_delay = Prng.int_in g 1 6 in
    let max_lag = Prng.int_in g 1 4 in
    let victims = Prng.int g t in
    let pids = Prng.sample_without_replacement g victims t in
    let crashes =
      List.map
        (fun victim -> { victim; at = Prng.int g (max 1 (window + 1)) })
        pids
    in
    let seed = Prng.next_int64 g in
    make ~crashes ~drop_bp ~dup_bp ~slow_set ~slow_factor ~max_delay ~max_lag
      ~seed ()

  (* The asynchronous corruption/Byzantine sampler: exactly [byz] subverted
     pids plus a mildly lossy, possibly-corrupting link; crashes only among
     the honest remainder (at least one honest pid always survives). *)
  let sample_byz g ~t ~window ~byz =
    if t < 1 then invalid_arg "Campaign.Async.sample_byz: t must be >= 1";
    if byz < 0 || byz >= t then
      invalid_arg "Campaign.Async.sample_byz: need 0 <= byz < t";
    if window < 0 then invalid_arg "Campaign.Async.sample_byz: negative window";
    let drop_bp = Prng.int g 1_501 in
    let dup_bp = Prng.int g 1_001 in
    let corrupt_bp = Prng.int g 2_001 in
    let max_delay = Prng.int_in g 1 6 in
    let max_lag = Prng.int_in g 1 4 in
    let tick () = Prng.int g (max 1 (window + 1)) in
    let byz_pids = Prng.sample_without_replacement g byz t in
    let byz_entries =
      List.map (fun victim -> { victim; at = tick () }) byz_pids
    in
    let honest =
      List.filter (fun p -> not (List.mem p byz_pids)) (List.init t Fun.id)
    in
    let honest_arr = Array.of_list honest in
    let n_honest = Array.length honest_arr in
    let n_crash = if n_honest <= 1 then 0 else Prng.int g n_honest in
    let crashes =
      List.map
        (fun i -> { victim = honest_arr.(i); at = tick () })
        (Prng.sample_without_replacement g n_crash n_honest)
    in
    let seed = Prng.next_int64 g in
    make ~crashes ~byz:byz_entries ~drop_bp ~dup_bp ~corrupt_bp ~max_delay
      ~max_lag ~seed ()

  (* Cost objective mirroring [Schedule.cost]: a subverted pid is the most
     expensive, a corrupting link counts as one corruption, a crash is the
     unit. *)
  let cost (s : t) =
    (5 * List.length s.byz)
    + (if s.corrupt_bp > 0 then 2 else 0)
    + List.length s.crashes
    + List.length s.severs

  let candidates (s : t) : t Seq.t =
    let n = List.length s.crashes in
    (* 1. drop a crash outright *)
    let drops =
      Seq.init n (fun i -> { s with crashes = remove_at s.crashes i })
    in
    (* 2. calm the link: no loss, halved loss, no duplication, no slow set *)
    let link =
      List.to_seq
        ((if s.drop_bp > 0 then
            [ { s with drop_bp = 0 }; { s with drop_bp = s.drop_bp / 2 } ]
          else [])
        @ (if s.dup_bp > 0 then [ { s with dup_bp = 0 } ] else [])
        @ (if s.corrupt_bp > 0 then
             [ { s with corrupt_bp = 0 };
               { s with corrupt_bp = s.corrupt_bp / 2 } ]
           else [])
        @ (if s.slow_set <> [] then
             { s with slow_set = []; slow_factor = 1 }
             :: List.mapi
                  (fun i _ -> { s with slow_set = remove_at s.slow_set i })
                  s.slow_set
           else [])
        @
        if s.slow_factor > 1 then [ { s with slow_factor = 1 } ] else [])
    in
    (* 3. weaken the Byzantine pids: drop one, or demote it to a crash at
       the same tick *)
    let nb = List.length s.byz in
    let byz_weaken =
      Seq.append
        (Seq.init nb (fun i -> { s with byz = remove_at s.byz i }))
        (Seq.init nb (fun i ->
             let b = List.nth s.byz i in
             { s with byz = remove_at s.byz i; crashes = s.crashes @ [ b ] }))
    in
    (* 4. delay the crashes (larger jumps first) *)
    let delays =
      Seq.concat_map
        (fun i ->
          List.to_seq
            (List.map
               (fun d ->
                 { s with
                   crashes =
                     List.mapi
                       (fun j x -> if j = i then { x with at = x.at + d } else x)
                       s.crashes })
               [ 16; 4; 1 ]))
        (Seq.init n Fun.id)
    in
    (* 5. heal a severed link, or keep a crash but cancel its respawn *)
    let heal =
      Seq.append
        (Seq.init (List.length s.severs) (fun i ->
             { s with severs = remove_at s.severs i }))
        (Seq.init (List.length s.restarts) (fun i ->
             { s with restarts = remove_at s.restarts i }))
    in
    Seq.append drops
      (Seq.append link (Seq.append byz_weaken (Seq.append delays heal)))
end
