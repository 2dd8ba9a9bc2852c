open Types
module Jsonw = Dhw_util.Jsonw

type event =
  | Step of { pid : pid; at : int }
  | Send of { src : pid; dst : pid; at : int; tag : string }
  | Drop of { src : pid; dst : pid; at : int; tag : string }
  | Work of { pid : pid; at : int; unit_id : int }
  | Crash of { pid : pid; at : int }
  | Restart of { pid : pid; at : int }
  | Persist of { pid : pid; at : int }
  | Tamper of { pid : pid; at : int }
  | Reject of { pid : pid; at : int }
  | Terminate of { pid : pid; at : int }
  | Span_begin of { name : string; pid : pid; at : int; inc : int; ts_us : float }
  | Span_end of { name : string; pid : pid; at : int; inc : int; ts_us : float }

let at = function
  | Step { at; _ } | Send { at; _ } | Drop { at; _ } | Work { at; _ }
  | Crash { at; _ } | Restart { at; _ } | Persist { at; _ }
  | Tamper { at; _ } | Reject { at; _ } | Terminate { at; _ }
  | Span_begin { at; _ } | Span_end { at; _ } ->
      at

type sink = event -> unit

let null _ = ()

let tee sinks e = List.iter (fun s -> s e) sinks

let memory () =
  let acc = ref [] in
  ((fun e -> acc := e :: !acc), fun () -> List.rev !acc)

let event_to_json e =
  let open Jsonw in
  let base ev t rest = ("ev", Str ev) :: ("at", Int t) :: rest in
  Obj
    (match e with
    | Step { pid; at } -> base "step" at [ ("pid", Int pid) ]
    | Send { src; dst; at; tag } ->
        base "send" at [ ("src", Int src); ("dst", Int dst); ("tag", Str tag) ]
    | Drop { src; dst; at; tag } ->
        base "drop" at [ ("src", Int src); ("dst", Int dst); ("tag", Str tag) ]
    | Work { pid; at; unit_id } ->
        base "work" at [ ("pid", Int pid); ("unit", Int unit_id) ]
    | Crash { pid; at } -> base "crash" at [ ("pid", Int pid) ]
    | Restart { pid; at } -> base "restart" at [ ("pid", Int pid) ]
    | Persist { pid; at } -> base "persist" at [ ("pid", Int pid) ]
    | Tamper { pid; at } -> base "tamper" at [ ("pid", Int pid) ]
    | Reject { pid; at } -> base "reject" at [ ("pid", Int pid) ]
    | Terminate { pid; at } -> base "terminate" at [ ("pid", Int pid) ]
    | Span_begin { name; pid; at; inc; ts_us } ->
        base "span_begin" at
          [ ("name", Str name); ("pid", Int pid); ("inc", Int inc);
            ("ts_us", Float ts_us) ]
    | Span_end { name; pid; at; inc; ts_us } ->
        base "span_end" at
          [ ("name", Str name); ("pid", Int pid); ("inc", Int inc);
            ("ts_us", Float ts_us) ])

let jsonl oc e =
  output_string oc (Jsonw.to_string (event_to_json e));
  output_char oc '\n'

let pp_event ppf = function
  | Step { pid; at } -> Format.fprintf ppf "[r%d] p%d steps" at pid
  | Send { src; dst; at; tag } ->
      Format.fprintf ppf "[r%d] p%d -> p%d : %s" at src dst tag
  | Drop { src; dst; at; tag } ->
      Format.fprintf ppf "[r%d] p%d -/-> p%d : %s (crash)" at src dst tag
  | Work { pid; at; unit_id } ->
      Format.fprintf ppf "[r%d] p%d performs unit %d" at pid unit_id
  | Crash { pid; at } -> Format.fprintf ppf "[r%d] p%d CRASHES" at pid
  | Restart { pid; at } -> Format.fprintf ppf "[r%d] p%d RESTARTS" at pid
  | Persist { pid; at } -> Format.fprintf ppf "[r%d] p%d persists" at pid
  | Tamper { pid; at } -> Format.fprintf ppf "[r%d] p%d payload TAMPERED" at pid
  | Reject { pid; at } -> Format.fprintf ppf "[r%d] p%d rejects a message" at pid
  | Terminate { pid; at } -> Format.fprintf ppf "[r%d] p%d terminates" at pid
  | Span_begin { name; pid; at; inc; _ } ->
      Format.fprintf ppf "[r%d] p%d begins %s (inc %d)" at pid name inc
  | Span_end { name; pid; at; inc; _ } ->
      Format.fprintf ppf "[r%d] p%d ends %s (inc %d)" at pid name inc

let pp ?(limit = max_int) ppf events =
  List.iteri (fun i e -> if i < limit then Format.fprintf ppf "%a@." pp_event e) events;
  let more = List.length events - limit in
  if more > 0 then Format.fprintf ppf "... (+%d more events)@." more

(* ------------------------------------------------------------------ *)
(* Span collector: pair Span_begin/Span_end into completed Spanfile
   spans. Begins nest per (name, pid, inc) — a later begin with the same
   key shadows the earlier one until its end arrives (LIFO), which is the
   only shape the substrates emit. Unmatched begins (e.g. a crash inside
   a span) are discarded: a span without an end has no duration. *)

let span_collector ~src () =
  let open_spans : (string * int * int, (int * float) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let done_spans = ref [] in
  let sink = function
    | Span_begin { name; pid; at; inc; ts_us } ->
        let key = (name, pid, inc) in
        let stack =
          match Hashtbl.find_opt open_spans key with
          | Some s -> s
          | None ->
              let s = ref [] in
              Hashtbl.add open_spans key s;
              s
        in
        stack := (at, ts_us) :: !stack
    | Span_end { name; pid; at = _; inc; ts_us } -> (
        match Hashtbl.find_opt open_spans (name, pid, inc) with
        | Some ({ contents = (at0, ts0) :: rest } as stack) ->
            stack := rest;
            done_spans :=
              {
                Dhw_util.Spanfile.name;
                src;
                pid;
                inc;
                round = at0;
                ts_us = ts0;
                dur_us = ts_us -. ts0;
                args = [];
              }
              :: !done_spans
        | _ -> ())
    | _ -> ()
  in
  (sink, fun () -> List.rev !done_spans)

(* ------------------------------------------------------------------ *)
(* Timeline: fold the stream into per-round aggregates. *)

module Timeline = struct
  type cell = {
    mutable d_steps : int;
    mutable d_work : int;
    mutable d_msgs : int;
    mutable d_drops : int;
    mutable d_crashes : int;
    mutable d_restarts : int;
    mutable d_persists : int;
    mutable d_tampers : int;
    mutable d_rejects : int;
    mutable d_terminated : int;
  }

  type t = {
    np : int;
    nu : int;
    cells : (int, cell) Hashtbl.t;
    covered_at : int array;  (* first round each unit was performed; -1 = never *)
  }

  let create ~n_processes ~n_units =
    {
      np = n_processes;
      nu = n_units;
      cells = Hashtbl.create 64;
      covered_at = Array.make (max 1 n_units) (-1);
    }

  let cell t at =
    match Hashtbl.find_opt t.cells at with
    | Some c -> c
    | None ->
        let c =
          { d_steps = 0; d_work = 0; d_msgs = 0; d_drops = 0; d_crashes = 0;
            d_restarts = 0; d_persists = 0; d_tampers = 0; d_rejects = 0;
            d_terminated = 0 }
        in
        Hashtbl.add t.cells at c;
        c

  let observe t e =
    match e with
    | Span_begin _ | Span_end _ -> () (* timing, not accounting: no cell *)
    | _ ->
    let c = cell t (at e) in
    match e with
    | Span_begin _ | Span_end _ -> assert false
    | Step _ -> c.d_steps <- c.d_steps + 1
    | Send _ -> c.d_msgs <- c.d_msgs + 1
    | Drop _ -> c.d_drops <- c.d_drops + 1
    | Work { unit_id; at; _ } ->
        c.d_work <- c.d_work + 1;
        if unit_id >= 0 && unit_id < t.nu then
          if t.covered_at.(unit_id) < 0 || t.covered_at.(unit_id) > at then
            t.covered_at.(unit_id) <- at
    | Crash _ -> c.d_crashes <- c.d_crashes + 1
    | Restart _ -> c.d_restarts <- c.d_restarts + 1
    | Persist _ -> c.d_persists <- c.d_persists + 1
    | Tamper _ -> c.d_tampers <- c.d_tampers + 1
    | Reject _ -> c.d_rejects <- c.d_rejects + 1
    | Terminate _ -> c.d_terminated <- c.d_terminated + 1

  let sink t = observe t

  type row = {
    at : int;
    alive : int;
    work : int;
    msgs : int;
    effort : int;
    covered : int;
    crashes : int;
    restarts : int;
    persists : int;
    corruptions : int;
    rejected : int;
    terminated : int;
    d_work : int;
    d_msgs : int;
    d_crashes : int;
    d_restarts : int;
    d_persists : int;
    d_tampers : int;
    d_rejects : int;
    d_terminated : int;
  }

  let rows t =
    let ats =
      Hashtbl.fold (fun k _ acc -> k :: acc) t.cells [] |> List.sort compare
    in
    (* first-coverage rounds, ascending, for a single merge pass *)
    let firsts =
      Array.to_list t.covered_at
      |> List.filter (fun r -> r >= 0)
      |> List.sort compare
      |> ref
    in
    let covered = ref 0 in
    let work = ref 0 and msgs = ref 0 in
    let crashes = ref 0 and terminated = ref 0 in
    let restarts = ref 0 and persists = ref 0 in
    let corruptions = ref 0 and rejected = ref 0 in
    List.map
      (fun at ->
        let c = Hashtbl.find t.cells at in
        work := !work + c.d_work;
        msgs := !msgs + c.d_msgs;
        crashes := !crashes + c.d_crashes;
        restarts := !restarts + c.d_restarts;
        persists := !persists + c.d_persists;
        corruptions := !corruptions + c.d_tampers;
        rejected := !rejected + c.d_rejects;
        terminated := !terminated + c.d_terminated;
        let rec absorb () =
          match !firsts with
          | r :: rest when r <= at ->
              incr covered;
              firsts := rest;
              absorb ()
          | _ -> ()
        in
        absorb ();
        {
          at;
          alive = t.np - !crashes + !restarts - !terminated;
          work = !work;
          msgs = !msgs;
          effort = !work + !msgs;
          covered = !covered;
          crashes = !crashes;
          restarts = !restarts;
          persists = !persists;
          corruptions = !corruptions;
          rejected = !rejected;
          terminated = !terminated;
          d_work = c.d_work;
          d_msgs = c.d_msgs;
          d_crashes = c.d_crashes;
          d_restarts = c.d_restarts;
          d_persists = c.d_persists;
          d_tampers = c.d_tampers;
          d_rejects = c.d_rejects;
          d_terminated = c.d_terminated;
        })
      ats

  let final t =
    match rows t with [] -> None | l -> Some (List.nth l (List.length l - 1))

  let to_json t =
    let open Jsonw in
    let row r =
      Obj
        [
          ("at", Int r.at);
          ("alive", Int r.alive);
          ("work", Int r.work);
          ("messages", Int r.msgs);
          ("effort", Int r.effort);
          ("covered", Int r.covered);
          ("crashes", Int r.crashes);
          ("restarts", Int r.restarts);
          ("persists", Int r.persists);
          ("corruptions", Int r.corruptions);
          ("rejected", Int r.rejected);
          ("terminated", Int r.terminated);
        ]
    in
    Obj
      [
        ("schema", Str "dhw-timeline/v3");
        ("processes", Int t.np);
        ("units", Int t.nu);
        ("rows", Arr (List.map row (rows t)));
      ]

  (* ---- ASCII sparklines ---- *)

  let levels = [| '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |]

  let spark ?max:cap values =
    let mx =
      match cap with Some m -> m | None -> List.fold_left max 0 values
    in
    let b = Buffer.create (List.length values) in
    List.iter
      (fun v ->
        if v <= 0 || mx <= 0 then Buffer.add_char b '.'
        else
          let idx = 1 + ((v - 1) * (Array.length levels - 1) / mx) in
          Buffer.add_char b levels.(min idx (Array.length levels - 1)))
      values;
    Buffer.contents b

  (* Bucket rows down to at most [width] columns: deltas are summed per
     bucket, cumulative fields take the bucket's last row. *)
  let bucketed width rows =
    let n = List.length rows in
    if n <= width then
      List.map
        (fun r -> (r, r.d_work, r.d_msgs, r.d_crashes, r.d_restarts, r.d_terminated))
        rows
    else
      let arr = Array.of_list rows in
      List.init width (fun b ->
          let lo = b * n / width and hi = ((b + 1) * n / width) - 1 in
          let hi = max lo hi in
          let dw = ref 0 and dm = ref 0 and dc = ref 0 and dr = ref 0 and dt = ref 0 in
          for i = lo to hi do
            dw := !dw + arr.(i).d_work;
            dm := !dm + arr.(i).d_msgs;
            dc := !dc + arr.(i).d_crashes;
            dr := !dr + arr.(i).d_restarts;
            dt := !dt + arr.(i).d_terminated
          done;
          (arr.(hi), !dw, !dm, !dc, !dr, !dt))

  let pp ?(width = 64) ppf t =
    match rows t with
    | [] -> Format.fprintf ppf "timeline: (no events)@."
    | rs ->
        let buckets = bucketed width rs in
        let first = List.hd rs and last = List.nth rs (List.length rs - 1) in
        let alive =
          spark ~max:t.np (List.map (fun (r, _, _, _, _, _) -> r.alive) buckets)
        in
        let workr = spark (List.map (fun (_, dw, _, _, _, _) -> dw) buckets) in
        let msgsr = spark (List.map (fun (_, _, dm, _, _, _) -> dm) buckets) in
        let cov =
          spark ~max:(max 1 t.nu)
            (List.map (fun (r, _, _, _, _, _) -> r.covered) buckets)
        in
        let marks =
          String.concat ""
            (List.map
               (fun (_, _, _, dc, dr, dt) ->
                 match (dc > 0, dr > 0, dt > 0) with
                 | true, _, true -> "!"
                 | true, _, false -> "x"
                 | false, true, _ -> "r"
                 | false, false, true -> "t"
                 | false, false, false -> ".")
               buckets)
        in
        Format.fprintf ppf
          "timeline: rounds %d..%d, %d active rounds, %d columns (work/msgs \
           scaled to column max)@."
          first.at last.at (List.length rs) (List.length buckets);
        Format.fprintf ppf "  alive   %s  [%d -> %d]@." alive t.np last.alive;
        Format.fprintf ppf "  work/r  %s@." workr;
        Format.fprintf ppf "  msgs/r  %s@." msgsr;
        Format.fprintf ppf "  covered %s  [%d/%d]@." cov last.covered t.nu;
        Format.fprintf ppf
          "  marks   %s  (x crash, r restart, t terminate, ! crash+term)@." marks;
        Format.fprintf ppf
          "  final   work=%d msgs=%d effort=%d covered=%d/%d crashes=%d \
           terminated=%d@."
          last.work last.msgs last.effort last.covered t.nu last.crashes
          last.terminated;
        if last.restarts > 0 || last.persists > 0 then
          Format.fprintf ppf "          restarts=%d persists=%d@." last.restarts
            last.persists;
        if last.corruptions > 0 || last.rejected > 0 then
          Format.fprintf ppf "          corruptions=%d rejected=%d@."
            last.corruptions last.rejected
end
