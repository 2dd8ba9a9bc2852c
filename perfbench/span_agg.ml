(* Streaming self-time aggregation of a span stream.

   The kernel emits properly nested Span_begin/Span_end pairs (a round
   encloses its steps and its delivery). A failure-free n=10^6 run emits
   millions of them, so instead of collecting spans (Obs.span_collector
   keeps every one) this sink folds them on the fly: per span name, the
   count, the total duration, the self time (duration minus the part its
   children cover) and a duration histogram. Only the first [keep] spans
   are retained, for the Chrome export. *)

module Sf = Dhw_util.Spanfile
module Hist = Dhw_util.Hist

type stat = {
  mutable count : int;
  mutable total_us : float;
  mutable self_us : float;
  durations_ns : Hist.t;
}

type frame = {
  f_name : string;
  f_pid : int;
  f_inc : int;
  f_round : int;
  f_ts : float;
  mutable child_us : float;
}

type t = {
  stats : (string, stat) Hashtbl.t;
  mutable stack : frame list;
  mutable kept : Sf.span list;  (* newest first *)
  mutable n_kept : int;
  keep : int;
}

let create ?(keep = 0) () =
  { stats = Hashtbl.create 8; stack = []; kept = []; n_kept = 0; keep }

let stat t name =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s
  | None ->
      let s =
        { count = 0; total_us = 0.; self_us = 0.; durations_ns = Hist.create () }
      in
      Hashtbl.add t.stats name s;
      s

let close t f ts_us =
  let dur = ts_us -. f.f_ts in
  let s = stat t f.f_name in
  s.count <- s.count + 1;
  s.total_us <- s.total_us +. dur;
  s.self_us <- s.self_us +. (dur -. f.child_us);
  Hist.record s.durations_ns (int_of_float (dur *. 1000.));
  (match t.stack with p :: _ -> p.child_us <- p.child_us +. dur | [] -> ());
  if t.n_kept < t.keep then begin
    t.kept <-
      {
        Sf.name = f.f_name;
        src = "perf";
        pid = f.f_pid;
        inc = f.f_inc;
        round = f.f_round;
        ts_us = f.f_ts;
        dur_us = dur;
        args = [];
      }
      :: t.kept;
    t.n_kept <- t.n_kept + 1
  end

(* An end closes the innermost open span of its name; spans opened inside
   it and never closed (a raise inside a step) are dropped, as in
   Obs.span_collector. *)
let rec end_span t name ts_us =
  match t.stack with
  | [] -> ()
  | f :: rest ->
      t.stack <- rest;
      if f.f_name = name then close t f ts_us else end_span t name ts_us

let sink t : Simkit.Obs.sink = function
  | Simkit.Obs.Span_begin { name; pid; at; inc; ts_us } ->
      t.stack <-
        { f_name = name; f_pid = pid; f_inc = inc; f_round = at; f_ts = ts_us;
          child_us = 0. }
        :: t.stack
  | Simkit.Obs.Span_end { name; ts_us; _ } ->
      if List.exists (fun f -> f.f_name = name) t.stack then end_span t name ts_us
  | _ -> ()

let find t name = Hashtbl.find_opt t.stats name
let count t name = match find t name with Some s -> s.count | None -> 0
let total_us t name = match find t name with Some s -> s.total_us | None -> 0.
let self_us t name = match find t name with Some s -> s.self_us | None -> 0.

let durations_ns t name =
  match find t name with Some s -> s.durations_ns | None -> Hist.create ()

let kept t = List.rev t.kept
