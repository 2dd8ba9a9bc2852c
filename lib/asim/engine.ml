(* One process of an [Event_sim.aproc], driven by a caller-supplied clock
   instead of the simulator's event queue. The simulator owns time and
   delivery for t processes at once; the engine owns neither — it keeps
   exactly the per-process contract ([Started] first, [Continue] at the
   requested wakeups, [Got]/[Retired_notice] on arrival) and hands every
   outcome's sends/work back to the caller. This is what lets the
   dhw_node fleet run the very same hardened state machines
   ([Link.harden] around [Async_protocol_a]) over real sockets and a
   wall-clock-derived tick counter, byte-for-byte the code the simulator
   fuzzes. *)

open Simkit.Types

type 'm effects = {
  sends : (pid * 'm) list;
  work : int list;
  terminated : bool;
}

type ('s, 'm) t = {
  proc : ('s, 'm) Event_sim.aproc;
  pid : pid;
  mutable state : 's;
  mutable wakeups : int list;  (* pending Continue times, multiset *)
  mutable terminated : bool;
  mutable started : bool;
}

let no_effects = { sends = []; work = []; terminated = false }

let create proc ~pid =
  {
    proc;
    pid;
    state = proc.Event_sim.a_init pid;
    wakeups = [];
    terminated = false;
    started = false;
  }

let state e = e.state
let map_state e f = if not e.terminated then e.state <- f e.state
let terminated e = e.terminated

let next_wakeup e =
  match e.wakeups with
  | [] -> None
  | w :: ws -> Some (List.fold_left min w ws)

let feed e ~now ev =
  if e.terminated then no_effects
  else begin
    let o = e.proc.Event_sim.a_handle e.pid now e.state ev in
    e.state <- o.Event_sim.state;
    (match o.continue_after with
    | Some d when d >= 1 -> e.wakeups <- (now + d) :: e.wakeups
    | Some _ -> invalid_arg "Engine: continue_after must be >= 1"
    | None -> ());
    if o.terminate then begin
      e.terminated <- true;
      e.wakeups <- []
    end;
    { sends = o.sends; work = o.work; terminated = o.terminate }
  end

let merge a b =
  {
    sends = a.sends @ b.sends;
    work = a.work @ b.work;
    terminated = a.terminated || b.terminated;
  }

let start e ~now =
  if e.started then invalid_arg "Engine.start: already started";
  e.started <- true;
  feed e ~now Event_sim.Started

let deliver e ~now ~src payload =
  feed e ~now (Event_sim.Got { src; payload })

let notice e ~now who = feed e ~now (Event_sim.Retired_notice who)

(* Fire every due Continue, one handler call per scheduled wakeup (the
   simulator delivers each [continue_after] as its own event). A handler
   may re-arm; only wakeups <= now fire in this call. *)
let advance e ~now =
  let rec go acc =
    if e.terminated then acc
    else
      match List.find_opt (fun w -> w <= now) e.wakeups with
      | None -> acc
      | Some w ->
          let rec remove_one = function
            | [] -> []
            | x :: rest when x = w -> rest
            | x :: rest -> x :: remove_one rest
          in
          e.wakeups <- remove_one e.wakeups;
          go (merge acc (feed e ~now Event_sim.Continue))
  in
  go no_effects
