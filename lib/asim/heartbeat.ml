open Simkit.Types

type time = int

type config = { period : int; timeout : int; backoff : int; max_timeout : int }

let config ?(period = 8) ?(timeout = 48) ?(backoff = 2) ?(max_timeout = 100_000)
    () =
  let err fmt = Printf.ksprintf invalid_arg ("Heartbeat.config: " ^^ fmt) in
  if period < 1 then err "period must be >= 1 (got %d)" period;
  if timeout < period then
    err "timeout (%d) must be >= period (%d), else every peer is suspected \
         immediately" timeout period;
  if backoff < 1 then err "backoff must be >= 1 (got %d)" backoff;
  if max_timeout < timeout then
    err "max_timeout (%d) must be >= timeout (%d)" max_timeout timeout;
  { period; timeout; backoff; max_timeout }

type stats = { suspicions : int; false_suspicions : int; unsuspects : int }

(* One monitor instance, owned by one process. [deadline.(q) = unmonitored]
   means q is not monitored (it is [me], was stopped, or is currently
   suspected): a tick no run reaches, kept unboxed in an int array. *)
let unmonitored = max_int

type t = {
  cfg : config;
  me : pid;
  n : int;
  mutable next_beat : time;
  deadline : time array;
  timeout : int array;
  suspected : bool array;
  stopped : bool array;
  mutable n_suspicions : int;
  mutable n_false : int;
  mutable n_unsuspects : int;
}

let create ?(config = config ()) ~me ~n ~now () =
  if n < 1 then invalid_arg "Heartbeat.create: n must be >= 1";
  if me < 0 || me >= n then invalid_arg "Heartbeat.create: me out of range";
  let t =
    {
      cfg = config;
      me;
      n;
      next_beat = now;
      deadline = Array.make n unmonitored;
      timeout = Array.make n config.timeout;
      suspected = Array.make n false;
      stopped = Array.make n false;
      n_suspicions = 0;
      n_false = 0;
      n_unsuspects = 0;
    }
  in
  for q = 0 to n - 1 do
    if q <> me then t.deadline.(q) <- now + config.timeout
  done;
  t

let suspected t q = t.suspected.(q)

let suspects t =
  List.filter (fun q -> t.suspected.(q)) (List.init t.n Fun.id)

let stop t q =
  t.stopped.(q) <- true;
  t.deadline.(q) <- unmonitored

let next_deadline t =
  let acc = ref t.next_beat in
  for q = 0 to t.n - 1 do
    if t.deadline.(q) < !acc then acc := t.deadline.(q)
  done;
  !acc

let tick t ~now =
  let newly = ref [] in
  for q = t.n - 1 downto 0 do
    if t.deadline.(q) <= now then begin
      t.suspected.(q) <- true;
      t.deadline.(q) <- unmonitored;
      t.n_suspicions <- t.n_suspicions + 1;
      newly := q :: !newly
    end
  done;
  let beat = now >= t.next_beat in
  if beat then t.next_beat <- now + t.cfg.period;
  (!newly, beat)

let alive_evidence t ~src ~now =
  if src = t.me || src < 0 || src >= t.n || t.stopped.(src) then false
  else begin
    let recovered = t.suspected.(src) in
    if recovered then begin
      (* A false suspicion: the peer is slower than our current timeout.
         Back the timeout off so the detector is eventually accurate. *)
      t.suspected.(src) <- false;
      t.n_false <- t.n_false + 1;
      t.n_unsuspects <- t.n_unsuspects + 1;
      t.timeout.(src) <-
        min t.cfg.max_timeout (t.timeout.(src) * t.cfg.backoff)
    end;
    t.deadline.(src) <- now + t.timeout.(src);
    recovered
  end

let rejoin t q ~now =
  if q <> t.me && q >= 0 && q < t.n then begin
    t.stopped.(q) <- false;
    if t.suspected.(q) then begin
      (* An un-suspect that is NOT a false suspicion: the peer really was
         down and has come back. *)
      t.suspected.(q) <- false;
      t.n_unsuspects <- t.n_unsuspects + 1
    end;
    (* A rejoiner is a fresh process: grant it the initial timeout again. *)
    t.timeout.(q) <- t.cfg.timeout;
    t.deadline.(q) <- now + t.cfg.timeout
  end

let stats t =
  {
    suspicions = t.n_suspicions;
    false_suspicions = t.n_false;
    unsuspects = t.n_unsuspects;
  }
