open Types

(* Unit coverage is a dense bitset (one bit per unit, 1.25 MB at n=10^7)
   plus a sparse overflow table for the rare units performed more than once
   — the redundant work every protocol here tries to bound. This keeps
   [record_work] allocation-free on the first-performance path (the kernel
   hot loop), and makes [units_covered]/[all_units_done] O(1) instead of an
   O(n) fold per oracle query. *)
type t = {
  np : int;
  nu : int;
  mutable msgs : int;
  mutable wrk : int;
  mutable max_round : round;
  mutable n_crashes : int;
  mutable n_terminated : int;
  mutable n_restarts : int;
  mutable n_persists : int;
  mutable n_corruptions : int;
  mutable n_rejected : int;
  covered_bits : Bytes.t;
  mutable covered_n : int;
  redone : (int, int) Hashtbl.t; (* unit -> multiplicity, only when >= 2 *)
  per_work : int array;
  per_msgs : int array;
  per_persists : int array;
}

let create ~n_processes ~n_units =
  {
    np = n_processes;
    nu = n_units;
    msgs = 0;
    wrk = 0;
    max_round = 0;
    n_crashes = 0;
    n_terminated = 0;
    n_restarts = 0;
    n_persists = 0;
    n_corruptions = 0;
    n_rejected = 0;
    covered_bits = Bytes.make ((max 1 n_units + 7) / 8) '\000';
    covered_n = 0;
    redone = Hashtbl.create 8;
    per_work = Array.make (max 1 n_processes) 0;
    per_msgs = Array.make (max 1 n_processes) 0;
    per_persists = Array.make (max 1 n_processes) 0;
  }

let n_processes t = t.np
let n_units t = t.nu

let record_send t pid =
  t.msgs <- t.msgs + 1;
  t.per_msgs.(pid) <- t.per_msgs.(pid) + 1

let bit_is_set t u = Char.code (Bytes.unsafe_get t.covered_bits (u lsr 3)) land (1 lsl (u land 7)) <> 0

let bit_set t u =
  let i = u lsr 3 in
  Bytes.unsafe_set t.covered_bits i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.covered_bits i) lor (1 lsl (u land 7))))

let cover t unit_id =
  if unit_id >= 0 && unit_id < t.nu then
    if not (bit_is_set t unit_id) then begin
      bit_set t unit_id;
      t.covered_n <- t.covered_n + 1
    end
    else
      let m = match Hashtbl.find_opt t.redone unit_id with Some m -> m | None -> 1 in
      Hashtbl.replace t.redone unit_id (m + 1)

let record_work t pid unit_id =
  t.wrk <- t.wrk + 1;
  t.per_work.(pid) <- t.per_work.(pid) + 1;
  cover t unit_id

(* Whole 64-unit words that are still uncovered are set in one write; any
   other unit takes the per-unit path, which keeps [redone] exact. *)
let record_work_range t pid u0 k =
  if k > 0 then begin
    t.wrk <- t.wrk + k;
    t.per_work.(pid) <- t.per_work.(pid) + k;
    let hi = u0 + k in
    let u = ref u0 in
    while !u < hi do
      let w = !u in
      if w land 63 = 0 && w >= 0 && w + 64 <= min hi t.nu
         && Int64.equal (Bytes.get_int64_le t.covered_bits (w lsr 3)) 0L
      then begin
        Bytes.set_int64_le t.covered_bits (w lsr 3) (-1L);
        t.covered_n <- t.covered_n + 64;
        u := w + 64
      end
      else begin
        cover t w;
        u := w + 1
      end
    done
  end

let record_round t r = if r > t.max_round then t.max_round <- r

(* A crash does not by itself advance the activity high-water mark: a silent
   crash is only *observed* by the kernel at the victim's next scheduling
   point, which may be far later than the actual failure. Rounds are advanced
   by live activity and by explicit [record_round] calls. *)
let record_crash t _pid _r = t.n_crashes <- t.n_crashes + 1

let record_terminate t _pid r =
  t.n_terminated <- t.n_terminated + 1;
  record_round t r

(* A restart is adversary-scheduled activity: the rejoiner is stepped in its
   restart round, so the round high-water mark advances through the usual
   live-activity path; like [record_crash] this only counts. *)
let record_restart t _pid _r = t.n_restarts <- t.n_restarts + 1

let record_persist t pid _r =
  t.n_persists <- t.n_persists + 1;
  t.per_persists.(pid) <- t.per_persists.(pid) + 1

(* Adversary activity (forged or mutated payloads) and the hardening layer's
   response (authenticator/quorum rejections). Neither advances rounds: both
   piggyback on live-activity scheduling. *)
let record_corruption t = t.n_corruptions <- t.n_corruptions + 1
let record_reject t = t.n_rejected <- t.n_rejected + 1

let messages t = t.msgs
let work t = t.wrk
let effort t = t.wrk + t.msgs
let rounds t = t.max_round
let crashes t = t.n_crashes
let terminated t = t.n_terminated
let restarts t = t.n_restarts
let persists t = t.n_persists
let corruptions t = t.n_corruptions
let rejected t = t.n_rejected

let unit_multiplicity t u =
  if u < 0 || u >= t.nu then invalid_arg "Metrics.unit_multiplicity";
  if not (bit_is_set t u) then 0
  else match Hashtbl.find_opt t.redone u with Some m -> m | None -> 1

let units_covered t = t.covered_n

let all_units_done t = t.covered_n = t.nu

let work_by t pid = t.per_work.(pid)
let messages_by t pid = t.per_msgs.(pid)
let persists_by t pid = t.per_persists.(pid)

let pp_summary ppf t =
  Format.fprintf ppf
    "work=%d msgs=%d effort=%d rounds=%d crashes=%d terminated=%d covered=%d/%d"
    t.wrk t.msgs (effort t) t.max_round t.n_crashes t.n_terminated
    (units_covered t) t.nu;
  if t.n_restarts > 0 || t.n_persists > 0 then
    Format.fprintf ppf " restarts=%d persists=%d" t.n_restarts t.n_persists;
  if t.n_corruptions > 0 || t.n_rejected > 0 then
    Format.fprintf ppf " corruptions=%d rejected=%d" t.n_corruptions
      t.n_rejected
