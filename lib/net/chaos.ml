(* Seeded chaos for the real-process mesh: drop / duplicate / delay /
   sever, byte-reproducible from a Campaign.Async schedule.

   The decisive trick is that every verdict is CONTENT-KEYED, not
   order-keyed: the fate of a transmission is a pure function of
   (seed, src, dst, kind, key) where the key names the message identity —
   (seq, attempt) for data and acks, the beat index for heartbeats, the
   copy number for byes. A real fleet's event order wobbles with
   scheduling, so consuming one shared coin stream per decision (the
   simulator's approach) would diverge between runs; hashing the identity
   instead makes the same message meet the same fate in every execution
   of the same seed, which is what lets async-net-replay reproduce a
   storm. *)

module C = Simkit.Campaign
module Prng = Dhw_util.Prng

type kind =
  | Data of { seq : int; attempt : int }
      (* attempt distinguishes retransmissions: each gets a fresh fate,
         or a 30% drop rate would kill a given packet forever *)
  | Ack of { seq : int; attempt : int }
  | Beat of { index : int }
  | Bye of { attempt : int }

type plan = {
  drop_bp : int;
  dup_bp : int;
  slow_set : Simkit.Types.pid list;
  slow_factor : int;
  severs : (Simkit.Types.pid * Simkit.Types.pid * int * int) list;
  max_delay : int;  (* base delivery-delay bound, ticks *)
  seed : int64;
}

let none =
  {
    drop_bp = 0;
    dup_bp = 0;
    slow_set = [];
    slow_factor = 1;
    severs = [];
    max_delay = 1;
    seed = 1L;
  }

let of_async (s : C.Async.t) =
  {
    drop_bp = s.C.Async.drop_bp;
    dup_bp = s.C.Async.dup_bp;
    slow_set = s.C.Async.slow_set;
    slow_factor = s.C.Async.slow_factor;
    severs =
      List.map
        (fun v -> C.Async.(v.s_src, v.s_dst, v.s_from, v.s_to))
        s.C.Async.severs;
    max_delay = s.C.Async.max_delay;
    seed = s.C.Async.seed;
  }

type stats = {
  mutable considered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;  (* copies released later than their send tick *)
  mutable severed : int;
}

let stats () =
  { considered = 0; dropped = 0; duplicated = 0; delayed = 0; severed = 0 }

type verdict = { release_at : int list }

let kind_key = function
  | Data { seq; attempt } -> (0, seq, attempt)
  | Ack { seq; attempt } -> (1, seq, attempt)
  | Beat { index } -> (2, index, 0)
  | Bye { attempt } -> (3, attempt, 0)

(* An independent generator per message identity. [Prng.stream] hashes
   (seed, index) without consuming shared state, so verdicts commute —
   the whole point. Hashtbl.hash is stable for immediate tuples across
   runs of the same binary; collisions just make two identities share a
   fate, which harms nothing. *)
let gen_for plan ~src ~dst kind =
  let tag, a, b = kind_key kind in
  Prng.stream plan.seed (Hashtbl.hash (src, dst, tag, a, b) land 0x3FFFFFFF)

let severed_at plan ~src ~dst ~now =
  List.exists
    (fun (s, d, from_, to_) -> s = src && d = dst && from_ <= now && now <= to_)
    plan.severs

let judge plan ?stats:st ~src ~dst ~kind ~now () =
  let bump f = match st with None -> () | Some s -> f s in
  bump (fun s -> s.considered <- s.considered + 1);
  if severed_at plan ~src ~dst ~now then begin
    bump (fun s -> s.severed <- s.severed + 1);
    { release_at = [] }
  end
  else begin
    let g = gen_for plan ~src ~dst kind in
    if plan.drop_bp > 0 && Prng.int g 10_000 < plan.drop_bp then begin
      bump (fun s -> s.dropped <- s.dropped + 1);
      { release_at = [] }
    end
    else begin
      let copies =
        if plan.dup_bp > 0 && Prng.int g 10_000 < plan.dup_bp then begin
          bump (fun s -> s.duplicated <- s.duplicated + 1);
          2
        end
        else 1
      in
      let slow =
        List.mem src plan.slow_set || List.mem dst plan.slow_set
      in
      let bound = plan.max_delay * (if slow then plan.slow_factor else 1) in
      let delay_one () =
        let d = if bound <= 1 then 0 else Prng.int g bound in
        if d > 0 then bump (fun s -> s.delayed <- s.delayed + 1);
        now + d
      in
      { release_at = List.init copies (fun _ -> delay_one ()) }
    end
  end
