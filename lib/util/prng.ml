(* The splitmix64 state lives unboxed in 8 bytes, read and written with
   the native-endian 64-bit byte primitives; a mutable [int64] field would
   box a fresh state on every draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let g = Bytes.create 8 in
  set_state g 0 seed;
  g

let copy = Bytes.copy

(* splitmix64: state advances by the golden gamma; output is the mixed state. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] advance g =
  let z = Int64.add (get_state g 0) golden_gamma in
  set_state g 0 z;
  z

let next_int64 g = mix (advance g)

let next_nonneg g = Int64.to_int (Int64.shift_right_logical (mix (advance g)) 2)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias: a draw at or above
     [max_usable = max - (max mod bound)] is redrawn. Every such draw
     exceeds [max - bound], so the division that computes [max_usable] is
     spent only on the rare draw above that. *)
  let max = 0x3FFFFFFFFFFFFFFF in
  let v = ref (next_nonneg g) in
  while !v > max - bound && !v >= max - (max mod bound) do
    v := next_nonneg g
  done;
  !v mod bound

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

let bool g = Int64.logand (mix (advance g)) 1L = 1L

let float g bound =
  let v = Int64.to_float (Int64.shift_right_logical (mix (advance g)) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bernoulli g p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float g 1.0 < p

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

(* Applied once: a functor application inside the function below would
   build the whole set module on every call. *)
module S = Set.Make (Int)

let sample_without_replacement g k bound =
  if k < 0 || k > bound then invalid_arg "Prng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected inserts into a small set. *)
  let s = ref S.empty in
  for j = bound - k to bound - 1 do
    let v = int g (j + 1) in
    if S.mem v !s then s := S.add j !s else s := S.add v !s
  done;
  S.elements !s

let split g =
  let seed = next_int64 g in
  create (Int64.logxor seed 0xDEADBEEFCAFEF00DL)

(* Independent stream [i] of a master [seed], without consuming state from
   any shared generator: the pair (seed, i) is keyed by a second odd gamma
   and pushed through one splitmix step, so sibling streams land far apart
   in the state space even for adjacent indices. Used by parallel work
   pools, where per-task generators must not depend on which worker (or in
   what order) tasks are executed. *)
let stream seed i =
  if i < 0 then invalid_arg "Prng.stream: negative index";
  let keyed =
    Int64.logxor seed (Int64.mul (Int64.of_int (i + 1)) 0xD1342543DE82EF95L)
  in
  create (next_int64 (create keyed))
