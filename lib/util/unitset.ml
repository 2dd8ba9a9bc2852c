(* Sorted disjoint half-open intervals, flattened into an int array:
   [|lo0; hi0; lo1; hi1; ...|] with lo_i < hi_i and hi_i < lo_{i+1}
   (strict: adjacent runs are coalesced). The canonical form makes
   structural equality coincide with set equality. *)

type t = int array

let empty : t = [||]
let is_empty s = Array.length s = 0

let invariant_ok s =
  let len = Array.length s in
  len mod 2 = 0
  &&
  let rec go i =
    if i >= len then true
    else if s.(i) >= s.(i + 1) then false
    else if i + 2 < len && s.(i + 1) >= s.(i + 2) then false
    else go (i + 2)
  in
  go 0

let of_range lo hi = if hi <= lo then empty else [| lo; hi |]
let singleton u = [| u; u + 1 |]

let intervals s = Array.length s / 2

let cardinal s =
  let c = ref 0 in
  let i = ref 0 in
  let len = Array.length s in
  while !i < len do
    c := !c + s.(!i + 1) - s.(!i);
    i := !i + 2
  done;
  !c

(* Index of the first run whose hi exceeds [u], i.e. the only run that can
   contain [u]; [intervals s] when none does. Binary search over runs. *)
let run_above s u =
  let lo = ref 0 and hi = ref (Array.length s / 2) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.((2 * mid) + 1) > u then hi := mid else lo := mid + 1
  done;
  !lo

let mem u s =
  let k = run_above s u in
  k < intervals s && s.(2 * k) <= u

let contains_range lo hi s =
  hi <= lo
  ||
  let k = run_above s lo in
  k < intervals s && s.(2 * k) <= lo && hi <= s.((2 * k) + 1)

let run_end u s =
  let k = run_above s u in
  if k < intervals s && s.(2 * k) <= u then s.((2 * k) + 1) else u

let min_elt s = if is_empty s then raise Not_found else s.(0)
let max_elt s = if is_empty s then raise Not_found else s.(Array.length s - 1) - 1
let choose = min_elt

let equal (a : t) (b : t) = a = b

(* --- merge machinery ------------------------------------------------ *)

(* A growable run buffer; [push] coalesces with the previous run when the
   new one touches or overlaps it, keeping the result canonical. Every
   merge below runs in its domain's one scratch buffer (campaigns judge
   runs on [Simkit.Pool] domains) and copies the result out at its exact
   size, so a merge allocates only its result. Merges never nest; the
   scratch keeps the largest capacity its domain ever needed. *)
type buf = { mutable arr : int array; mutable n : int }

let scratch = Domain.DLS.new_key (fun () -> { arr = Array.make 64 0; n = 0 })

let buf_start () =
  let b = Domain.DLS.get scratch in
  b.n <- 0;
  b

let buf_push b lo hi =
  if hi > lo then
    if b.n > 0 && lo <= b.arr.(b.n - 1) then begin
      if hi > b.arr.(b.n - 1) then b.arr.(b.n - 1) <- hi
    end
    else begin
      if b.n + 2 > Array.length b.arr then begin
        let bigger = Array.make (2 * Array.length b.arr) 0 in
        Array.blit b.arr 0 bigger 0 b.n;
        b.arr <- bigger
      end;
      b.arr.(b.n) <- lo;
      b.arr.(b.n + 1) <- hi;
      b.n <- b.n + 2
    end

let buf_contents b = Array.sub b.arr 0 b.n

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else begin
    let out = buf_start () in
    let i = ref 0 and j = ref 0 in
    let la = Array.length a and lb = Array.length b in
    while !i < la || !j < lb do
      if !j >= lb || (!i < la && a.(!i) <= b.(!j)) then begin
        buf_push out a.(!i) a.(!i + 1);
        i := !i + 2
      end
      else begin
        buf_push out b.(!j) b.(!j + 1);
        j := !j + 2
      end
    done;
    buf_contents out
  end

let inter a b =
  if is_empty a || is_empty b then empty
  else begin
    let out = buf_start () in
    let i = ref 0 and j = ref 0 in
    let la = Array.length a and lb = Array.length b in
    while !i < la && !j < lb do
      let lo = max a.(!i) b.(!j) and hi = min a.(!i + 1) b.(!j + 1) in
      buf_push out lo hi;
      (* advance whichever run ends first *)
      if a.(!i + 1) <= b.(!j + 1) then i := !i + 2 else j := !j + 2
    done;
    buf_contents out
  end

let diff a b =
  if is_empty a || is_empty b then a
  else begin
    let out = buf_start () in
    let j = ref 0 in
    let lb = Array.length b in
    let i = ref 0 in
    let la = Array.length a in
    while !i < la do
      let lo = ref a.(!i) and hi = a.(!i + 1) in
      (* subtract every b-run overlapping [lo, hi) *)
      while !j < lb && b.(!j + 1) <= !lo do
        j := !j + 2
      done;
      let k = ref !j in
      while !lo < hi && !k < lb && b.(!k) < hi do
        if b.(!k) > !lo then buf_push out !lo b.(!k);
        if b.(!k + 1) > !lo then lo := b.(!k + 1);
        if b.(!k + 1) <= hi then k := !k + 2 else k := lb (* this b-run outlives a's run *)
      done;
      if !lo < hi then buf_push out !lo hi;
      i := !i + 2
    done;
    buf_contents out
  end

let add u s = union (singleton u) s
let add_range lo hi s = union (of_range lo hi) s
let remove u s = diff s (singleton u)

let subset a b = is_empty (diff a b)

let nth s k =
  if k < 0 then invalid_arg "Unitset.nth";
  let rec go i k =
    if i >= Array.length s then invalid_arg "Unitset.nth"
    else
      let w = s.(i + 1) - s.(i) in
      if k < w then s.(i) + k else go (i + 2) (k - w)
  in
  go 0 k

let slice s ~lo ~hi =
  let total = cardinal s in
  let lo = max 0 lo and hi = min total hi in
  if hi <= lo then empty
  else begin
    let out = buf_start () in
    (* rank of the first element of the current run *)
    let rank = ref 0 in
    let i = ref 0 in
    while !i < Array.length s && !rank < hi do
      let a = s.(!i) and b = s.(!i + 1) in
      let w = b - a in
      let from = max lo !rank and upto = min hi (!rank + w) in
      if from < upto then buf_push out (a + (from - !rank)) (a + (upto - !rank));
      rank := !rank + w;
      i := !i + 2
    done;
    buf_contents out
  end

let iter_ranges f s =
  let i = ref 0 in
  while !i < Array.length s do
    f s.(!i) s.(!i + 1);
    i := !i + 2
  done

let iter f s =
  iter_ranges
    (fun lo hi ->
      for u = lo to hi - 1 do
        f u
      done)
    s

let fold f s acc =
  let acc = ref acc in
  iter (fun u -> acc := f u !acc) s;
  !acc

let elements s = List.rev (fold (fun u acc -> u :: acc) s [])

let to_array s =
  let out = Array.make (cardinal s) 0 in
  let k = ref 0 in
  iter
    (fun u ->
      out.(!k) <- u;
      incr k)
    s;
  out

let of_list us =
  let sorted = List.sort_uniq compare us in
  let out = buf_start () in
  List.iter (fun u -> buf_push out u (u + 1)) sorted;
  buf_contents out

let pp ppf s =
  let first = ref true in
  iter_ranges
    (fun lo hi ->
      if not !first then Format.pp_print_space ppf ();
      first := false;
      if hi = lo + 1 then Format.fprintf ppf "[%d]" lo
      else Format.fprintf ppf "[%d..%d]" lo (hi - 1))
    s;
  if !first then Format.pp_print_string ppf "[]"
