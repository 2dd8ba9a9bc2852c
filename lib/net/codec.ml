module Ck = Doall.Ckpt_script

let to_string put v =
  let b = Buffer.create 16 in
  put b v;
  Buffer.contents b

let of_string get s =
  let r = Wire.reader s in
  let v = get r in
  Wire.expect_end r "payload";
  v

let put_ord b = function
  | Ck.Partial c ->
      Wire.put_u8 b 0;
      Wire.put_int b c
  | Ck.Full (c, g) ->
      Wire.put_u8 b 1;
      Wire.put_int b c;
      Wire.put_int b g

let get_ord r =
  match Wire.get_u8 r "ord.tag" with
  | 0 -> Ck.Partial (Wire.get_int r "ord.partial")
  | 1 ->
      let c = Wire.get_int r "ord.full.c" in
      let g = Wire.get_int r "ord.full.g" in
      Ck.Full (c, g)
  | t -> raise (Wire.Decode (Printf.sprintf "ord: unknown tag %d" t))

let put_last b = function
  | Ck.No_msg -> Wire.put_u8 b 0
  | Ck.Last_ord { ord; src } ->
      Wire.put_u8 b 1;
      put_ord b ord;
      Wire.put_int b src

let get_last r =
  match Wire.get_u8 r "last.tag" with
  | 0 -> Ck.No_msg
  | 1 ->
      let ord = get_ord r in
      let src = Wire.get_int r "last.src" in
      Ck.Last_ord { ord; src }
  | t -> raise (Wire.Decode (Printf.sprintf "last: unknown tag %d" t))

let encode_ord = to_string put_ord
let decode_ord = of_string get_ord
let encode_last = to_string put_last
let decode_last = of_string get_last

let put_b b = function
  | Doall.Protocol_b.Ord o ->
      Wire.put_u8 b 0;
      put_ord b o
  | Doall.Protocol_b.Go_ahead -> Wire.put_u8 b 1

let get_b r =
  match Wire.get_u8 r "bmsg.tag" with
  | 0 -> Doall.Protocol_b.Ord (get_ord r)
  | 1 -> Doall.Protocol_b.Go_ahead
  | t -> raise (Wire.Decode (Printf.sprintf "bmsg: unknown tag %d" t))

let encode_b = to_string put_b
let decode_b = of_string get_b

let encode_rmsg enc = function
  | Doall.Recovery.Payload m ->
      let b = Buffer.create 16 in
      Wire.put_u8 b 0;
      Wire.put_string b (enc m);
      Buffer.contents b
  | Doall.Recovery.Announce -> to_string Wire.put_u8 1
  | Doall.Recovery.Transfer l ->
      let b = Buffer.create 16 in
      Wire.put_u8 b 2;
      put_last b l;
      Buffer.contents b

let decode_rmsg dec s =
  let r = Wire.reader s in
  let v =
    match Wire.get_u8 r "rmsg.tag" with
    | 0 -> Doall.Recovery.Payload (dec (Wire.get_string r "rmsg.payload"))
    | 1 -> Doall.Recovery.Announce
    | 2 -> Doall.Recovery.Transfer (get_last r)
    | t -> raise (Wire.Decode (Printf.sprintf "rmsg: unknown tag %d" t))
  in
  Wire.expect_end r "rmsg";
  v

(* --- Async deployment-mode peer datagrams ------------------------------- *)

(* The driver-level envelope around [Asim.Link]'s wire alphabet. Sequence
   numbers on the wire are RAW (as the sender's Link emitted them, i.e.
   restarting at 0 in every incarnation); the receiver namespaces them by
   the sender's incarnation before handing them to its own Link, and an
   ack carries the incarnation it targets so a respawned sender can
   discard acks meant for its dead predecessor. A bye says that incarnation
   [inc] of [src] exited cleanly. *)

type peer_msg =
  | P_data of { src : int; inc : int; seq : int; ord : Ck.ord }
  | P_ack of { src : int; inc : int; target_inc : int; seq : int }
  | P_beat of { src : int; inc : int }
  | P_bye of { src : int; inc : int }

let put_peer b = function
  | P_data { src; inc; seq; ord } ->
      Wire.put_u8 b 1;
      Wire.put_int b src;
      Wire.put_int b inc;
      Wire.put_int b seq;
      put_ord b ord
  | P_ack { src; inc; target_inc; seq } ->
      Wire.put_u8 b 2;
      Wire.put_int b src;
      Wire.put_int b inc;
      Wire.put_int b target_inc;
      Wire.put_int b seq
  | P_beat { src; inc } ->
      Wire.put_u8 b 3;
      Wire.put_int b src;
      Wire.put_int b inc
  | P_bye { src; inc } ->
      Wire.put_u8 b 4;
      Wire.put_int b src;
      Wire.put_int b inc

let get_peer r =
  match Wire.get_u8 r "peer.tag" with
  | 1 ->
      let src = Wire.get_int r "peer.data.src" in
      let inc = Wire.get_int r "peer.data.inc" in
      let seq = Wire.get_int r "peer.data.seq" in
      let ord = get_ord r in
      P_data { src; inc; seq; ord }
  | 2 ->
      let src = Wire.get_int r "peer.ack.src" in
      let inc = Wire.get_int r "peer.ack.inc" in
      let target_inc = Wire.get_int r "peer.ack.target_inc" in
      let seq = Wire.get_int r "peer.ack.seq" in
      P_ack { src; inc; target_inc; seq }
  | 3 ->
      let src = Wire.get_int r "peer.beat.src" in
      let inc = Wire.get_int r "peer.beat.inc" in
      P_beat { src; inc }
  | 4 ->
      let src = Wire.get_int r "peer.bye.src" in
      let inc = Wire.get_int r "peer.bye.inc" in
      P_bye { src; inc }
  | t -> raise (Wire.Decode (Printf.sprintf "peer: unknown tag %d" t))

let encode_peer = to_string put_peer
let decode_peer = of_string get_peer

(* A node's terminal result: a flat self-describing counter bag, so the
   collector and the report writer never chase field order. *)

let encode_counters kvs =
  let b = Buffer.create 64 in
  Wire.put_int b (List.length kvs);
  List.iter
    (fun (k, v) ->
      Wire.put_string b k;
      Wire.put_int b v)
    kvs;
  Buffer.contents b

let decode_counters s =
  let r = Wire.reader s in
  let n = Wire.get_int r "counters.len" in
  if n < 0 || n > 4096 then
    raise (Wire.Decode (Printf.sprintf "counters: bad length %d" n));
  let kvs =
    List.init n (fun i ->
        let k = Wire.get_string r (Printf.sprintf "counters.%d.key" i) in
        let v = Wire.get_int r (Printf.sprintf "counters.%d.val" i) in
        (k, v))
  in
  Wire.expect_end r "counters";
  kvs
