exception Timeout of string
exception Closed of string

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "address %S: expected unix:<path> or tcp:<host>:<port>" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" ->
          if rest = "" then Error "unix address: empty path" else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "tcp address %S: missing port" rest)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port_s = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port_s with
              | Some p when p >= 0 && p < 65536 ->
                  if host = "" then Error "tcp address: empty host" else Ok (Tcp (host, p))
              | _ -> Error (Printf.sprintf "tcp address: bad port %S" port_s)))
      | _ -> Error (Printf.sprintf "address scheme %S: expected unix or tcp" scheme))

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type stats = {
  mutable connects : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

let stats () =
  {
    connects = 0;
    retries = 0;
    timeouts = 0;
    frames_sent = 0;
    frames_received = 0;
    bytes_sent = 0;
    bytes_received = 0;
  }

let sockaddr_of = function
  | Unix_sock p -> Unix.ADDR_UNIX p
  | Tcp (h, p) ->
      let ip =
        try Unix.inet_addr_of_string h
        with Failure _ -> (
          match Unix.getaddrinfo h "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "getaddrinfo", h)))
      in
      Unix.ADDR_INET (ip, p)

let domain_of = function Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

let listen addr =
  (match addr with
  | Unix_sock p when Sys.file_exists p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | _ -> ());
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind fd (sockaddr_of addr);
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let bound_addr addr fd =
  match addr with
  | Unix_sock _ -> addr
  | Tcp (h, _) -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> Tcp (h, port)
      | _ -> addr)

let bump_timeout = function None -> () | Some s -> s.timeouts <- s.timeouts + 1

(* Wait for readability/writability with an absolute deadline; an
   infinite one blocks (select rejects an infinite timeout with EINVAL and
   takes a negative one as "no timeout"). *)
let wait_fd ?stats ~what ~read fd deadline =
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then (
      bump_timeout stats;
      raise (Timeout what));
    let left = if left = Float.infinity then -1. else left in
    let r, w, _ =
      try
        if read then Unix.select [ fd ] [] [] left
        else Unix.select [] [ fd ] [] left
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if r = [] && w = [] then go ()
  in
  go ()

let accept ?(timeout_s = 30.) ?stats fd =
  let deadline = Unix.gettimeofday () +. timeout_s in
  wait_fd ?stats ~what:"accept" ~read:true fd deadline;
  let conn, _ = Unix.accept fd in
  (match stats with None -> () | Some s -> s.connects <- s.connects + 1);
  conn

let connect_once addr timeout_s =
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  try
    Unix.set_nonblock fd;
    (try Unix.connect fd (sockaddr_of addr)
     with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
       let deadline = Unix.gettimeofday () +. timeout_s in
       wait_fd ~what:"connect" ~read:false fd deadline;
       (match Unix.getsockopt_error fd with
       | None -> ()
       | Some err -> raise (Unix.Unix_error (err, "connect", addr_to_string addr))));
    Unix.clear_nonblock fd;
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect ?stats ?prng ?(attempts = 8) ?(backoff_s = 0.05)
    ?(max_backoff_s = 1.0) ?(timeout_s = 10.) addr =
  (* Retry jitter comes from the run seed when the caller threads a
     [Prng.t] through (a [Prng.stream] of the schedule seed, keyed by pid,
     like the worker pool) — the sleep pattern then replays exactly.
     Without one, fall back to a local hash: never the global [Random]
     state. *)
  let draw =
    match prng with
    | Some g -> fun () -> float_of_int (Dhw_util.Prng.int g 65_536) /. 65536.0
    | None ->
        let seed =
          ref (Hashtbl.hash (addr_to_string addr, Unix.getpid ()) land 0xFFFF)
        in
        fun () ->
          (* xorshift-ish local PRNG: no global Random state disturbed. *)
          seed := (!seed * 1103515245) + 12345 land 0x3FFFFFFF;
          float_of_int (!seed land 0xFFFF) /. 65536.0
  in
  let jitter delay = delay *. (0.5 +. draw ()) in
  let rec go i delay =
    match connect_once addr timeout_s with
    | fd ->
        (match stats with None -> () | Some s -> s.connects <- s.connects + 1);
        fd
    | exception e ->
        (match e with Timeout _ -> bump_timeout stats | _ -> ());
        if i >= attempts then raise e
        else (
          (match stats with None -> () | Some s -> s.retries <- s.retries + 1);
          (try ignore (Unix.select [] [] [] (jitter delay)) with Unix.Unix_error _ -> ());
          go (i + 1) (Float.min (delay *. 2.) max_backoff_s))
  in
  go 1 backoff_s

let write_all ?stats ~timeout_s fd data =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    wait_fd ?stats ~what:"send" ~read:false fd deadline;
    match Unix.write_substring fd data !pos (len - !pos) with
    | 0 -> raise (Closed "send: zero-length write")
    | n -> pos := !pos + n
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise (Closed "send: peer gone")
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  done;
  match stats with None -> () | Some s -> s.bytes_sent <- s.bytes_sent + len

let read_exact ?stats ~what ~timeout_s fd len =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    wait_fd ?stats ~what ~read:true fd deadline;
    match Unix.read fd buf !pos (len - !pos) with
    | 0 -> raise (Closed (what ^ ": eof"))
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise (Closed (what ^ ": reset"))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  done;
  (match stats with None -> () | Some s -> s.bytes_received <- s.bytes_received + len);
  Bytes.unsafe_to_string buf

let send_frame ?stats ?(timeout_s = 30.) fd frame =
  let data = Frame.encode frame in
  write_all ?stats ~timeout_s fd data;
  match stats with None -> () | Some s -> s.frames_sent <- s.frames_sent + 1

let recv_frame ?stats ?(timeout_s = 30.) fd =
  let hdr = read_exact ?stats ~what:"recv header" ~timeout_s fd 4 in
  let len =
    let r = Wire.reader hdr in
    Wire.get_u32 r "frame.len"
  in
  if len > Frame.max_frame_len then
    failwith (Printf.sprintf "recv: oversized frame length %d" len);
  let body = read_exact ?stats ~what:"recv body" ~timeout_s fd len in
  match Frame.decode_body body with
  | Ok f ->
      (match stats with None -> () | Some s -> s.frames_received <- s.frames_received + 1);
      f
  | Error e -> failwith ("recv: " ^ e)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()
