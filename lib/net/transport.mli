(** Socket transport for the deployment mode: Unix-domain or TCP, with
    deadlines on every blocking operation, bounded connect retries with
    exponential backoff and jitter, and a stats record that becomes the
    [transport] section of a net-run report.

    All operations are synchronous; the round-lockstep control plane and
    the single-connection node loop need no concurrency. *)

exception Timeout of string
(** A deadline expired (connect, read or write). *)

exception Closed of string
(** The peer closed the connection mid-frame. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["unix:<path>"] or ["tcp:<host>:<port>"]. *)

val addr_to_string : addr -> string

type stats = {
  mutable connects : int;  (** successful connection establishments *)
  mutable retries : int;  (** failed connect attempts that were retried *)
  mutable timeouts : int;  (** deadline expiries (connect, read or write) *)
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

val stats : unit -> stats
(** A fresh all-zero record; one per orchestrator run (shared across every
    node connection) or one per node. *)

val listen : addr -> Unix.file_descr
(** Bind and listen. A [Unix_sock] path is unlinked first if stale;
    [Tcp (host, 0)] binds an ephemeral port — read it back with
    {!bound_addr}. *)

val bound_addr : addr -> Unix.file_descr -> addr
(** The address actually bound (resolves port 0 to the kernel's choice). *)

val accept : ?timeout_s:float -> ?stats:stats -> Unix.file_descr -> Unix.file_descr
(** Accept one connection; {!Timeout} if none arrives in time
    (default 30 s). *)

val connect :
  ?stats:stats ->
  ?prng:Dhw_util.Prng.t ->
  ?attempts:int ->
  ?backoff_s:float ->
  ?max_backoff_s:float ->
  ?timeout_s:float ->
  addr ->
  Unix.file_descr
(** Dial with bounded retries: up to [attempts] (default 8) tries,
    sleeping [backoff_s] (default 0.05 s) doubled per failure and capped
    at [max_backoff_s] (default 1 s), each sleep jittered in
    [0.5×, 1.5×] so restarting fleets do not reconnect in lockstep.
    [timeout_s] (default 10 s) bounds each individual attempt. Raises the
    last failure ({!Timeout} or [Unix.Unix_error]) once attempts are
    exhausted, with every retry counted in [stats].

    With [?prng] the jitter draws come from the given generator — thread a
    [Prng.stream] of the run seed through (keyed by pid, as the worker
    pool does) and the retry sleep pattern is a pure function of the seed,
    closing the one nondeterminism leak in [net-run] replays. Without it
    the jitter falls back to a local hash of [(addr, getpid)]. *)

val send_frame :
  ?stats:stats -> ?timeout_s:float -> Unix.file_descr -> Frame.t -> unit
(** Write one whole frame; {!Timeout} if the peer stops draining
    (default 30 s; [infinity] waits as long as it takes), {!Closed} on
    EPIPE/ECONNRESET. *)

val recv_frame :
  ?stats:stats -> ?timeout_s:float -> Unix.file_descr -> Frame.t
(** Read exactly one frame; {!Timeout} (default 30 s; [infinity] blocks
    with no deadline) or {!Closed} on EOF.
    Raises [Failure] with the decoder's reason on a malformed frame —
    strict, like the codec. *)

val close_noerr : Unix.file_descr -> unit
