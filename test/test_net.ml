(* The real-process deployment substrate (lib/net): wire-frame codec laws
   (round-trip plus strict rejection of every malformed shape), payload
   codecs, crash-atomic on-disk checkpoints with torn-write fallback, the
   socket transport's deadlines and bounded connect retries, and both real
   fleets: the async mesh fleet's end of run and detection, and the
   lockstep fleet's unplanned node deaths and control-plane trace. *)

module Gen = QCheck2.Gen
module Net = Dhw_net
module F = Dhw_net.Frame
module W = Dhw_net.Wire
module Ck = Doall.Ckpt_script

let frame_t = Alcotest.testable F.pp F.equal

(* ------------------------------------------------------------------ *)
(* Frame codec: round-trip law and rejections *)

let gen_bytes = Gen.(string_size ~gen:char (0 -- 12))
let gen_small = Gen.(0 -- 1000)
let gen_wakeup = Gen.(option (0 -- 500))

let gen_envelope =
  Gen.map3
    (fun src sent_at payload -> { F.src; sent_at; payload })
    gen_small gen_small gen_bytes

let gen_send =
  Gen.map3 (fun dst payload show -> { F.dst; payload; show }) gen_small gen_bytes
    gen_bytes

let gen_frame =
  Gen.oneof
    [
      Gen.map
        (fun ((pid, protocol, n), (t, incarnation, wakeup)) ->
          F.Hello { pid; protocol; n; t; incarnation; wakeup })
        Gen.(
          pair
            (triple gen_small (string_size ~gen:printable (0 -- 8)) gen_small)
            (triple gen_small gen_small gen_wakeup));
      Gen.map (fun round -> F.Welcome { round }) gen_small;
      Gen.map2
        (fun round inbox -> F.Round_start { round; inbox })
        gen_small
        Gen.(list_size (0 -- 6) gen_envelope);
      Gen.map
        (fun ((round, sends, work), (terminate, wakeup, persists)) ->
          F.Step_result { round; sends; work; terminate; wakeup; persists })
        Gen.(
          pair
            (triple gen_small (list_size (0 -- 6) gen_send)
               (list_size (0 -- 6) gen_small))
            (triple bool gen_wakeup gen_small));
      Gen.pure F.Shutdown;
    ]

let pp_frame f = Format.asprintf "%a" F.pp f

let frame_roundtrip =
  Helpers.qcheck_case ~count:300 ~name:"frame: decode (encode f) = Ok f"
    gen_frame (fun f ->
      match F.decode (F.encode f) with
      | Ok f' when F.equal f f' -> true
      | Ok f' ->
          QCheck2.Test.fail_reportf "decoded %s from %s" (pp_frame f') (pp_frame f)
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s (%s)" e (pp_frame f))

let frame_truncation_rejected =
  Helpers.qcheck_case ~count:100
    ~name:"frame: every proper prefix is rejected" gen_frame (fun f ->
      let s = F.encode f in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        match F.decode (String.sub s 0 k) with
        | Error _ -> ()
        | Ok f' ->
            ok := false;
            ignore f'
      done;
      if not !ok then
        QCheck2.Test.fail_reportf "a prefix of %s decoded" (pp_frame f);
      !ok)

let frame_trailing_rejected =
  Helpers.qcheck_case ~count:100 ~name:"frame: trailing garbage is rejected"
    gen_frame (fun f ->
      match F.decode (F.encode f ^ "\x00") with
      | Error _ -> true
      | Ok _ -> QCheck2.Test.fail_reportf "trailing byte accepted (%s)" (pp_frame f))

let expect_error name s =
  match F.decode s with
  | Error _ -> ()
  | Ok f -> Alcotest.failf "%s: accepted %s" name (pp_frame f)

let hello =
  F.Hello { pid = 1; protocol = "a+rec"; n = 12; t = 3; incarnation = 0; wakeup = Some 0 }

(* encode layout: [0..3] length, [4] tag, then (hello only) [5..8] magic,
   [9] version. *)
let mutate s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

let test_rejections () =
  let b = Buffer.create 8 in
  W.put_u32 b (F.max_frame_len + 1);
  expect_error "oversized length prefix" (Buffer.contents b);
  let h = F.encode hello in
  expect_error "wrong hello version" (mutate h 9 '\xee');
  expect_error "bad hello magic" (mutate h 5 'X');
  expect_error "unknown tag" (mutate h 4 '\x7f');
  expect_error "retired probe tag" (mutate h 4 '\x05');
  (match F.decode (mutate h 9 (Char.chr (F.version + 1))) with
  | Error e ->
      let mentions_version =
        let needle = "version" in
        let nl = String.length needle and el = String.length e in
        let rec scan i = i + nl <= el && (String.sub e i nl = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) "version error names the mismatch" true mentions_version
  | Ok _ -> Alcotest.fail "future version accepted");
  (* a frame body shorter than its length prefix *)
  expect_error "short body" (String.sub h 0 (String.length h - 2))

(* ------------------------------------------------------------------ *)
(* Payload codecs *)

let gen_ord =
  Gen.oneof
    [
      Gen.map (fun c -> Ck.Partial c) gen_small;
      Gen.map2 (fun c g -> Ck.Full (c, g)) gen_small gen_small;
    ]

let gen_last =
  Gen.oneof
    [
      Gen.pure Ck.No_msg;
      Gen.map2 (fun ord src -> Ck.Last_ord { ord; src }) gen_ord gen_small;
    ]

let codec_ord_roundtrip =
  Helpers.qcheck_case ~count:200 ~name:"codec: ord round-trips" gen_ord
    (fun o -> Net.Codec.decode_ord (Net.Codec.encode_ord o) = o)

let codec_last_roundtrip =
  Helpers.qcheck_case ~count:200 ~name:"codec: last round-trips" gen_last
    (fun l -> Net.Codec.decode_last (Net.Codec.encode_last l) = l)

let gen_bmsg =
  Gen.oneof
    [
      Gen.map (fun o -> Doall.Protocol_b.Ord o) gen_ord;
      Gen.pure Doall.Protocol_b.Go_ahead;
    ]

let codec_b_roundtrip =
  Helpers.qcheck_case ~count:200 ~name:"codec: protocol-B msg round-trips"
    gen_bmsg (fun m -> Net.Codec.decode_b (Net.Codec.encode_b m) = m)

let gen_rmsg =
  Gen.oneof
    [
      Gen.map (fun o -> Doall.Recovery.Payload o) gen_ord;
      Gen.pure Doall.Recovery.Announce;
      Gen.map (fun l -> Doall.Recovery.Transfer l) gen_last;
    ]

let codec_rmsg_roundtrip =
  Helpers.qcheck_case ~count:200 ~name:"codec: recovery rmsg round-trips"
    gen_rmsg (fun m ->
      Net.Codec.decode_rmsg Net.Codec.decode_ord
        (Net.Codec.encode_rmsg Net.Codec.encode_ord m)
      = m)

let test_codec_rejects () =
  (try
     ignore (Net.Codec.decode_ord "");
     Alcotest.fail "empty ord accepted"
   with W.Decode _ -> ());
  (try
     ignore (Net.Codec.decode_ord (Net.Codec.encode_ord (Ck.Partial 3) ^ "\x00"));
     Alcotest.fail "trailing ord byte accepted"
   with W.Decode _ -> ());
  try
    ignore (Net.Codec.decode_last "\x07");
    Alcotest.fail "unknown last tag accepted"
  with W.Decode _ -> ()

(* ------------------------------------------------------------------ *)
(* Crash-atomic checkpoints *)

let tmpdir () =
  let d = Filename.temp_file "dhwnet" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_tmpdir f =
  let d = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let truncate_file p keep =
  let fd = Unix.openfile p [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd keep;
  Unix.close fd

let flip_byte p i =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  let oc = open_out_bin p in
  output_bytes oc b;
  close_out oc

let test_ckpt_roundtrip () =
  with_tmpdir (fun dir ->
      Alcotest.(check (option string)) "empty dir" None (Net.Ckpt.load ~dir ~pid:0);
      Net.Ckpt.save ~dir ~pid:0 "view-1";
      Alcotest.(check (option string)) "first save" (Some "view-1")
        (Net.Ckpt.load ~dir ~pid:0);
      Net.Ckpt.save ~dir ~pid:0 "view-2";
      Alcotest.(check (option string)) "overwrite" (Some "view-2")
        (Net.Ckpt.load ~dir ~pid:0);
      (* per-pid isolation: pid 1 sees nothing, and pid 0's file refuses to
         masquerade as pid 1's *)
      Alcotest.(check (option string)) "other pid" None (Net.Ckpt.load ~dir ~pid:1))

let test_ckpt_truncated_falls_back () =
  with_tmpdir (fun dir ->
      Net.Ckpt.save ~dir ~pid:3 "rank-1";
      Net.Ckpt.save ~dir ~pid:3 "rank-2";
      (* a torn write of the current generation must recover the previous
         rank, not crash and not return garbage *)
      truncate_file (Net.Ckpt.path ~dir ~pid:3) 7;
      Alcotest.(check (option string)) "truncated current -> previous rank"
        (Some "rank-1") (Net.Ckpt.load ~dir ~pid:3))

let test_ckpt_corrupt_falls_back () =
  with_tmpdir (fun dir ->
      Net.Ckpt.save ~dir ~pid:0 "rank-1";
      Net.Ckpt.save ~dir ~pid:0 "rank-2";
      let p = Net.Ckpt.path ~dir ~pid:0 in
      flip_byte p (String.length "DHWC" + 12);
      Alcotest.(check (option string)) "bit-flipped current -> previous rank"
        (Some "rank-1") (Net.Ckpt.load ~dir ~pid:0);
      (* both generations gone bad: recovery starts from nothing *)
      truncate_file p 3;
      flip_byte (p ^ ".prev") 6;
      Alcotest.(check (option string)) "both bad -> none" None
        (Net.Ckpt.load ~dir ~pid:0))

let test_ckpt_torn_rename_falls_back () =
  with_tmpdir (fun dir ->
      Net.Ckpt.save ~dir ~pid:5 "rank-1";
      Net.Ckpt.save ~dir ~pid:5 "rank-2";
      (* Simulate a crash inside save's torn-rename window on a third
         attempt: the current generation has already been demoted to
         .prev (displacing rank-1) but the fsynced tmp never made it into
         place — the node dies leaving NO current file, only .prev and a
         stray partial tmp. Recovery must surface the .prev generation. *)
      let p = Net.Ckpt.path ~dir ~pid:5 in
      Sys.rename p (p ^ ".prev");
      let oc = open_out_bin (p ^ ".tmp") in
      output_string oc "torn";
      close_out oc;
      Alcotest.(check bool) "current generation gone" false (Sys.file_exists p);
      Alcotest.(check (option string)) "missing current -> .prev generation"
        (Some "rank-2")
        (Net.Ckpt.load ~dir ~pid:5))

let test_ckpt_binary_payload () =
  with_tmpdir (fun dir ->
      let payload =
        Net.Codec.encode_last (Ck.Last_ord { ord = Ck.Full (2, 1); src = 7 })
      in
      Net.Ckpt.save ~dir ~pid:2 payload;
      match Net.Ckpt.load ~dir ~pid:2 with
      | Some raw ->
          Alcotest.(check bool) "decodes back" true
            (Net.Codec.decode_last raw = Ck.Last_ord { ord = Ck.Full (2, 1); src = 7 })
      | None -> Alcotest.fail "binary payload lost")

(* ------------------------------------------------------------------ *)
(* Transport *)

let test_addr_parse () =
  let ok s a =
    match Net.Transport.addr_of_string s with
    | Ok a' ->
        Alcotest.(check string) s (Net.Transport.addr_to_string a)
          (Net.Transport.addr_to_string a')
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "unix:/tmp/x.sock" (Net.Transport.Unix_sock "/tmp/x.sock");
  ok "tcp:127.0.0.1:8080" (Net.Transport.Tcp ("127.0.0.1", 8080));
  ok "tcp:localhost:0" (Net.Transport.Tcp ("localhost", 0));
  List.iter
    (fun s ->
      match Net.Transport.addr_of_string s with
      | Ok _ -> Alcotest.failf "%s accepted" s
      | Error _ -> ())
    [ "bogus"; "unix:"; "tcp:host"; "tcp::80"; "tcp:h:notaport"; "tcp:h:70000" ]

let test_transport_loopback () =
  with_tmpdir (fun dir ->
      let addr = Net.Transport.Unix_sock (Filename.concat dir "s.sock") in
      let stats = Net.Transport.stats () in
      let srv = Net.Transport.listen addr in
      let client = Net.Transport.connect ~stats addr in
      let peer = Net.Transport.accept ~stats srv in
      Net.Transport.send_frame ~stats client (F.Welcome { round = 42 });
      Alcotest.(check frame_t) "server receives" (F.Welcome { round = 42 })
        (Net.Transport.recv_frame ~stats peer);
      Net.Transport.send_frame ~stats peer hello;
      Alcotest.(check frame_t) "client receives" hello
        (Net.Transport.recv_frame ~stats client);
      Alcotest.(check int) "two connects (dial + accept)" 2
        stats.Net.Transport.connects;
      Alcotest.(check int) "two frames sent" 2 stats.Net.Transport.frames_sent;
      Alcotest.(check int) "two frames received" 2
        stats.Net.Transport.frames_received;
      Alcotest.(check bool) "bytes counted" true
        (stats.Net.Transport.bytes_sent > 0
        && stats.Net.Transport.bytes_sent = stats.Net.Transport.bytes_received);
      (* peer closes: the reader sees Closed, not a hang *)
      Net.Transport.close_noerr client;
      (match Net.Transport.recv_frame ~stats peer with
      | exception Net.Transport.Closed _ -> ()
      | f -> Alcotest.failf "read %s after close" (pp_frame f));
      Net.Transport.close_noerr peer;
      Net.Transport.close_noerr srv)

let test_connect_retries_exhaust () =
  with_tmpdir (fun dir ->
      let addr = Net.Transport.Unix_sock (Filename.concat dir "absent.sock") in
      let stats = Net.Transport.stats () in
      match
        Net.Transport.connect ~stats ~attempts:3 ~backoff_s:0.001
          ~max_backoff_s:0.002 addr
      with
      | _ -> Alcotest.fail "connect to nothing succeeded"
      | exception Unix.Unix_error _ ->
          Alcotest.(check int) "attempts-1 retries" 2 stats.Net.Transport.retries;
          Alcotest.(check int) "no connect counted" 0 stats.Net.Transport.connects)

let test_recv_timeout () =
  with_tmpdir (fun dir ->
      let addr = Net.Transport.Unix_sock (Filename.concat dir "s.sock") in
      let stats = Net.Transport.stats () in
      let srv = Net.Transport.listen addr in
      let client = Net.Transport.connect ~stats addr in
      let peer = Net.Transport.accept ~stats srv in
      (match Net.Transport.recv_frame ~stats ~timeout_s:0.05 peer with
      | exception Net.Transport.Timeout _ ->
          Alcotest.(check int) "timeout counted" 1 stats.Net.Transport.timeouts
      | f -> Alcotest.failf "read %s from silence" (pp_frame f));
      Net.Transport.close_noerr client;
      Net.Transport.close_noerr peer;
      Net.Transport.close_noerr srv)

(* ------------------------------------------------------------------ *)
(* Async deployment substrate: peer codec, datagram mesh, seeded chaos *)

let test_peer_codec_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "peer_msg round-trips" true
        (Net.Codec.decode_peer (Net.Codec.encode_peer m) = m))
    [
      Net.Codec.P_data { src = 2; inc = 3; seq = 41; ord = Ck.Full (7, 2) };
      Net.Codec.P_data { src = 0; inc = 0; seq = 0; ord = Ck.Partial 9 };
      Net.Codec.P_ack { src = 1; inc = 2; target_inc = 0; seq = 999_983 };
      Net.Codec.P_beat { src = 2; inc = 5 };
      Net.Codec.P_bye { src = 0; inc = 0 };
      Net.Codec.P_bye { src = 1; inc = 4 };
    ];
  match Net.Codec.decode_peer "garbage" with
  | exception W.Decode _ -> ()
  | _ -> Alcotest.fail "garbage decoded as a peer_msg"

let test_counters_codec_roundtrip () =
  let bag = [ ("work", 600); ("data_sent", 3); ("parks", 0); ("inc", 2) ] in
  Alcotest.(check bool) "counter bag round-trips" true
    (Net.Codec.decode_counters (Net.Codec.encode_counters bag) = bag);
  Alcotest.(check bool) "empty bag round-trips" true
    (Net.Codec.decode_counters (Net.Codec.encode_counters []) = [])

let test_mesh_loopback () =
  with_tmpdir (fun dir ->
      let a = Net.Mesh.create ~dir ~pid:0 in
      let b = Net.Mesh.create ~dir ~pid:1 in
      Alcotest.(check bool) "send reaches bound peer" true
        (Net.Mesh.send a ~dst:1 "hello");
      Alcotest.(check (option string)) "datagram arrives" (Some "hello")
        (Net.Mesh.recv b ~timeout_s:1.0);
      Alcotest.(check (option string)) "silence times out" None
        (Net.Mesh.recv b ~timeout_s:0.01);
      (* an unbound pid is organic loss: counted, returned, never raised *)
      Alcotest.(check bool) "unbound peer unreachable" false
        (Net.Mesh.send a ~dst:7 "x");
      let sa = Net.Mesh.stats_of a in
      Alcotest.(check int) "one undeliverable" 1 sa.Net.Mesh.undeliverable;
      Alcotest.(check int) "one delivered send" 1 sa.Net.Mesh.datagrams_sent;
      (* SIGKILL semantics: a closed peer's path is gone; a respawned
         incarnation rebinds the same path and traffic resumes *)
      Net.Mesh.close b;
      Alcotest.(check bool) "dead peer unreachable" false
        (Net.Mesh.send a ~dst:1 "y");
      let b2 = Net.Mesh.create ~dir ~pid:1 in
      Alcotest.(check bool) "respawn reachable" true
        (Net.Mesh.send a ~dst:1 "z");
      Alcotest.(check (option string)) "respawn receives" (Some "z")
        (Net.Mesh.recv b2 ~timeout_s:1.0);
      Net.Mesh.close a;
      Net.Mesh.close b2)

let test_chaos_content_keyed () =
  let plan =
    { Net.Chaos.none with drop_bp = 3000; dup_bp = 1000; max_delay = 5;
      seed = 42L }
  in
  let judge ?(now = 7) kind =
    (Net.Chaos.judge plan ~src:0 ~dst:1 ~kind ~now ()).Net.Chaos.release_at
  in
  let k = Net.Chaos.Data { seq = 3; attempt = 0 } in
  (* content-keying: the same identity meets the same fate every time *)
  Alcotest.(check (list int)) "verdict is pure" (judge k) (judge k);
  (* delays are offsets from the send tick *)
  List.iter2
    (fun a b -> Alcotest.(check int) "verdict shifts with now" (a + 100) b)
    (judge k)
    (judge ~now:107 k);
  (* a retransmission is a fresh identity — otherwise a dropped packet
     would be condemned forever and loss could never heal *)
  let differs = ref false in
  for seq = 0 to 199 do
    if
      judge (Net.Chaos.Data { seq; attempt = 0 })
      <> judge (Net.Chaos.Data { seq; attempt = 1 })
    then differs := true
  done;
  Alcotest.(check bool) "attempts draw fresh fates" true !differs;
  (* the drop coin lands near its basis points over many identities *)
  let dropped = ref 0 in
  for seq = 0 to 999 do
    if judge (Net.Chaos.Ack { seq; attempt = 0 }) = [] then incr dropped
  done;
  Alcotest.(check bool)
    (Printf.sprintf "drop rate near 3000bp (got %d/1000)" !dropped)
    true
    (!dropped > 200 && !dropped < 400)

(* A bye's copies are told apart by their attempt number alone, so its
   fate must be a pure function of that content, and the copies must not
   share one fate: otherwise a seed that drops one copy drops them all. *)
let test_chaos_bye_attempts () =
  let judge seed attempt =
    let plan =
      { Net.Chaos.none with drop_bp = 3000; max_delay = 5; seed = Int64.of_int seed }
    in
    (Net.Chaos.judge plan ~src:1 ~dst:0 ~kind:(Net.Chaos.Bye { attempt })
       ~now:50 ())
      .Net.Chaos.release_at
  in
  Alcotest.(check (list int)) "verdict is pure" (judge 1 0) (judge 1 0);
  let differs = ref false and all_lost = ref 0 in
  for seed = 0 to 199 do
    if judge seed 0 <> judge seed 1 then differs := true;
    if List.for_all (fun a -> judge seed a = []) [ 0; 1; 2 ] then incr all_lost
  done;
  Alcotest.(check bool) "attempts draw fresh fates" true !differs;
  (* three copies at 30% loss: all lost for ~2.7% of seeds, not ~30% *)
  Alcotest.(check bool)
    (Printf.sprintf "three copies rarely all lost (%d/200)" !all_lost)
    true (!all_lost < 20)

(* The node's sleep to the start of its next deadline tick, as a law:
   never negative, never above the 50 ms cap, and exactly the time left
   to the tick's start whenever that is under the cap. *)
let prop_boundary_sleep =
  let gen =
    Gen.(
      tup4 (0 -- 1_000_000) (1 -- 20) (0 -- 100_000) (float_range (-200.) 200.))
  in
  Helpers.qcheck_case ~count:500 ~name:"node: boundary sleep law" gen
    (fun (epoch, tick_ms, deadline, before_ms) ->
      let epoch_ms = 1.7e12 +. float_of_int epoch in
      let start_ms = epoch_ms +. (float_of_int deadline *. float_of_int tick_ms) in
      let now_ms = start_ms -. before_ms in
      let s =
        Net.Async_node.boundary_sleep_s ~epoch_ms ~tick_ms ~now_ms ~deadline
      in
      let left = (start_ms -. now_ms) /. 1000. in
      if s < 0. || s > 0.05 then
        QCheck2.Test.fail_reportf "sleep %g s outside [0, 0.05]" s
      else if left >= 0. && left < 0.05 && Float.abs (s -. left) > 1e-6 then
        QCheck2.Test.fail_reportf "sleep %g s, but the tick starts in %g s" s
          left
      else true)

let test_boundary_sleep_edges () =
  let sleep ~now_ms ~deadline =
    Net.Async_node.boundary_sleep_s ~epoch_ms:1000. ~tick_ms:5 ~now_ms ~deadline
  in
  Alcotest.(check (float 1e-9)) "nothing scheduled: the cap" 0.05
    (sleep ~now_ms:1000. ~deadline:max_int);
  Alcotest.(check (float 1e-9)) "a passed boundary: no sleep" 0.
    (sleep ~now_ms:1100. ~deadline:3);
  (* woken 3 ms into tick 2, the wait for tick 3 is 2 ms, not a whole tick *)
  Alcotest.(check (float 1e-9)) "to the boundary, not a tick from now" 0.002
    (sleep ~now_ms:1013. ~deadline:3)

let test_chaos_sever_window () =
  let k = Net.Chaos.Beat { index = 4 } in
  let plan = { Net.Chaos.none with severs = [ (0, 1, 10, 20) ] } in
  let cut ~src ~dst now =
    (Net.Chaos.judge plan ~src ~dst ~kind:k ~now ()).Net.Chaos.release_at = []
  in
  Alcotest.(check bool) "inside the window" true (cut ~src:0 ~dst:1 15);
  Alcotest.(check bool) "window is inclusive" true
    (cut ~src:0 ~dst:1 10 && cut ~src:0 ~dst:1 20);
  Alcotest.(check bool) "after the window" false (cut ~src:0 ~dst:1 21);
  (* severs are directed: the reverse link stays up *)
  Alcotest.(check bool) "reverse direction up" false (cut ~src:1 ~dst:0 15)

(* ------------------------------------------------------------------ *)
(* The real fleet's end of run *)

let node_exe () =
  match
    List.find_opt Sys.file_exists
      [ "../bin/dhw_node.exe"; "_build/default/bin/dhw_node.exe" ]
  with
  | Some p -> p
  | None -> Alcotest.fail "dhw_node.exe not found (run under dune)"

(* A run ends within a few ticks of its last unit of work: a node that
   exits cleanly says bye, so no peer waits out a heartbeat timeout on it,
   and a respawn is a rejoin, not a false suspicion. The kill window
   (ticks 3 to 75) outlasts the 60-tick heartbeat timeout, so the
   survivors really suspect the victim before it comes back, and the
   respawn lands well before pid 0 finishes its 100 units. Chaos seed 1
   drops none of the final checkpoints, so the spread of the exits
   measures the end-of-run handshake alone; waiting out a heartbeat
   timeout on a departed peer spreads them over ~115 ticks. *)
let test_fleet_end_of_run () =
  with_tmpdir (fun dir ->
      let module CA = Simkit.Campaign.Async in
      let n = 100 and t = 3 in
      let sched =
        CA.make
          ~meta:
            [ ("protocol", "async-a"); ("n", string_of_int n);
              ("t", string_of_int t) ]
          ~crashes:[ { CA.victim = 1; at = 3 } ]
          ~restarts:[ { CA.victim = 1; at = 75 } ]
          ~drop_bp:1000 ~seed:1L ()
      in
      let cfg =
        Net.Fleet.config ~watchdog_s:60. ~dir ~node_exe:(node_exe ())
          ~spec:(Doall.Spec.make ~n ~t) ~sched ()
      in
      let r = Net.Fleet.run cfg in
      Alcotest.(check bool) "no watchdog" false r.Net.Fleet.watchdog_fired;
      Alcotest.(check (list bool)) "all four oracles pass"
        [ true; true; true; true ]
        Net.Fleet.
          [ r.completed; r.no_lost_unit; r.detector_complete; r.bounded_dup ];
      Alcotest.(check int) "work = n" n r.Net.Fleet.total_work;
      let terms =
        List.filter_map
          (fun (s : Dhw_util.Spanfile.span) ->
            if s.Dhw_util.Spanfile.name = "term" then
              Some s.Dhw_util.Spanfile.round
            else None)
          r.Net.Fleet.spans
      in
      Alcotest.(check int) "one clean exit per pid" t (List.length terms);
      let first = List.fold_left min max_int terms
      and last = List.fold_left max 0 terms in
      Alcotest.(check bool)
        (Printf.sprintf "last exit within 10 ticks of the first (%d..%d)" first
           last)
        true
        (last - first <= 10);
      let false_suspicions =
        List.fold_left
          (fun a nr ->
            a + Net.Fleet.counter nr.Net.Fleet.nr_counters "false_suspicions")
          0 r.Net.Fleet.nodes
      in
      Alcotest.(check int) "no false suspicions" 0 false_suspicions)

(* A kill that lands on a node that has already exited 0 owes no
   suspicion: the node said bye, so its peers stopped monitoring it. Here
   pid 2 exits at ~tick 110 with the rest of the fleet, is "killed" at 130
   and respawned at 380, so the kill window outlasts the 240 ticks after
   which completeness is demanded, and no survivor is left to suspect it.
   The respawn reads an all-done checkpoint and exits at once. *)
let test_fleet_kill_after_clean_exit () =
  with_tmpdir (fun dir ->
      let module CA = Simkit.Campaign.Async in
      let n = 100 and t = 3 in
      let sched =
        CA.make
          ~meta:
            [ ("protocol", "async-a"); ("n", string_of_int n);
              ("t", string_of_int t) ]
          ~crashes:[ { CA.victim = 2; at = 130 } ]
          ~restarts:[ { CA.victim = 2; at = 380 } ]
          ~drop_bp:1000 ~seed:1L ()
      in
      let cfg =
        Net.Fleet.config ~watchdog_s:60. ~dir ~node_exe:(node_exe ())
          ~spec:(Doall.Spec.make ~n ~t) ~sched ()
      in
      let r = Net.Fleet.run cfg in
      Alcotest.(check bool) "detector complete" true
        r.Net.Fleet.detector_complete;
      Alcotest.(check bool) "all oracles pass" true r.Net.Fleet.ok;
      Alcotest.(check int) "work = n" n r.Net.Fleet.total_work)

(* A kill is detected only by suspicions of the incarnation it hit. Pid 1
   is killed at tick 12 and respawned at 48, before the 60-tick heartbeat
   timeout can fire, so that kill goes undetected; the respawn is killed
   again at 150 and suspected ~50 ticks later. That suspicion belongs to
   the second kill alone: the survivors logged the respawn's rejoin first. *)
let test_fleet_detection_latency_per_incarnation () =
  with_tmpdir (fun dir ->
      let module CA = Simkit.Campaign.Async in
      let n = 300 and t = 3 in
      let sched =
        CA.make
          ~meta:
            [ ("protocol", "async-a"); ("n", string_of_int n);
              ("t", string_of_int t) ]
          ~crashes:[ { CA.victim = 1; at = 12 }; { CA.victim = 1; at = 150 } ]
          ~restarts:[ { CA.victim = 1; at = 48 } ]
          ~drop_bp:0 ~seed:1L ()
      in
      let cfg =
        Net.Fleet.config ~watchdog_s:60. ~dir ~node_exe:(node_exe ())
          ~spec:(Doall.Spec.make ~n ~t) ~sched ()
      in
      let r = Net.Fleet.run cfg in
      Alcotest.(check bool) "all oracles pass" true r.Net.Fleet.ok;
      let h = r.Net.Fleet.detect_hist in
      Alcotest.(check int) "one detected kill" 1 (Dhw_util.Hist.count h);
      Alcotest.(check bool)
        (Printf.sprintf "detected within 100 ticks (%d)"
           (Dhw_util.Hist.max_value h))
        true
        (Dhw_util.Hist.max_value h < 100))

(* ------------------------------------------------------------------ *)
(* The lockstep fleet: net-run's orchestrator *)

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let lockstep_config ?fault ?trace_dir ?(max_rounds = 10_000) ~dir ~node_exe
    ~protocol ~n ~t () =
  Net.Orchestrator.config ?fault ?trace_dir ~max_rounds ~log_dir:dir ~node_exe
    ~addr:(Net.Transport.Unix_sock (Filename.concat dir "ctl.sock"))
    ~protocol ~n ~t ~ckpt_dir:(Filename.concat dir "ckpt") ()

(* A node that dies outside the fault plan ends the run as a node failure
   at its next step: the write to its socket fails with EPIPE, which must
   not kill this process with SIGPIPE, and every child is reaped. The
   wrapper execs the real node and SIGKILLs pid 2 0.15 s after its launch;
   in failure-free A at n = 80000, t = 4, pid 2 first steps at round
   40003, about half a second in. *)
let test_lockstep_unplanned_death () =
  with_tmpdir (fun dir ->
      let wrapper = Filename.concat dir "flaky_node.sh" in
      let oc = open_out wrapper in
      Printf.fprintf oc
        "#!/bin/sh\n\
         case \" $* \" in *\" --pid 2 \"*) (sleep 0.15; kill -9 $$) & ;; esac\n\
         exec %s \"$@\"\n"
        (Filename.quote (absolute (node_exe ())));
      close_out oc;
      Unix.chmod wrapper 0o755;
      let res =
        Net.Orchestrator.run
          (lockstep_config ~max_rounds:1_000_000 ~dir ~node_exe:wrapper
             ~protocol:"a" ~n:80_000 ~t:4 ())
      in
      (match res.Net.Orchestrator.stop with
      | Net.Orchestrator.Node_failure _ -> ()
      | s ->
          Alcotest.failf "stop %s, want a node failure"
            (Net.Orchestrator.stop_to_string s));
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | pid, _ -> Alcotest.failf "a child is left behind (waitpid: %d)" pid)

(* The control plane's trace is the kernel's: round, step and deliver
   spans, one ctl step per node step, and a zero-length mark per launch,
   kill and respawn. No per-RPC or liveness-probe span is left. *)
let test_lockstep_trace () =
  with_tmpdir (fun dir ->
      let module S = Simkit.Campaign.Schedule in
      let sched =
        S.make
          [ { S.victim = 0; at = 3; mode = S.Silent };
            { S.victim = 0; at = 8; mode = S.Restart } ]
      in
      let trace_dir = Filename.concat dir "trace" in
      let res =
        Net.Orchestrator.run
          (lockstep_config ~fault:(S.to_fault sched) ~trace_dir ~dir
             ~node_exe:(node_exe ()) ~protocol:"a+rec" ~n:12 ~t:2 ())
      in
      Alcotest.(check string) "completed" "completed"
        (Net.Orchestrator.stop_to_string res.Net.Orchestrator.stop);
      let module Sf = Dhw_util.Spanfile in
      let spans =
        match Sf.read_file (Filename.concat trace_dir "trace.jsonl") with
        | Ok f -> f.Sf.spans
        | Error e -> Alcotest.failf "merged trace: %s" e
      in
      let count src name =
        List.length
          (List.filter (fun s -> s.Sf.src = src && s.Sf.name = name) spans)
      in
      Alcotest.(check bool) "ctl round spans" true (count "ctl" "round" > 0);
      Alcotest.(check bool) "node step spans" true (count "node" "step" > 0);
      Alcotest.(check int) "a ctl step per node step" (count "node" "step")
        (count "ctl" "step");
      List.iter
        (fun (name, k) -> Alcotest.(check int) (name ^ " marks") k (count "ctl" name))
        [ ("spawn", 3); ("kill", 1); ("respawn", 1); ("hb", 0); ("rpc", 0) ])

(* ------------------------------------------------------------------ *)

let suite =
  [
    frame_roundtrip;
    frame_truncation_rejected;
    frame_trailing_rejected;
    Alcotest.test_case "frame: malformed shapes rejected" `Quick test_rejections;
    codec_ord_roundtrip;
    codec_last_roundtrip;
    codec_b_roundtrip;
    codec_rmsg_roundtrip;
    Alcotest.test_case "codec: malformed payloads rejected" `Quick
      test_codec_rejects;
    Alcotest.test_case "ckpt: save/load round-trip" `Quick test_ckpt_roundtrip;
    Alcotest.test_case "ckpt: truncated file falls back to previous rank"
      `Quick test_ckpt_truncated_falls_back;
    Alcotest.test_case "ckpt: corrupt generations degrade gracefully" `Quick
      test_ckpt_corrupt_falls_back;
    Alcotest.test_case "ckpt: torn rename leaves .prev as the live generation"
      `Quick test_ckpt_torn_rename_falls_back;
    Alcotest.test_case "ckpt: binary payload survives" `Quick
      test_ckpt_binary_payload;
    Alcotest.test_case "transport: address syntax" `Quick test_addr_parse;
    Alcotest.test_case "transport: loopback frames + stats" `Quick
      test_transport_loopback;
    Alcotest.test_case "transport: bounded connect retries exhaust" `Quick
      test_connect_retries_exhaust;
    Alcotest.test_case "transport: recv deadline fires" `Quick
      test_recv_timeout;
    Alcotest.test_case "codec: peer_msg round-trips, garbage rejected" `Quick
      test_peer_codec_roundtrip;
    Alcotest.test_case "codec: counter bag round-trips" `Quick
      test_counters_codec_roundtrip;
    Alcotest.test_case "mesh: loopback, organic loss, respawn rebind" `Quick
      test_mesh_loopback;
    Alcotest.test_case "chaos: verdicts are content-keyed and pure" `Quick
      test_chaos_content_keyed;
    Alcotest.test_case "chaos: severs are directed deterministic windows"
      `Quick test_chaos_sever_window;
    Alcotest.test_case "chaos: bye copies draw their own fates" `Quick
      test_chaos_bye_attempts;
    prop_boundary_sleep;
    Alcotest.test_case "node: boundary sleep edges" `Quick
      test_boundary_sleep_edges;
    Alcotest.test_case "fleet: a run ends when its work ends" `Quick
      test_fleet_end_of_run;
    Alcotest.test_case "fleet: a kill after a clean exit owes no suspicion"
      `Quick test_fleet_kill_after_clean_exit;
    Alcotest.test_case "fleet: a kill is detected per incarnation" `Quick
      test_fleet_detection_latency_per_incarnation;
    Alcotest.test_case "lockstep: a node killed outside the plan is a node failure"
      `Quick test_lockstep_unplanned_death;
    Alcotest.test_case "lockstep: the control-plane trace is the kernel's" `Quick
      test_lockstep_trace;
  ]
