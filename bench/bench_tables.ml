(* Experiments E1-E25 (see DESIGN.md §3): one table per theorem/claim of the
   paper, printing measured costs against the stated bounds. *)

module Table = Dhw_util.Table
module Intmath = Dhw_util.Intmath
module Hist = Dhw_util.Hist
module Metrics = Simkit.Metrics
module Bounds = Doall.Bounds

let fmt_ratio v bound =
  if bound = 0 then "-" else Table.fmt_ratio (float_of_int v /. float_of_int bound)

(* Each experiment prints its table and publishes it under a stable id
   (E1..E25, plus -suffixed sub-tables) so `main.exe --json` can serialize
   them to BENCH_results.json and `main.exe gate` can compare them with it. *)
let collected : (string * Table.t) list ref = ref []

(* Off while the bench gate regenerates: it prints only its verdict. *)
let echo = ref true

let publish id table =
  if !echo then begin
    Printf.printf "\n== %s ==\n" id;
    Table.print table
  end;
  collected := (id, table) :: !collected

let reset () = collected := []
let tables () = List.rev !collected

let run ?fault spec proto = Doall.Runner.run ?fault spec proto

let m_work r = Metrics.work (Doall.Runner.(r.metrics))
let m_msgs r = Metrics.messages (Doall.Runner.(r.metrics))
let m_rounds r = Metrics.rounds (Doall.Runner.(r.metrics))

let verdict r = if Doall.Runner.correct r then "ok" else "FAIL"

(* ------------------------------------------------------------------ *)
(* E1 / E2: Theorems 2.3 and 2.8 — Protocols A and B on perfect-square
   instances under three adversaries. *)

let adversaries spec =
  let t = Doall.Spec.processes spec in
  let n = Doall.Spec.n spec in
  [
    ("none", fun () -> Simkit.Fault.none);
    ( "kill active @1 unit",
      fun () ->
        Simkit.Fault.crash_active_after_work ~units_between_crashes:1
          ~max_crashes:(t - 1) );
    ( "kill active @chunk",
      fun () ->
        Simkit.Fault.crash_active_after_work
          ~units_between_crashes:(max 1 (n * Intmath.isqrt t / t))
          ~max_crashes:(t - 1) );
    ( "staggered all-but-one",
      fun () ->
        Simkit.Fault.crash_silently_at
          (List.init (t - 1) (fun i -> (i, 50 * i))) );
  ]

let e_thm_ab ~id ~title proto work_bound msg_bound round_bound =
  let table =
    Table.create ~title
      [ ("t", Table.Right); ("n", Right); ("adversary", Left); ("f", Right);
        ("work", Right); ("W-bound", Right); ("w/W", Right);
        ("msgs", Right); ("M-bound", Right); ("m/M", Right);
        ("rounds", Right); ("R-bound", Right); ("ok", Left) ]
  in
  List.iter
    (fun t ->
      let n = 16 * t in
      let spec = Doall.Spec.make ~n ~t in
      let grid = Doall.Grid.make spec in
      List.iter
        (fun (aname, mk_fault) ->
          let r = run ~fault:(mk_fault ()) spec proto in
          Table.add_row table
            [
              string_of_int t; Table.fmt_int n; aname;
              string_of_int (Doall.Runner.crashed r);
              Table.fmt_int (m_work r); Table.fmt_int (work_bound grid);
              fmt_ratio (m_work r) (work_bound grid);
              Table.fmt_int (m_msgs r); Table.fmt_int (msg_bound grid);
              fmt_ratio (m_msgs r) (msg_bound grid);
              Table.fmt_int (m_rounds r); Table.fmt_int (round_bound grid);
              verdict r;
            ])
        (adversaries spec);
      Table.add_rule table)
    [ 16; 25; 36; 64; 100 ];
  publish id table

let e1 () =
  e_thm_ab ~id:"E1"
    ~title:
      "Theorem 2.3 (Protocol A): work <= 3n, msgs <= 9t*sqrt(t), rounds <= nt+3t^2"
    Doall.Protocol_a.protocol Bounds.a_work Bounds.a_msgs Bounds.a_rounds

let e2 () =
  e_thm_ab ~id:"E2"
    ~title:
      "Theorem 2.8 (Protocol B): work <= 3n, msgs <= 10t*sqrt(t), rounds <= 3n+8t"
    Doall.Protocol_b.protocol Bounds.b_work Bounds.b_msgs Bounds.b_rounds

(* ------------------------------------------------------------------ *)
(* E3: Theorem 3.8 — Protocol C. Small instances (63-bit deadlines). *)

let e3 () =
  let table =
    Table.create
      ~title:
        "Theorem 3.8 (Protocol C): work <= n+2t, msgs <= n+8t log t; time exponential"
      [ ("t", Table.Right); ("n", Right); ("adversary", Left); ("f", Right);
        ("work", Right); ("n+2t", Right); ("msgs", Right); ("M-bound", Right);
        ("rounds (measured)", Right); ("R-bound", Right); ("ok", Left) ]
  in
  List.iter
    (fun (t, n) ->
      let spec = Doall.Spec.make ~n ~t in
      List.iter
        (fun (aname, fault) ->
          let r = run ~fault spec Doall.Protocol_c.protocol in
          Table.add_row table
            [
              string_of_int t; string_of_int n; aname;
              string_of_int (Doall.Runner.crashed r);
              Table.fmt_int (m_work r); Table.fmt_int (Bounds.c_work spec);
              Table.fmt_int (m_msgs r); Table.fmt_int (Bounds.c_msgs spec);
              Table.fmt_int (m_rounds r);
              Printf.sprintf "%.2e" (Bounds.c_rounds spec ~period:1);
              verdict r;
            ])
        [
          ("none", Simkit.Fault.none);
          ( "kill active @2 units",
            Simkit.Fault.crash_active_after_work ~units_between_crashes:2
              ~max_crashes:(t - 1) );
          ( "staggered all-but-one",
            Simkit.Fault.crash_silently_at
              (List.init (t - 1) (fun i -> (i, 1000 * i))) );
        ];
      Table.add_rule table)
    [ (4, 16); (8, 24); (16, 24); (32, 10) ];
  publish "E3" table

(* ------------------------------------------------------------------ *)
(* E4: Corollary 3.9 — chunked reporting makes messages independent of n. *)

let e4 () =
  let table =
    Table.create
      ~title:
        "Corollary 3.9: C reports every unit (msgs ~ n + 8t log t), chunked C every\n\
         n/t units (msgs ~ O(t log t), independent of n). t = 8, no faults."
      [ ("n", Table.Right); ("C msgs", Right); ("C-chunked msgs", Right);
        ("bound O(t log t)", Right); ("C work", Right); ("chunked work", Right) ]
  in
  List.iter
    (fun n ->
      let spec = Doall.Spec.make ~n ~t:8 in
      let rc = run spec Doall.Protocol_c.protocol in
      let rk = run spec Doall.Protocol_c.protocol_chunked in
      Table.add_row table
        [
          string_of_int n; Table.fmt_int (m_msgs rc); Table.fmt_int (m_msgs rk);
          Table.fmt_int (Bounds.c_chunked_msgs spec);
          Table.fmt_int (m_work rc); Table.fmt_int (m_work rk);
        ])
    [ 8; 16; 24; 32 ];
  publish "E4" table

(* ------------------------------------------------------------------ *)
(* E5: Theorem 4.1 — Protocol D. *)

let e5 () =
  let t = 16 in
  let n = 40 * t in
  let spec = Doall.Spec.make ~n ~t in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Theorem 4.1 (Protocol D), n=%d t=%d: failure-free n/t+2 rounds & 2t^2 msgs;\n\
            with f failures <= 2n work, (4f+2)t^2 msgs, (f+1)n/t+4f+2 rounds" n t)
      [ ("schedule", Table.Left); ("f", Right); ("work", Right); ("2n", Right);
        ("msgs", Right); ("(4f+2)t^2", Right); ("rounds", Right);
        ("R-bound", Right); ("ok", Left) ]
  in
  let row name fault ~reverted =
    let r = run ~fault spec Doall.Protocol_d.protocol in
    let f = Doall.Runner.crashed r in
    let wb = if reverted then Bounds.d_work_revert spec else Bounds.d_work spec in
    let mb = if reverted then Bounds.d_msgs_revert spec ~f else Bounds.d_msgs spec ~f in
    let rb = if reverted then Bounds.d_rounds_revert spec ~f else Bounds.d_rounds spec ~f in
    Table.add_row table
      [
        name; string_of_int f; Table.fmt_int (m_work r); Table.fmt_int wb;
        Table.fmt_int (m_msgs r); Table.fmt_int mb; Table.fmt_int (m_rounds r);
        Table.fmt_int rb; verdict r;
      ]
  in
  row "failure-free" Simkit.Fault.none ~reverted:false;
  List.iter
    (fun f ->
      row
        (Printf.sprintf "%d staggered crashes" f)
        (Simkit.Fault.crash_silently_at
           (List.init f (fun i -> (i, 3 + (7 * i)))))
        ~reverted:false)
    [ 1; 2; 4; 7 ];
  row "9/16 die in phase 1 (revert to A)"
    (Simkit.Fault.crash_silently_at (List.init 9 (fun i -> (i, 2))))
    ~reverted:true;
  row "15/16 die (revert, lone survivor)"
    (Simkit.Fault.crash_silently_at (List.init 15 (fun i -> (i, 2))))
    ~reverted:true;
  publish "E5" table;
  (* the end-of-Section-4 coordinator variant: failure-free messages drop
     from 2t(t-1) to 2(t-1) per phase *)
  let coord_table =
    Table.create
      ~title:
        "End of Section 4: the central-coordinator variant cuts failure-free\n\
         agreement to 2(t-1) messages (coordinator crashes abandon the\n\
         optimization and fall back to an embedded Protocol A)."
      [ ("schedule", Table.Left); ("work", Right); ("msgs", Right);
        ("rounds", Right); ("ok", Left) ]
  in
  let coord_row name fault =
    let r = run ~fault spec Doall.Protocol_d_coord.protocol in
    Table.add_row coord_table
      [ name; Table.fmt_int (m_work r); Table.fmt_int (m_msgs r);
        Table.fmt_int (m_rounds r); verdict r ]
  in
  coord_row "failure-free" Simkit.Fault.none;
  coord_row "2 worker crashes" (Simkit.Fault.crash_silently_at [ (3, 5); (9, 30) ]);
  coord_row "coordinator dies (fallback)" (Simkit.Fault.crash_silently_at [ (0, 7) ]);
  publish "E5-coord" coord_table

(* ------------------------------------------------------------------ *)
(* E6: Section 5 — Byzantine agreement message complexity. *)

let e6 () =
  let table =
    Table.create
      ~title:
        "Section 5: crash-model Byzantine agreement via work protocols.\n\
         Lines: Bracha (nonconstructive) n + t*sqrt(t); Galil-Mayer-Yung O(n) (~4n)."
      [ ("n", Table.Right); ("t", Right); ("via A", Right); ("via B", Right);
        ("via C-chunked", Right); ("Bracha", Right); ("GMY", Right) ]
  in
  List.iter
    (fun (n, t_bound) ->
      let msgs proto =
        let o = Agreement.Crash_ba.run ~n ~t_bound ~value:1 proto in
        assert (o.agreement && o.validity);
        o.messages
      in
      let c_msgs =
        (* C's deadline arithmetic caps the instance size *)
        if n + t_bound + 1 <= 42 then
          string_of_int (msgs Agreement.Crash_ba.C_chunked)
        else "(n+t too large)"
      in
      Table.add_row table
        [
          Table.fmt_int n; string_of_int t_bound;
          Table.fmt_int (msgs Agreement.Crash_ba.A);
          Table.fmt_int (msgs Agreement.Crash_ba.B);
          c_msgs;
          Table.fmt_int (Agreement.Crash_ba.bracha_msgs ~n ~t:t_bound);
          Table.fmt_int (Agreement.Crash_ba.gmy_msgs ~n);
        ])
    [ (16, 7); (32, 9); (64, 15); (128, 24); (256, 35); (512, 49) ];
  publish "E6" table

(* ------------------------------------------------------------------ *)
(* E7: the Section 1 effort comparison across all protocols. *)

let e7 () =
  let print_sub ~id title specs protos fault_of =
    let table =
      Table.create ~title
        [ ("protocol", Table.Left); ("n", Right); ("t", Right); ("f", Right);
          ("work", Right); ("msgs", Right); ("effort", Right); ("rounds", Right);
          ("ok", Left) ]
    in
    List.iter
      (fun (n, t) ->
        let spec = Doall.Spec.make ~n ~t in
        List.iter
          (fun proto ->
            let r = run ~fault:(fault_of n t) spec proto in
            Table.add_row table
              [
                r.Doall.Runner.protocol; Table.fmt_int n; string_of_int t;
                string_of_int (Doall.Runner.crashed r);
                Table.fmt_int (m_work r); Table.fmt_int (m_msgs r);
                Table.fmt_int (Metrics.effort r.metrics);
                Table.fmt_int (m_rounds r); verdict r;
              ])
          protos;
        Table.add_rule table)
      specs;
    publish id table
  in
  print_sub ~id:"E7-ff"
    "Section 1 effort comparison, failure-free (large instances; C excluded: deadlines)"
    [ (400, 16); (1600, 64) ]
    [
      Doall.Baseline_trivial.protocol;
      Doall.Baseline_checkpoint.protocol ~period:1;
      Doall.Protocol_a.protocol;
      Doall.Protocol_b.protocol;
      Doall.Protocol_d.protocol;
    ]
    (fun _ _ -> Simkit.Fault.none);
  print_sub ~id:"E7-storm"
    "Same, under a takeover storm (kill active every ~n/t units)"
    [ (400, 16); (1600, 64) ]
    [
      Doall.Baseline_trivial.protocol;
      Doall.Baseline_checkpoint.protocol ~period:1;
      Doall.Protocol_a.protocol;
      Doall.Protocol_b.protocol;
      Doall.Protocol_d.protocol;
    ]
    (fun n t ->
      Simkit.Fault.crash_active_after_work ~units_between_crashes:(n / t)
        ~max_crashes:(t - 1));
  print_sub ~id:"E7-small"
    "Small instance including Protocol C variants (staggered crashes)"
    [ (20, 16) ]
    [
      Doall.Baseline_trivial.protocol;
      Doall.Baseline_checkpoint.protocol ~period:1;
      Doall.Protocol_a.protocol;
      Doall.Protocol_b.protocol;
      Doall.Protocol_c.protocol;
      Doall.Protocol_c.protocol_chunked;
      Doall.Protocol_d.protocol;
    ]
    (fun _ t ->
      Simkit.Fault.crash_silently_at (List.init (t - 1) (fun i -> (i, 1000 * i))))

(* ------------------------------------------------------------------ *)
(* E8: the Section 3 ablation — naive knowledge spreading vs Protocol C. *)

let e8 () =
  let table =
    Table.create
      ~title:
        "Section 3 ablation, the paper's nested-crash scenario (n = t-1, processes\n\
         t/2+1..t-1 dead from round 1): the naive spreader re-informs the dead and\n\
         redoes Theta(t^2) units across the takeover cascade; Protocol C's\n\
         fault-detection keeps redo around 2t."
      [ ("t", Table.Right); ("n", Right); ("naive work", Right);
        ("naive msgs", Right); ("C work", Right); ("C msgs", Right);
        ("naive redo", Right); ("t^2", Right); ("C redo", Right); ("2t", Right) ]
  in
  List.iter
    (fun t ->
      let n = t - 1 in
      let spec = Doall.Spec.make ~n ~t in
      (* Process 0 informs process u of unit u; units above t/2 are reported
         only to the dead, so each successive survivor must rediscover them. *)
      let schedule () =
        Simkit.Fault.crash_silently_at
          (List.init ((t / 2) - 1) (fun i -> ((t / 2) + 1 + i, 1)))
      in
      let rn = run ~fault:(schedule ()) spec Doall.Protocol_c_naive.protocol in
      let rc = run ~fault:(schedule ()) spec Doall.Protocol_c.protocol in
      Table.add_row table
        [
          string_of_int t; string_of_int n;
          Table.fmt_int (m_work rn); Table.fmt_int (m_msgs rn);
          Table.fmt_int (m_work rc); Table.fmt_int (m_msgs rc);
          Table.fmt_int (m_work rn - n); Table.fmt_int (t * t);
          Table.fmt_int (m_work rc - n); Table.fmt_int (2 * t);
        ])
    (* n + t <= ~40: the deadline arithmetic caps instance sizes *)
    [ 4; 8; 12; 16; 20 ];
  publish "E8" table

(* ------------------------------------------------------------------ *)
(* E9: the asynchronous Protocol A (Section 2.1). *)

let e9 () =
  let spec = Doall.Spec.make ~n:160 ~t:16 in
  let grid = Doall.Grid.make spec in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Section 2.1: asynchronous Protocol A with a failure detector; n=160 t=16.\n\
            Work stays within Theorem 2.3's budget (%d) whatever the timing adversary."
           (Bounds.a_work grid))
      [ ("max delay", Table.Right); ("max FD lag", Right); ("crashes", Right);
        ("work", Right); ("msgs", Right); ("ticks", Right); ("done", Left) ]
  in
  List.iter
    (fun (delay, lag, crashes) ->
      let crash_at = List.init crashes (fun i -> (i, 25 * (i + 1))) in
      let r =
        Asim.Async_protocol_a.run ~crash_at ~max_delay:delay ~max_lag:lag
          ~seed:11L spec
      in
      Table.add_row table
        [
          string_of_int delay; string_of_int lag; string_of_int crashes;
          Table.fmt_int (Metrics.work r.metrics);
          Table.fmt_int (Metrics.messages r.metrics);
          Table.fmt_int (Metrics.rounds r.metrics);
          (if Asim.Event_sim.completed r && Metrics.all_units_done r.metrics
           then "ok"
           else "FAIL");
        ])
    [
      (1, 1, 0); (5, 10, 0); (5, 10, 8); (20, 60, 8); (20, 600, 15); (50, 50, 15);
    ];
  publish "E9" table

(* ------------------------------------------------------------------ *)
(* E10: checkpoint-frequency ablation (the Section 2 motivation). *)

let e10 () =
  let n = 240 and t = 16 in
  let spec = Doall.Spec.make ~n ~t in
  let adversary () =
    (* crashes land at arbitrary positions inside checkpoint intervals, so
       the expected loss per crash grows with the period *)
    Simkit.Fault.crash_active_after_random_work ~seed:31L ~min_units:1
      ~max_units:60 ~max_crashes:(t - 1)
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Section 2 motivation: single-level checkpointing every k units, n=%d t=%d,\n\
            active killed after a random 1..60 further units. Small k wastes messages,\n\
            large k wastes work; Protocol A's two-level scheme needs no tuning." n t)
      [ ("k", Table.Right); ("work", Right); ("msgs", Right); ("effort", Right);
        ("ok", Left) ]
  in
  List.iter
    (fun k ->
      let r = run ~fault:(adversary ()) spec (Doall.Baseline_checkpoint.protocol ~period:k) in
      Table.add_row table
        [
          string_of_int k; Table.fmt_int (m_work r); Table.fmt_int (m_msgs r);
          Table.fmt_int (Metrics.effort r.metrics); verdict r;
        ])
    [ 1; 2; 5; 10; 15; 30; 60; 120; 240 ];
  let ra = run ~fault:(adversary ()) spec Doall.Protocol_a.protocol in
  Table.add_rule table;
  Table.add_row table
    [
      "A (2-level)"; Table.fmt_int (m_work ra); Table.fmt_int (m_msgs ra);
      Table.fmt_int (Metrics.effort ra.Doall.Runner.metrics); verdict ra;
    ];
  publish "E10" table

(* ------------------------------------------------------------------ *)
(* E11: message sizes (end of Section 1.1) — count vs width trade-offs. *)

let e11 () =
  let table =
    Table.create
      ~title:
        "Section 1.1 (end): message sizes in bits. A/B ship O(log n + log t) indices;\n\
         C ships whole views, Theta(t log t + t(n+t)) bits, buying its low count;\n\
         BA via A/B needs O(log n) + |value| per message vs GMY's Omega(n + log^2|V|)."
      [ ("n", Table.Right); ("t", Right); ("A/B ckpt", Right); ("C view", Right);
        ("D view", Right); ("BA via A (16-bit V)", Right); ("GMY (16-bit V)", Right) ]
  in
  List.iter
    (fun (n, t) ->
      let spec = Doall.Spec.make ~n ~t in
      let grid = Doall.Grid.make spec in
      Table.add_row table
        [
          Table.fmt_int n; string_of_int t;
          Table.fmt_int (Doall.Msg_size.a_msg_bits grid);
          Table.fmt_int (Doall.Msg_size.c_msg_bits spec ~round_bits:(n + t));
          Table.fmt_int (Doall.Msg_size.d_msg_bits spec);
          Table.fmt_int (Doall.Msg_size.ba_msg_bits grid ~value_bits:16);
          Table.fmt_int (Doall.Msg_size.gmy_msg_bits ~n ~value_bits:16);
        ])
    [ (64, 16); (256, 16); (1024, 64); (4096, 256) ];
  publish "E11" table

(* ------------------------------------------------------------------ *)
(* E12: the √t group-size choice of Section 2, validated by sweeping s. *)

let e12 () =
  let n = 1024 and t = 64 in
  let spec = Doall.Spec.make ~n ~t in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Section 2's group-size argument, n=%d t=%d: partial checkpoints cost ~t*s\n\
            messages, full checkpoints ~2t^2/s; s = sqrt(t) = 8 balances them. Active\n\
            process killed after every chunk of work." n t)
      [ ("group size s", Table.Right); ("msgs (ff)", Right);
        ("msgs (chunk killer)", Right); ("work (chunk killer)", Right);
        ("ok", Left) ]
  in
  List.iter
    (fun s ->
      let proto = Doall.Protocol_a.protocol_with_group_size s in
      let ff = run spec proto in
      let grid = Doall.Grid.make_with_group_size spec s in
      let chunk = max 1 (Doall.Grid.subchunk_size_max grid * s) in
      let fault =
        Simkit.Fault.crash_active_after_work ~units_between_crashes:chunk
          ~max_crashes:(t - 1)
      in
      let adv = run ~fault spec proto in
      Table.add_row table
        [
          string_of_int s; Table.fmt_int (m_msgs ff); Table.fmt_int (m_msgs adv);
          Table.fmt_int (m_work adv);
          (if Doall.Runner.correct ff && Doall.Runner.correct adv then "ok"
           else "FAIL");
        ])
    [ 1; 2; 4; 8; 16; 32; 64 ];
  publish "E12" table

(* ------------------------------------------------------------------ *)
(* E13: Section 1.1 — message passing vs shared memory, effort vs APS. *)

let aps_of_report (r : Doall.Runner.report) =
  let final = Metrics.rounds r.metrics in
  Array.fold_left
    (fun acc st ->
      acc
      +
      match st with
      | Simkit.Types.Terminated x | Simkit.Types.Crashed x -> x + 1
      | Simkit.Types.Running -> final + 1)
    0 r.statuses

let e13 () =
  let n = 200 and t = 16 in
  let spec = Doall.Spec.make ~n ~t in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Section 1.1: message passing vs shared memory, n=%d t=%d, three crashes.\n\
            Effort = work + (messages | reads+writes); APS = the Kanellakis-Shvartsman\n\
            available-processor-steps measure, which also bills idle-but-alive processes." n t)
      [ ("model", Table.Left); ("algorithm", Left); ("work", Right);
        ("comms", Right); ("effort", Right); ("rounds", Right); ("APS", Right);
        ("ok", Left) ]
  in
  let crashes = [ (0, 9); (1, 40); (5, 77) ] in
  List.iter
    (fun proto ->
      let r = run ~fault:(Simkit.Fault.crash_silently_at crashes) spec proto in
      Table.add_row table
        [
          "msg-passing"; r.Doall.Runner.protocol; Table.fmt_int (m_work r);
          Table.fmt_int (m_msgs r);
          Table.fmt_int (Metrics.effort r.metrics);
          Table.fmt_int (m_rounds r); Table.fmt_int (aps_of_report r);
          verdict r;
        ])
    [ Doall.Protocol_a.protocol; Doall.Protocol_b.protocol; Doall.Protocol_d.protocol ];
  List.iter
    (fun (name, algo) ->
      let (o : Shmem.Writeall.outcome) = algo ~crash_at:crashes ~n ~t () in
      Table.add_row table
        [
          "shared-mem"; name;
          Table.fmt_int (Metrics.work o.result.metrics);
          Table.fmt_int (o.result.reads + o.result.writes);
          Table.fmt_int o.effort;
          Table.fmt_int (Metrics.rounds o.result.metrics);
          Table.fmt_int o.result.aps;
          (if Shmem.Writeall.work_complete o then "ok" else "FAIL");
        ])
    [
      ( "checkpointed (seq)",
        fun ~crash_at ~n ~t () -> Shmem.Writeall.checkpointed ~crash_at ~n ~t () );
      ( "parallel scan",
        fun ~crash_at ~n ~t () -> Shmem.Writeall.parallel_scan ~crash_at ~n ~t () );
    ];
  publish "E13" table

(* ------------------------------------------------------------------ *)
(* E14: the Section 1 bootstrap — cost at most doubles when the pool is not
   common knowledge — and the online-arrival variant's overhead. *)

let e14 () =
  let table =
    Table.create
      ~title:
        "Section 1 extensions. Top: the common-knowledge bootstrap (BA on the pool,\n\
         then the work) costs at most 2x the direct run for n = Omega(t).\n\
         Bottom: Protocol D with the same work arriving online in four waves."
      [ ("scenario", Table.Left); ("n", Right); ("t", Right); ("work", Right);
        ("msgs", Right); ("effort", Right); ("rounds", Right); ("ok", Left) ]
  in
  List.iter
    (fun (n, t) ->
      let spec = Doall.Spec.make ~n ~t in
      let direct = run spec Doall.Protocol_a.protocol in
      Table.add_row table
        [
          "A, pool common knowledge"; Table.fmt_int n; string_of_int t;
          Table.fmt_int (m_work direct); Table.fmt_int (m_msgs direct);
          Table.fmt_int (Metrics.effort direct.metrics);
          Table.fmt_int (m_rounds direct); verdict direct;
        ];
      let boot = Agreement.Bootstrap.run ~n ~t Agreement.Crash_ba.A in
      Table.add_row table
        [
          "A, bootstrap (BA first)"; Table.fmt_int n; string_of_int t;
          Table.fmt_int boot.total_work; Table.fmt_int boot.total_messages;
          Table.fmt_int (boot.total_work + boot.total_messages);
          Table.fmt_int boot.total_rounds;
          (if boot.ok then "ok" else "FAIL");
        ];
      Table.add_rule table)
    [ (200, 10); (800, 25) ];
  List.iter
    (fun (n, t) ->
      let spec = Doall.Spec.make ~n ~t in
      let wave = n / 4 in
      let arrivals =
        List.init n (fun u -> (u / wave * 20, u, u mod t))
      in
      let cfg =
        { Doall.Protocol_d_online.arrivals; horizon = 100; idle_block = 5 }
      in
      let r = run spec (Doall.Protocol_d_online.protocol cfg) in
      Table.add_row table
        [
          "D-online, 4 arrival waves"; Table.fmt_int n; string_of_int t;
          Table.fmt_int (m_work r); Table.fmt_int (m_msgs r);
          Table.fmt_int (Metrics.effort r.metrics); Table.fmt_int (m_rounds r);
          verdict r;
        ])
    [ (200, 10); (800, 25) ];
  publish "E14" table

(* ------------------------------------------------------------------ *)
(* E15: De Prisco–Mayer–Yung's observation quoted in Section 1.1 — in the
   message-passing model with t ≈ n, ANY algorithm needs n² available
   processor steps (whereas shared memory admits O(n log² n)). *)

let e15 () =
  let table =
    Table.create
      ~title:
        "Section 1.1 / De Prisco et al.: at t = n, the WORST-CASE available-processor-\n\
         steps cost of message-passing Do-All is >= ~n^2 (shared memory escapes with\n\
         O(n log^2 n)). Failure-free runs can be cheap (D pays 2n); an adversary that\n\
         kills one process per takeover/phase forces the quadratic bill."
      [ ("n = t", Table.Right); ("protocol", Left); ("APS (ff)", Right);
        ("APS (adversary)", Right); ("n^2", Right); ("adv/n^2", Right) ]
  in
  List.iter
    (fun n ->
      let spec = Doall.Spec.make ~n ~t:n in
      List.iter
        (fun proto ->
          let ff = run spec proto in
          let adv =
            (* one crash per phase: process i dies at round 3i *)
            run
              ~fault:
                (Simkit.Fault.crash_silently_at
                   (List.init (n - 1) (fun i -> (i, 3 * i))))
              spec proto
          in
          let aps_adv = aps_of_report adv in
          Table.add_row table
            [
              string_of_int n; ff.Doall.Runner.protocol;
              Table.fmt_int (aps_of_report ff); Table.fmt_int aps_adv;
              Table.fmt_int (n * n);
              Table.fmt_ratio (float_of_int aps_adv /. float_of_int (n * n));
            ])
        [
          Doall.Protocol_a.protocol; Doall.Protocol_b.protocol;
          Doall.Protocol_d.protocol; Doall.Baseline_trivial.protocol;
        ];
      Table.add_rule table)
    [ 16; 32; 64 ];
  publish "E15" table

(* ------------------------------------------------------------------ *)
(* E16: statistical sweep — the single-schedule tables above could hide
   lucky seeds; run 100 random schedules per protocol and report the
   mean and max of each cost against its bound. *)

let e16 () =
  let n = 128 and t = 16 and runs = 100 in
  let spec = Doall.Spec.make ~n ~t in
  let grid = Doall.Grid.make spec in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Robustness sweep: %d random crash schedules (up to t-1 victims, random\n\
            rounds), n=%d t=%d. Every max must sit below its theorem bound." runs n t)
      [ ("protocol", Table.Left); ("work mean", Right); ("work max", Right);
        ("W-bound", Right); ("msgs mean", Right); ("msgs max", Right);
        ("M-bound", Right); ("rounds max", Right); ("R-bound", Right);
        ("failures", Right) ]
  in
  let g = Dhw_util.Prng.create 20260706L in
  List.iter
    (fun (proto, wb, mb, rb) ->
      let works = ref [] and msgs = ref [] and rounds = ref [] in
      let bad = ref 0 in
      (* crash rounds drawn within twice the failure-free running time, so
         they actually land while processes are alive *)
      let window = (2 * m_rounds (run spec proto)) + 1 in
      for _ = 1 to runs do
        let victims = Dhw_util.Prng.int g t in
        let pids = Dhw_util.Prng.sample_without_replacement g victims t in
        let schedule =
          List.map (fun p -> (p, Dhw_util.Prng.int g window)) pids
        in
        let r = run ~fault:(Simkit.Fault.crash_silently_at schedule) spec proto in
        if not (Doall.Runner.correct r) then incr bad;
        works := m_work r :: !works;
        msgs := m_msgs r :: !msgs;
        rounds := m_rounds r :: !rounds
      done;
      let mean xs =
        float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
      in
      let mx xs = List.fold_left max 0 xs in
      Table.add_row table
        [
          (run spec proto).Doall.Runner.protocol;
          Table.fmt_float (mean !works); Table.fmt_int (mx !works);
          Table.fmt_int wb;
          Table.fmt_float (mean !msgs); Table.fmt_int (mx !msgs);
          Table.fmt_int mb;
          Table.fmt_int (mx !rounds); Table.fmt_int rb;
          string_of_int !bad;
        ])
    [
      (Doall.Protocol_a.protocol, Bounds.a_work grid, Bounds.a_msgs grid,
       Bounds.a_rounds grid);
      (Doall.Protocol_b.protocol, Bounds.b_work grid, Bounds.b_msgs grid,
       Bounds.b_rounds grid);
      (* D's bounds use the revert-path envelope: random schedules can kill
         more than half a phase's processes *)
      (Doall.Protocol_d.protocol, Bounds.d_work_revert spec,
       Bounds.d_msgs_revert spec ~f:(t - 1), Bounds.d_rounds_revert spec ~f:(t - 1));
    ];
  publish "E16" table;
  (* Adversary campaigns: the silent-crash sweep above is the weakest corner
     of the fault space. Run a seeded Simkit.Campaign per protocol — acting
     crashes with partial-delivery cuts included — and report the campaign
     statistics: schedules run, violations, and how much of each theorem
     bound the worst execution consumed (oracle margins, measured/bound). *)
  let module Campaign = Simkit.Campaign in
  let ctable =
    Table.create
      ~title:
        (Printf.sprintf
           "Adversary campaigns (partial-delivery fault fuzzing, Simkit.Campaign):\n\
            seeded schedules incl. mid-broadcast prefix/subset cuts, n=%d t=%d.\n\
            Margins are worst measured/bound ratios over all passing runs." n t)
      [ ("protocol", Table.Left); ("schedules", Right); ("executions", Right);
        ("violations", Right); ("work margin", Right); ("msgs margin", Right);
        ("rounds margin", Right) ]
  in
  let margin stats name =
    match List.assoc_opt name stats.Campaign.margins with
    | Some m -> Table.fmt_ratio m
    | None -> "-"
  in
  List.iter
    (fun proto ->
      let stats = Doall.Fuzz.campaign ~seed:20260806L ~executions:runs spec proto in
      Table.add_row ctable
        [
          proto.Doall.Protocol.name;
          Table.fmt_int stats.Campaign.schedules;
          Table.fmt_int stats.Campaign.executions;
          string_of_int (List.length stats.Campaign.failures);
          margin stats "work"; margin stats "messages"; margin stats "rounds";
        ])
    [
      Doall.Protocol_a.protocol; Doall.Protocol_b.protocol;
      Doall.Protocol_d.protocol; Doall.Protocol_d_coord.protocol;
    ];
  publish "E16-campaigns" ctable

(* ------------------------------------------------------------------ *)
(* E17: the price of an unreliable network. Hardened async Protocol A
   (ack/retransmit links + heartbeat detector, no oracle) against the
   oracle-detector perfect-link baseline, as the link adversary turns up
   message loss and duplication. Correctness never moves; only the
   transport overhead (retransmits, acks, beats) and completion time do. *)

let e17 () =
  let spec = Doall.Spec.make ~n:160 ~t:16 in
  let crash_at = List.init 8 (fun i -> (i, 25 * (i + 1))) in
  let table =
    Table.create
      ~title:
        "Unreliable network: hardened async Protocol A vs the perfect-link\n\
         oracle baseline; n=160 t=16, 8 crashes, max_delay=5 max_lag=10.\n\
         Loss/dup rates are per message; work must stay flat while only\n\
         transport costs grow."
      [ ("link", Table.Left); ("work", Right); ("msgs", Right);
        ("ticks", Right); ("retransmits", Right); ("acks", Right);
        ("beats", Right); ("done", Left) ]
  in
  let baseline =
    Asim.Async_protocol_a.run ~crash_at ~max_delay:5 ~max_lag:10 ~seed:17L spec
  in
  Table.add_row table
    [
      "oracle FD, perfect";
      Table.fmt_int (Metrics.work baseline.metrics);
      Table.fmt_int (Metrics.messages baseline.metrics);
      Table.fmt_int (Metrics.rounds baseline.metrics);
      "-"; "-"; "-";
      (if
         Asim.Event_sim.completed baseline
         && Metrics.all_units_done baseline.metrics
       then "ok"
       else "FAIL");
    ];
  List.iter
    (fun (label, drop_bp, dup_bp, slow_set) ->
      let link =
        { Asim.Event_sim.drop_bp; dup_bp; corrupt_bp = 0; slow_set;
          slow_factor = 4; severs = [] }
      in
      let stats = Asim.Link.stats () in
      let r =
        Asim.Async_protocol_a.run_hardened ~crash_at ~max_delay:5 ~max_lag:10
          ~seed:17L ~link ~stats spec
      in
      Table.add_row table
        [
          label;
          Table.fmt_int (Metrics.work r.metrics);
          Table.fmt_int (Metrics.messages r.metrics);
          Table.fmt_int (Metrics.rounds r.metrics);
          Table.fmt_int stats.retransmits;
          Table.fmt_int stats.acks_sent;
          Table.fmt_int stats.beats_sent;
          (if Asim.Event_sim.completed r && Metrics.all_units_done r.metrics
           then "ok"
           else "FAIL");
        ])
    [
      ("hardened, perfect", 0, 0, []);
      ("5% loss", 500, 0, []);
      ("15% loss, 5% dup", 1500, 500, []);
      ("30% loss, 10% dup", 3000, 1000, []);
      ("30% loss, slow {0,1}", 3000, 0, [ 0; 1 ]);
    ];
  publish "E17" table

(* E18: the price of crash–recovery. Recovery-hardened A and B against
   their crash-stop baselines: failure-free the overhead is pure
   stable-storage bookkeeping (work, messages and rounds must not move);
   under crash+restart schedules the rejoiners' state transfer and redone
   units are the cost, and every run must still complete correctly. *)

let e18 () =
  let spec = Doall.Spec.make ~n:100 ~t:16 in
  let entry mode victim at = { Simkit.Campaign.Schedule.victim; at; mode } in
  let silent = entry Simkit.Campaign.Schedule.Silent in
  let restart = entry Simkit.Campaign.Schedule.Restart in
  let sched entries =
    Simkit.Campaign.Schedule.to_fault (Simkit.Campaign.Schedule.make entries)
  in
  let scenarios =
    [
      ("failure-free", fun () -> Simkit.Fault.none);
      ("crash 0@2, rejoin @10", fun () -> sched [ silent 0 2; restart 0 10 ]);
      ( "storm: 2 cycles + 2 victims",
        fun () ->
          sched
            [
              silent 0 1; restart 0 6; silent 0 7; restart 0 21;
              silent 2 3; restart 2 9; silent 5 4;
            ] );
    ]
  in
  let table =
    Table.create
      ~title:
        "Crash-recovery overhead: recovery-hardened A and B vs their\n\
         crash-stop baselines; n=100 t=16. Failure-free the wrapper may\n\
         only add stable-storage writes; restarts buy completion under\n\
         revival storms at the price of redone work and transfer traffic."
      [ ("protocol", Table.Left); ("scenario", Left); ("work", Right);
        ("w/ff", Right); ("msgs", Right); ("rounds", Right);
        ("restarts", Right); ("persists", Right); ("done", Left) ]
  in
  List.iter
    (fun (which, base_proto) ->
      let base = run spec base_proto in
      let ff_work = m_work base in
      Table.add_row table
        [
          base.Doall.Runner.protocol; "crash-stop, failure-free";
          Table.fmt_int ff_work; "1.00"; Table.fmt_int (m_msgs base);
          Table.fmt_int (m_rounds base); "-"; "-"; verdict base;
        ];
      List.iter
        (fun (label, fault) ->
          let r = Doall.Recovery.run ~fault:(fault ()) spec which in
          let m = r.Doall.Runner.metrics in
          Table.add_row table
            [
              r.Doall.Runner.protocol; label;
              Table.fmt_int (m_work r); fmt_ratio (m_work r) ff_work;
              Table.fmt_int (m_msgs r); Table.fmt_int (m_rounds r);
              Table.fmt_int (Metrics.restarts m);
              Table.fmt_int (Metrics.persists m); verdict r;
            ])
        scenarios;
      Table.add_rule table)
    [
      (Doall.Recovery.A, Doall.Protocol_a.protocol);
      (Doall.Recovery.B, Doall.Protocol_b.protocol);
    ];
  publish "E18" table

(* E19: the harness itself scales with cores. A fixed seeded campaign (the
   same storm every row) is executed through Simkit.Pool at increasing
   worker-domain counts; wall-clock throughput and the speedup over jobs=1
   are measured, and "deterministic" digests the complete campaign result
   (counts, margins, every shrunk counterexample) and compares it with the
   jobs=1 digest — the byte-identity claim of Campaign.run_parallel,
   checked on real workloads. On a single-core machine the speedup column
   sits at ~1.0x; the deterministic column must read ok everywhere. *)

let campaign_fingerprint print (stats : _ Simkit.Campaign.stats) =
  let module C = Simkit.Campaign in
  let b = Buffer.create 256 in
  Buffer.add_string b (Format.asprintf "%a" C.pp_stats stats);
  List.iter
    (fun (f : _ C.failure) ->
      Buffer.add_string b f.C.oracle;
      Buffer.add_string b f.C.detail;
      Buffer.add_string b (print f.C.schedule);
      Buffer.add_string b (print f.C.shrunk))
    stats.C.failures;
  Digest.string (Buffer.contents b)

let e19 () =
  let module C = Simkit.Campaign in
  let executions = 250 and jobs_list = [ 1; 2; 4; 8 ] in
  let sync_spec = Doall.Spec.make ~n:80 ~t:12 in
  let async_spec = Doall.Spec.make ~n:40 ~t:6 in
  let async_executions = executions / 5 in
  let campaigns =
    [
      ( Printf.sprintf "sync A, %d-schedule storm" executions,
        fun jobs ->
          let stats =
            Doall.Fuzz.campaign ~jobs ~seed:20260806L ~executions sync_spec
              Doall.Protocol_a.protocol
          in
          (stats.C.executions, List.length stats.C.failures,
           campaign_fingerprint C.Schedule.print stats) );
      ( Printf.sprintf "async A, %d-schedule storm" async_executions,
        fun jobs ->
          let stats =
            Asim.Async_fuzz.campaign ~jobs ~seed:20260806L
              ~executions:async_executions async_spec
          in
          (stats.C.executions, List.length stats.C.failures,
           campaign_fingerprint C.Async.print stats) );
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Multicore campaign execution (Simkit.Pool): one seeded storm per\n\
            campaign, executed at increasing worker-domain counts (this host\n\
            recommends %d). Speedup is wall-clock over jobs=1; deterministic\n\
            compares a digest of the full campaign result with jobs=1."
           (Simkit.Pool.default_jobs ()))
      [ ("campaign", Table.Left); ("jobs", Right); ("executions", Right);
        ("violations", Right); ("wall s", Right); ("exec/s", Right);
        ("speedup", Right); ("deterministic", Left) ]
  in
  List.iter
    (fun (label, go) ->
      let base_wall = ref 0.0 in
      let base_digest = ref "" in
      List.iter
        (fun jobs ->
          let t0 = Unix.gettimeofday () in
          let execs, violations, digest = go jobs in
          let wall = Unix.gettimeofday () -. t0 in
          if jobs = 1 then begin
            base_wall := wall;
            base_digest := digest
          end;
          Table.add_row table
            [
              label; string_of_int jobs; Table.fmt_int execs;
              string_of_int violations;
              Printf.sprintf "%.2f" wall;
              Table.fmt_float (float_of_int execs /. wall);
              (if jobs = 1 then "1.00"
               else Table.fmt_ratio (!base_wall /. wall));
              (if digest = !base_digest then "ok" else "MISMATCH");
            ])
        jobs_list;
      Table.add_rule table)
    campaigns;
  publish "E19" table

(* E20: the price of validation under lies. Per Byzantine budget b, the
   same seeded storm of corruption/Byzantine schedules is executed by both
   the exposed Protocol A baseline and the validated A+val (keyed digests +
   f+1-quorum attestation) through the worker pool. The baseline's
   violation count shows what the adversary buys; the hardened rows must
   read 0 violations, and the work ratio is the premium the quorum
   charges for it. *)

let e20 () =
  let module C = Simkit.Campaign in
  let module F = Doall.Fuzz in
  let schedules = 40 in
  let spec = Doall.Spec.make ~n:60 ~t:15 in
  let t = Doall.Spec.processes spec in
  let window = 60 in
  let max_rounds = F.byz_max_rounds spec ~window in
  let budgets =
    List.sort_uniq compare [ 0; 1; t / 4; (t / 3) - 1 ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Corruption & Byzantine overhead: exposed A vs validated A+val\n\
            under the same %d-schedule seeded storm per Byzantine budget b\n\
            (n=%d t=%d, fault window %d). Hardened rows must show 0\n\
            violations; \"work vs A\" is the price of the f+1 quorum."
           schedules (Doall.Spec.n spec) t window)
      [ ("b", Right); ("protocol", Left); ("violations", Right);
        ("mean work", Right); ("mean msgs", Right); ("mean rounds", Right);
        ("work vs A", Right) ]
  in
  List.iter
    (fun b ->
      let g = Dhw_util.Prng.create 20260809L in
      let scheds =
        List.init schedules (fun _ -> C.sample_byz g ~t ~window ~byz:b)
      in
      let eval hardening =
        let oracles = F.byz_oracles spec ~hardening in
        let runs =
          Simkit.Pool.map_list
            (fun sched ->
              let s = F.run_byz_schedule ~max_rounds spec hardening sched in
              let m = s.F.report.Doall.Runner.metrics in
              ( (match C.first_failure oracles s with
                | Some _ -> 1
                | None -> 0),
                Metrics.work m, Metrics.messages m, Metrics.rounds m ))
            scheds
        in
        let viol, work, msgs, rounds =
          List.fold_left
            (fun (v, w, m, r) (v', w', m', r') -> (v + v', w + w', m + m', r + r'))
            (0, 0, 0, 0) runs
        in
        let mean x = float_of_int x /. float_of_int schedules in
        (viol, mean work, mean msgs, mean rounds)
      in
      let va, wa, ma, ra = eval F.Unhardened in
      let vv, wv, mv, rv = eval F.Hardened in
      Table.add_row table
        [
          string_of_int b; F.byz_protocol_name F.Unhardened;
          string_of_int va; Printf.sprintf "%.1f" wa;
          Printf.sprintf "%.1f" ma; Printf.sprintf "%.1f" ra; "1.00";
        ];
      Table.add_row table
        [
          string_of_int b; F.byz_protocol_name F.Hardened;
          string_of_int vv; Printf.sprintf "%.1f" wv;
          Printf.sprintf "%.1f" mv; Printf.sprintf "%.1f" rv;
          Table.fmt_ratio (wv /. wa);
        ];
      Table.add_rule table)
    budgets;
  publish "E20" table

(* E21: sim-vs-real parity. Each scenario is executed twice — once in the
   simulator and once as a fleet of real dhw_node processes over unix
   sockets, with the fault plan enforced by actual SIGKILLs and respawned
   incarnations recovering from on-disk checkpoints. Because the
   orchestrator replicates the kernel's loop rules and consults the same
   fault plan, the two executions must be identical, event for event
   ([Orchestrator.parity]); the kill-storm rows double as a survival check
   for the respawn/recover path under back-to-back process deaths. *)

let e21_tmpdir () =
  let d = Filename.temp_file "dhwe21" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec e21_rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> e21_rm_rf (Filename.concat path e))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let e21 () =
  let module C = Simkit.Campaign in
  let module O = Dhw_net.Orchestrator in
  let node_exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/dhw_node.exe"
  in
  let scenarios =
    [
      ("A / fault-free", "a", 12, 3, [], []);
      ("A+rec / kill + recover", "a+rec", 12, 3, [ (0, 2) ], [ (0, 6) ]);
      ( "A+rec / kill-storm",
        "a+rec", 24, 4,
        [ (0, 2); (1, 4); (2, 6) ],
        [ (0, 5); (1, 8); (2, 10) ] );
      ("B+rec / kill + recover", "b+rec", 12, 3, [ (1, 3) ], [ (1, 7) ]);
    ]
  in
  let table =
    Table.create
      ~title:
        "Sim-vs-real parity: each schedule executed by the simulator and\n\
         by a fleet of real dhw_node processes (unix sockets, real\n\
         SIGKILLs, checkpoint-recovering respawns). Cells are the fleet's\n\
         measures; parity is ok when the two event streams are equal,\n\
         event for event, and the fleet completed."
      [ ("scenario", Table.Left); ("t", Right); ("n", Right);
        ("kills", Right); ("respawns", Right); ("work", Right);
        ("msgs", Right); ("rounds", Right); ("persists", Right);
        ("frames", Right); ("parity", Left) ]
  in
  if not (Sys.file_exists node_exe) then
    Table.add_row table
      [ "dhw_node.exe not found; skipped"; "-"; "-"; "-"; "-"; "-"; "-";
        "-"; "-"; "-"; "-" ]
  else
    List.iter
      (fun (label, protocol, n, t, crashes, restarts) ->
        let entries =
          List.map
            (fun (victim, at) -> { C.Schedule.victim; at; mode = C.Schedule.Silent })
            crashes
          @ List.map
              (fun (victim, at) ->
                { C.Schedule.victim; at; mode = C.Schedule.Restart })
              restarts
        in
        let sched = C.Schedule.make entries in
        let dir = e21_tmpdir () in
        let ckpt_dir = Filename.concat dir "ckpt" in
        Unix.mkdir ckpt_dir 0o700;
        let cfg =
          O.config
            ~fault:(C.Schedule.to_fault sched)
            ~log_dir:dir ~node_exe
            ~addr:(Dhw_net.Transport.Unix_sock (Filename.concat dir "ctl.sock"))
            ~protocol ~n ~t ~ckpt_dir ()
        in
        let real = Fun.protect ~finally:(fun () -> e21_rm_rf dir) (fun () -> O.run cfg) in
        let cell f = string_of_int (f real.O.metrics) in
        let parity = O.parity cfg ~sched real = None && real.O.stop = O.Completed in
        Table.add_row table
          [
            label; string_of_int t; string_of_int n;
            string_of_int real.O.kills; string_of_int real.O.respawns;
            cell Metrics.work; cell Metrics.messages; cell Metrics.rounds;
            cell Metrics.persists;
            string_of_int
              (real.O.transport.Dhw_net.Transport.frames_sent
              + real.O.transport.Dhw_net.Transport.frames_received);
            (if parity then "ok" else "FAIL");
          ])
      scenarios;
  publish "E21" table

(* ------------------------------------------------------------------ *)
(* E22: the online Do-All latency picture. Per-unit arrival-to-completion
   latency percentiles (from the log-bucketed {!Dhw_util.Hist}) as the
   crash rate rises. Units arriving at a site that is already dead are
   lost by the model's own semantics, so the lost column grows with the
   crash count while the survivors' tail latency degrades gracefully. *)

let e22 () =
  let table =
    Table.create
      ~title:
        "E22: online Protocol D, per-unit arrival->completion latency (rounds) vs\n\
         crash rate. n=400 units arrive at seeded random rounds/sites over an\n\
         80-round horizon on t=16 processes; units arriving at crashed sites are\n\
         lost by design, and the surviving units' percentiles come from the\n\
         log-bucketed histogram (exact-rank, within one bucket of exact)."
      [ ("crashes", Table.Right); ("completed", Right); ("lost", Right);
        ("p50", Right); ("p90", Right); ("p99", Right); ("p999", Right);
        ("max", Right) ]
  in
  let n = 400 and t = 16 and horizon = 80 in
  let arrivals =
    Doall.Latency.gen_arrivals ~seed:97L ~n_units:n ~sites:t ~horizon
  in
  let spec = Doall.Spec.make ~n ~t in
  List.iter
    (fun crashes ->
      let fault =
        if crashes = 0 then Simkit.Fault.none
        else
          Simkit.Fault.crash_silently_at
            (List.init crashes (fun i -> (i, 10 + (7 * i))))
      in
      let cfg =
        { Doall.Protocol_d_online.arrivals; horizon; idle_block = 4 }
      in
      let lat = Doall.Latency.create ~arrivals in
      let _r =
        Doall.Runner.run ~fault ~obs:(Doall.Latency.sink lat) spec
          (Doall.Protocol_d_online.protocol cfg)
      in
      let h = Doall.Latency.hist lat in
      let q p = Table.fmt_int (Dhw_util.Hist.quantile h p) in
      Table.add_row table
        [
          string_of_int crashes;
          Table.fmt_int (Doall.Latency.completed lat);
          Table.fmt_int (Doall.Latency.lost lat);
          q 0.5; q 0.9; q 0.99; q 0.999;
          Table.fmt_int (Dhw_util.Hist.max_value h);
        ])
    [ 0; 2; 4; 8 ];
  publish "E22" table

(* ------------------------------------------------------------------ *)
(* E23: allocation discipline of the kernel hot loop. Minor-heap words
   allocated per round (Gc.minor_words deltas around a fault-free run),
   with and without the span sink armed — guards against the tracing layer
   sneaking per-event allocation into untraced runs. *)

let e23 () =
  let table =
    Table.create
      ~title:
        "E23: minor-heap allocation per kernel round (Gc.minor_words delta over\n\
         a fault-free n=400 t=16 run), untraced vs with the span collector\n\
         armed. Tracing costs only when requested."
      [ ("protocol", Table.Left); ("rounds", Right); ("minor words", Right);
        ("words/round", Right); ("words/round traced", Right) ]
  in
  let n = 400 and t = 16 in
  let spec = Doall.Spec.make ~n ~t in
  let online_cfg =
    {
      Doall.Protocol_d_online.arrivals =
        Doall.Latency.gen_arrivals ~seed:97L ~n_units:n ~sites:t ~horizon:80;
      horizon = 80;
      idle_block = 4;
    }
  in
  let measure ?spans proto =
    let before = Gc.minor_words () in
    let r = Doall.Runner.run ?spans spec proto in
    let words = Gc.minor_words () -. before in
    (r, words)
  in
  List.iter
    (fun (name, proto) ->
      let r, words = measure proto in
      let sink, _spans = Simkit.Obs.span_collector ~src:"bench" () in
      let _, words_traced = measure ~spans:sink proto in
      let rounds = max 1 (m_rounds r) in
      let per w = Table.fmt_int (int_of_float (w /. float_of_int rounds)) in
      Table.add_row table
        [
          name; Table.fmt_int (m_rounds r);
          Table.fmt_int (int_of_float words); per words; per words_traced;
        ])
    [
      ("A", Doall.Protocol_a.protocol);
      ("B", Doall.Protocol_b.protocol);
      ("D", Doall.Protocol_d.protocol);
      ("D-online", Doall.Protocol_d_online.protocol online_cfg);
    ];
  publish "E23" table

(* ------------------------------------------------------------------ *)
(* E24: the asynchronous real fleet under rising chaos loss. Unlike E21's
   round-lockstep orchestrator, here the nodes run free over the datagram
   mesh with organic heartbeat detection; each row SIGKILLs two waiters
   mid-run and respawns them from their checkpoints. Throughput is end-to-
   end units per wall second; detection latency is the tick distance from
   each SIGKILL to the first surviving suspicion of the victim, straight
   from the fleet's {!Dhw_util.Hist}. Loss slows the transport (more
   retransmission rounds) but must never cost units or oracles. *)

let e24 () =
  let module CA = Simkit.Campaign.Async in
  let module Fl = Dhw_net.Fleet in
  let node_exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/dhw_node.exe"
  in
  let n = 400 and t = 3 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E24: async real fleet (t=%d dhw_node --async processes, datagram\n\
            mesh, organic heartbeat detection) vs chaos loss. Each row moves\n\
            n=%d units through real processes while two waiters are SIGKILLed\n\
            and respawned from checkpoints; detection latency is SIGKILL ->\n\
            first surviving suspicion, in ticks."
           t n)
      [ ("drop", Table.Right); ("n", Right); ("t", Right); ("kills", Right);
        ("respawns", Right); ("work", Right); ("units/s", Right);
        ("detect p50", Right); ("detect p99", Right); ("oracles", Left) ]
  in
  if not (Sys.file_exists node_exe) then
    Table.add_row table
      [ "dhw_node.exe not found; skipped"; "-"; "-"; "-"; "-"; "-"; "-"; "-";
        "-"; "-" ]
  else
    List.iter
      (fun drop_bp ->
        let sched =
          CA.make
            ~meta:
              [ ("protocol", "async-a"); ("n", string_of_int n);
                ("t", string_of_int t) ]
            ~crashes:[ { CA.victim = 1; at = 80 }; { CA.victim = 2; at = 160 } ]
            ~restarts:
              [ { CA.victim = 1; at = 320 }; { CA.victim = 2; at = 360 } ]
            ~drop_bp ~seed:7L ()
        in
        let dir = e21_tmpdir () in
        let cfg =
          Fl.config ~dir ~node_exe ~spec:(Doall.Spec.make ~n ~t) ~sched ()
        in
        let r =
          Fun.protect ~finally:(fun () -> e21_rm_rf dir) (fun () -> Fl.run cfg)
        in
        let q h p =
          if Hist.count h = 0 then "-" else string_of_int (Hist.quantile h p)
        in
        Table.add_row table
          [
            Printf.sprintf "%d bp" drop_bp; string_of_int n; string_of_int t;
            string_of_int r.Fl.kills; string_of_int r.Fl.restarts;
            string_of_int r.Fl.total_work;
            Printf.sprintf "%.0f" (float_of_int n /. r.Fl.wall_s);
            q r.Fl.detect_hist 0.5; q r.Fl.detect_hist 0.99;
            (if r.Fl.ok then "ok" else "FAIL");
          ])
      [ 0; 1000; 3000 ];
  publish "E24" table

(* ------------------------------------------------------------------ *)
(* E25: the million-unit kernel. Wall-clock and minor-heap allocation for
   runs of A, B and D as n sweeps up to 10^7 at t=10^3 — failure-free, and
   for A and B also under the work-wasting crash storm (t-1 crashes of the
   active process, each right after 25-75 units of work) — the scale
   regime the interval-set protocol views, the preallocated kernel inboxes
   and the due-pid round loop exist for. The words/round column is the
   proof that the round loop itself does not allocate: it must stay flat
   (near-zero per process-step) as n grows by two orders of magnitude,
   with or without crashes. Rounds are the highest round number, which
   A's deadline ladder pushes to ~10^9 under the storm, so words/effort
   (minor words per unit of work plus message) is the column that shows
   what each action costs. Failure-free D runs to 10^7 too: its ~2t^2
   agreement messages do not grow with n, and each costs a constant number
   of words (one shared payload per broadcast, a one-pass merge), so D's
   words/effort stays flat while its words/round, over only n/t rounds,
   carries t steps and those t^2 messages. *)

type scale_row = {
  sc_proto : string;
  sc_n : int;
  sc_wall_s : float;
  sc_words_per_round : float;
  sc_words_per_effort : float;
  sc_promoted_per_msg : float;
      (* words promoted to the major heap per message, from Gc.quick_stat:
         what a message in flight keeps alive across minor collections *)
  sc_ok : bool;
}

let crash_storm ~t () =
  Simkit.Fault.crash_active_after_random_work ~seed:1L ~min_units:25
    ~max_units:75 ~max_crashes:(t - 1)

let e25 ?(scales = [ 100_000; 1_000_000; 10_000_000 ]) () =
  let t = 1000 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E25: scale sweep at t=%d, failure-free and under a crash storm\n\
            (t-1 crashes of the active process, each after 25-75 units).\n\
            Wall-clock and minor-heap words per round must stay flat as n\n\
            grows (the kernel round loop allocates nothing of its own;\n\
            protocol views are interval sets). D's ~2t^2 agreement\n\
            messages do not grow with n; words/effort bounds their cost." t)
      [ ("protocol", Table.Left); ("n", Right); ("t", Right); ("rounds", Right);
        ("work", Right); ("msgs", Right); ("wall ms", Right);
        ("minor words", Right); ("words/round", Right); ("words/effort", Right);
        ("ok", Left) ]
  in
  let rows = ref [] in
  List.iter
    (fun (name, proto, fault) ->
      List.iter
        (fun n ->
          let spec = Doall.Spec.make ~n ~t in
          let fault = Option.map (fun f -> f ()) fault in
          let t0 = Unix.gettimeofday () in
          let promoted0 = (Gc.quick_stat ()).promoted_words in
          let before = Gc.minor_words () in
          let r = run ?fault spec proto in
          let words = Gc.minor_words () -. before in
          let promoted = (Gc.quick_stat ()).promoted_words -. promoted0 in
          let wall = Unix.gettimeofday () -. t0 in
          let rounds = max 1 (m_rounds r) in
          let wpr = words /. float_of_int rounds in
          let wpe = words /. float_of_int (max 1 (m_work r + m_msgs r)) in
          let ok = Doall.Runner.correct r in
          Table.add_row table
            [
              name; Table.fmt_int n; string_of_int t;
              Table.fmt_int (m_rounds r); Table.fmt_int (m_work r);
              Table.fmt_int (m_msgs r);
              Printf.sprintf "%.1f" (wall *. 1000.);
              Table.fmt_int (int_of_float words);
              Printf.sprintf "%.1f" wpr;
              Printf.sprintf "%.1f" wpe;
              (if ok then "ok" else "FAIL");
            ];
          rows :=
            { sc_proto = name; sc_n = n; sc_wall_s = wall;
              sc_words_per_round = wpr; sc_words_per_effort = wpe;
              sc_promoted_per_msg = promoted /. float_of_int (max 1 (m_msgs r));
              sc_ok = ok }
            :: !rows)
        scales;
      Table.add_rule table)
    [
      ("A", Doall.Protocol_a.protocol, None);
      ("B", Doall.Protocol_b.protocol, None);
      ("D", Doall.Protocol_d.protocol, None);
      ("A crash-storm", Doall.Protocol_a.protocol, Some (crash_storm ~t));
      ("B crash-storm", Doall.Protocol_b.protocol, Some (crash_storm ~t));
    ];
  publish "E25" table;
  List.rev !rows

(* The tables `main.exe gate` regenerates and compares with the snapshot
   (Bench_gate.ungated says why E24 and E25 are not among them). *)
let gated () =
  reset ();
  e1 (); e2 (); e3 (); e4 (); e5 (); e6 (); e7 (); e8 (); e9 (); e10 ();
  e11 (); e12 (); e13 (); e14 (); e15 (); e16 (); e17 (); e18 (); e19 ();
  e20 (); e21 (); e22 (); e23 ()

(* Every table — `bench tables`. *)
let all () =
  gated ();
  e24 ();
  ignore (e25 ())

(* The full sweep, alone — `bench scale`. *)
let scale () =
  reset ();
  ignore (e25 ())

(* The @scale-smoke CI leg: the sweep truncated to n <= 10^6, with hard
   budgets asserted on the n=10^6 runs of A and B, failure-free and under
   the crash storm — wall-clock, minor-words-per-round and
   minor-words-per-effort ceilings that fail the build (exit 1) when the
   kernel hot path regresses into per-round allocation or superlinear
   scheduling, or a protocol step into per-action allocation that the
   storm's ~10^9 rounds would hide from words/round. Failure-free D's
   n=10^6 run gets the wall budget and the words/effort ceiling, which
   bounds the cost of each agreement message, but not the words/round
   ceiling: its n/t rounds each carry t steps, and its two agreement
   rounds the t^2 messages. D's run also gets a promoted-words ceiling per
   message: a message in flight is a kernel buffer slot and its envelope
   is shared by the whole broadcast, so its ~2t^2 messages must not drag
   per-message blocks into the major heap. Returns the violations; [] =
   within budget. *)
let scale_smoke () =
  let wall_budget_s = 60. and words_per_round_ceiling = 256.
  and words_per_effort_ceiling = 64. and promoted_per_msg_ceiling = 2. in
  reset ();
  let rows = e25 ~scales:[ 100_000; 1_000_000 ] () in
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun sc ->
      if not sc.sc_ok then add "%s n=%d: run incorrect" sc.sc_proto sc.sc_n)
    rows;
  List.iter
    (fun (proto, per_round, per_msg_promoted) ->
      match
        List.find_opt (fun sc -> sc.sc_proto = proto && sc.sc_n = 1_000_000) rows
      with
      | None -> add "%s n=1000000 leg missing from the sweep" proto
      | Some sc ->
          if sc.sc_wall_s > wall_budget_s then
            add "%s n=1000000 took %.1fs > %.0fs wall budget" proto sc.sc_wall_s
              wall_budget_s;
          if per_round && sc.sc_words_per_round > words_per_round_ceiling then
            add "%s n=1000000 allocates %.1f minor words/round > ceiling %.0f"
              proto sc.sc_words_per_round words_per_round_ceiling;
          if sc.sc_words_per_effort > words_per_effort_ceiling then
            add "%s n=1000000 allocates %.1f minor words/effort > ceiling %.0f"
              proto sc.sc_words_per_effort words_per_effort_ceiling;
          if per_msg_promoted && sc.sc_promoted_per_msg > promoted_per_msg_ceiling
          then
            add "%s n=1000000 promotes %.2f words/message > ceiling %.0f" proto
              sc.sc_promoted_per_msg promoted_per_msg_ceiling)
    [ ("A", true, false); ("B", true, false); ("D", false, true);
      ("A crash-storm", true, false); ("B crash-storm", true, false) ];
  List.iter
    (fun sc ->
      if sc.sc_n = 1_000_000 then
        Printf.printf "%s n=1000000: %.2f promoted words/message\n" sc.sc_proto
          sc.sc_promoted_per_msg)
    rows;
  List.rev !violations
