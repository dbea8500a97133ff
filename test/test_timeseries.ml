(* Tests for the second-generation observability layer: the windowed
   ring-buffer timeseries (bucket rollover, sliding-window decay math,
   percentiles, deterministic snapshots), the structured event log, the
   phase-latency contexts, the end-of-run report, and the docs/METRICS.md
   catalog (doc-rot guard). *)

module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Zoneconfig = Crdb_kv.Zoneconfig
module Cluster = Crdb_kv.Cluster
module Txn = Crdb_txn.Txn
module Obs = Crdb_obs.Obs
module Metrics = Crdb_obs.Metrics
module Timeseries = Crdb_obs.Timeseries
module Events = Crdb_obs.Events
module Phase = Crdb_obs.Phase
module Op = Crdb_obs.Op
module Report = Crdb_obs.Report
module Trace = Crdb_obs.Trace
module Crdb = Crdb_core.Crdb

let check = Alcotest.check
let feq = Alcotest.(float 1e-9)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Timeseries: ring and window math (synthetic clock)                  *)

let make_ts ?(bucket_width = 1_000) ?(num_buckets = 4) now =
  Timeseries.create ~now:(fun () -> !now) ~bucket_width ~num_buckets ()

let test_ts_basic_window () =
  let now = ref 0 in
  let ts = make_ts now in
  (* Buckets of 1000us, 4 of them: retained span (and default window) 4000. *)
  check Alcotest.int "span" 4_000 (Timeseries.span ts);
  Timeseries.observe ts "qps" 1;
  now := 500;
  Timeseries.observe ts "qps" 1;
  now := 1_500;
  Timeseries.observe ts "qps" 1;
  (* Window covering everything: 3 samples, no decay. *)
  check feq "full window count" 3.0 (Timeseries.window_count ts "qps");
  (* rate = count / window-seconds = 3 / 0.004 *)
  check feq "rate over span" 750.0 (Timeseries.rate ts "qps")

let test_ts_fractional_decay () =
  let now = ref 0 in
  let ts = make_ts now in
  (* 4 samples in bucket [0, 1000). *)
  for _ = 1 to 4 do
    Timeseries.observe ts "qps" 1
  done;
  (* At now=1500 with window 1000, the window is [500, 1500]: the left edge
     splits the first bucket in half, so it contributes 4 * 0.5 = 2. *)
  now := 1_500;
  check feq "straddling bucket counts fractionally" 2.0
    (Timeseries.window_count ts ~window:1_000 "qps");
  (* Window [800, 1500]: only 200/1000 of the old bucket remains. *)
  check feq "narrower window decays further" 0.8
    (Timeseries.window_count ts ~window:700 "qps");
  (* Window [1400, 1500] ends past the old bucket entirely: nothing left. *)
  check feq "window past the bucket sees nothing" 0.0
    (Timeseries.window_count ts ~window:100 "qps");
  (* A sample in the current bucket: the bucket [1000, 2000) straddles the
     window's left edge 1400, so it too decays by (2000 - 1400) / 1000. *)
  Timeseries.observe ts "qps" 1;
  check feq "current straddling bucket decays by full width" 0.6
    (Timeseries.window_count ts ~window:100 "qps");
  (* Window [900, 1500]: the current bucket's start is inside the window so
     its sample counts fully (the bucket has not elapsed), and the old
     bucket still contributes its last 100/1000 slice: 1 + 4 * 0.1. *)
  check feq "current bucket counts fully once inside the window" 1.4
    (Timeseries.window_count ts ~window:600 "qps")

let test_ts_rollover_recycles_slots () =
  let now = ref 0 in
  let ts = make_ts now in
  Timeseries.observe ts "qps" 1;
  (* Advance beyond the retained span: epoch 0's slot (0 mod 4) is reused by
     epoch 4, wiping the old contents. *)
  now := 4_200;
  Timeseries.observe ts "qps" 1;
  check feq "old epoch evicted, only the new sample remains" 1.0
    (Timeseries.window_count ts "qps");
  (* The JSON snapshot must agree: exactly one bucket, starting at 4000. *)
  let json = Timeseries.to_json ts in
  check Alcotest.bool "snapshot has the recycled bucket" true
    (contains ~needle:"{\"start\":4000,\"count\":1,\"sum\":1}" json);
  check Alcotest.bool "snapshot dropped the evicted bucket" false
    (contains ~needle:"{\"start\":0," json)

let test_ts_sparse_samples () =
  let now = ref 0 in
  let ts = make_ts now in
  (* Samples only in epochs 0 and 2; epoch 1 and 3 never written. *)
  Timeseries.observe ts "w" 10;
  now := 2_500;
  Timeseries.observe ts "w" 30;
  now := 3_999;
  check feq "sum skips unused buckets" 40.0 (Timeseries.window_sum ts "w");
  (* sum_rate = 40 / 0.004s *)
  check feq "sum_rate" 10_000.0 (Timeseries.sum_rate ts "w");
  check feq "missing series reads as zero" 0.0
    (Timeseries.window_count ts "nope")

let test_ts_percentile_and_scopes () =
  let now = ref 0 in
  let ts = make_ts now in
  List.iter (Timeseries.record_sample ts ~range:7 "lat") [ 10; 20; 30; 40 ];
  now := 900;
  check
    Alcotest.(option int)
    "p50 over window" (Some 20)
    (Timeseries.percentile ts ~range:7 "lat" 50.0);
  check
    Alcotest.(option int)
    "p100 over window" (Some 40)
    (Timeseries.percentile ts ~range:7 "lat" 100.0);
  check
    Alcotest.(option int)
    "no samples -> None" None
    (Timeseries.percentile ts ~range:8 "lat" 50.0);
  (* Scoping: per-range series are independent; names/ranges enumerate. *)
  Timeseries.observe ts ~range:9 "lat" 1;
  Timeseries.observe ts "other" 1;
  check
    Alcotest.(list string)
    "names sorted" [ "lat"; "other" ] (Timeseries.names ts);
  check
    Alcotest.(list int)
    "ranges_of sorted" [ 7; 9 ] (Timeseries.ranges_of ts "lat")

let test_ts_snapshot_deterministic () =
  (* Two stores fed identically — including out-of-order series creation —
     must serialize byte-identically (sorted by name/range, buckets by
     epoch). *)
  let feed order =
    let now = ref 0 in
    let ts = make_ts now in
    List.iter
      (fun (name, range, v) ->
        Timeseries.observe ts ?range name v;
        now := !now + 400)
      order;
    Timeseries.to_json ts
  in
  let a =
    feed [ ("b", Some 2, 5); ("a", None, 1); ("b", Some 1, 3); ("a", None, 2) ]
  in
  let b =
    feed [ ("b", Some 2, 5); ("a", None, 1); ("b", Some 1, 3); ("a", None, 2) ]
  in
  check Alcotest.string "identical feeds -> identical snapshots" a b;
  check Alcotest.bool "series sorted by name" true
    (contains ~needle:"[{\"name\":\"a\"" a)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

let test_events_log () =
  let now = ref 0 in
  let ev = Events.create ~now:(fun () -> !now) () in
  Events.log ev ~node:1 ~range:4 ~attrs:[ ("at", "k08") ] Events.Split;
  now := 2_000_000;
  Events.log ev ~node:2 ~txn:9 ~attrs:[ ("key", "a\tb\x01") ] Events.Wound;
  now := 3_000_000;
  Events.log ev Events.Fault ~attrs:[ ("fault", "kill_node(3)") ];
  check Alcotest.int "length" 3 (Events.length ev);
  check Alcotest.int "count of_kind" 1 (Events.count ev Events.Wound);
  (match Events.of_kind ev Events.Split with
  | [ e ] ->
      check Alcotest.int "split ts" 0 e.Events.ts;
      check Alcotest.(option int) "split node" (Some 1) e.Events.node;
      check Alcotest.(option int) "split range" (Some 4) e.Events.range
  | l -> Alcotest.failf "expected one split, got %d" (List.length l));
  let timeline = Format.asprintf "%a" Events.pp_timeline ev in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "timeline has %s" needle) true
        (contains ~needle timeline))
    [ "split"; "wound"; "fault"; "at=k08"; "txn=9"; "2.000s" ];
  let json = Events.to_json ev in
  check Alcotest.bool "json has kinds" true
    (contains ~needle:"\"kind\":\"wound\"" json);
  check Alcotest.bool "json escapes control characters" true
    (contains ~needle:"\"key\":\"a\\tb\\u0001\"" json);
  Events.clear ev;
  check Alcotest.int "clear" 0 (Events.length ev)

(* ------------------------------------------------------------------ *)
(* Phase contexts                                                      *)

let test_phase_ctx () =
  let clock = ref 0 in
  let tr = Crdb_obs.Trace.create ~now:(fun () -> !clock) () in
  let op = Op.make tr in
  Op.add op Phase.Routing 100;
  Op.add op Phase.Routing 50;
  Op.add op Phase.Commit_wait 900;
  Op.add_wan op;
  Op.add_wan op;
  Op.add_wan op;
  check Alcotest.int "accumulates" 150 (Op.total op Phase.Routing);
  check Alcotest.int "untouched phase is zero" 0 (Op.total op Phase.Refresh);
  check Alcotest.int "wan rtts" 3 (Op.wan_rtts op);
  (* Fork and join: of concurrent branches only the last to finish is
     charged, whatever order they join in. *)
  clock := 1_050;
  let a = Op.fork op and b = Op.fork op in
  Op.add a Phase.Replication 300;
  Op.add_wan a;
  clock := 1_400;
  Op.join op a;
  check Alcotest.int "joined branch charged" 300 (Op.total op Phase.Replication);
  Op.add a Phase.Replication 1;
  check Alcotest.int "a joined branch takes no charges" 300
    (Op.total op Phase.Replication);
  Op.add b Phase.Lock_wait 500;
  Op.add_wan b;
  Op.add_wan b;
  clock := 1_600;
  Op.join op b;
  check Alcotest.int "earlier branch replaced" 0 (Op.total op Phase.Replication);
  check Alcotest.int "later branch charged" 500 (Op.total op Phase.Lock_wait);
  check Alcotest.int "later branch's wan" 5 (Op.wan_rtts op);
  let d = Op.fork op and e = Op.fork op in
  Op.add e Phase.Refresh 50;
  Op.add_wan e;
  clock := 1_700;
  Op.stop e;
  Op.add d Phase.Refresh 200;
  clock := 1_800;
  Op.join op d;
  Op.join op e;
  check Alcotest.int "a branch that finished first counts for nothing" 200
    (Op.total op Phase.Refresh);
  check Alcotest.int "nor does its wan" 5 (Op.wan_rtts op);
  (* A scope charges its elapsed time and discards its children's cells,
     keeping their WAN count. *)
  let r =
    Op.scope op Phase.Staging (fun inner ->
        Op.add inner Phase.Routing 100;
        Op.add_wan inner;
        clock := 2_200;
        42)
  in
  check Alcotest.int "scope result" 42 r;
  check Alcotest.int "scope elapsed" 400 (Op.total op Phase.Staging);
  check Alcotest.int "scope children discarded" 150
    (Op.total op Phase.Routing);
  check Alcotest.int "scope keeps wan" 6 (Op.wan_rtts op);
  (* A routed RPC: the server's cells, and the rest of the wait as routing. *)
  let server = Op.fork op in
  Op.add server Phase.Lock_wait 200;
  Op.add_wan server;
  clock := 2_800;
  Op.join_rpc op server;
  check Alcotest.int "server cells joined" 700 (Op.total op Phase.Lock_wait);
  check Alcotest.int "rest of the wait is routing" 550
    (Op.total op Phase.Routing);
  check Alcotest.int "rpc wan" 7 (Op.wan_rtts op);
  (* Nil discards everything. *)
  Op.add Op.nil Phase.Routing 999;
  Op.add_wan Op.nil;
  let n = Op.fork Op.nil in
  Op.add n Phase.Lock_wait 1;
  Op.join Op.nil n;
  Op.join_rpc Op.nil n;
  check Alcotest.int "nil discards" 0 (Op.total Op.nil Phase.Routing);
  check Alcotest.int "nil counts no wan" 0 (Op.wan_rtts Op.nil);
  check Alcotest.int "nil scope runs its body" 7
    (Op.scope Op.nil Phase.Refresh (fun _ -> 7));
  (* Flush: one sample per phase (zeros included), the WAN count, and
     end-to-end time minus the phase sum as unattributed. *)
  clock := 3_200;
  let m = Metrics.create () in
  Op.flush op (Phase.sink m ~cls:"op");
  Op.flush Op.nil (Phase.sink m ~cls:"nil");
  let hist name = Metrics.merged_hist m name in
  List.iter
    (fun p ->
      check Alcotest.int
        (Printf.sprintf "one sample for %s" (Phase.name p))
        1
        (Crdb_stats.Hist.count (hist ("phase.op." ^ Phase.name p))))
    Phase.all_phases;
  check Alcotest.int "commit_wait sample value" 900
    (Crdb_stats.Hist.max_value (hist "phase.op.commit_wait"));
  check Alcotest.int "wan hist sample" 7
    (Crdb_stats.Hist.max_value (hist "wan_rtts.op"));
  let sum =
    List.fold_left (fun acc p -> acc + Op.total op p) 0 Phase.all_phases
  in
  let unattributed = Crdb_stats.Hist.max_value (hist "phase.op.unattributed") in
  check Alcotest.int "unattributed is e2e minus the sum" (3_200 - sum)
    unattributed;
  check Alcotest.bool "unattributed is not negative" true (unattributed >= 0);
  check Alcotest.int "nil flushes nothing" 0
    (Crdb_stats.Hist.count (hist "wan_rtts.nil"))

(* ------------------------------------------------------------------ *)
(* End-to-end: workload feeds phases/timeseries/events; report is       *)
(* deterministic per seed                                               *)

let regions = Latency.table1_regions
let home = "us-east1"

let run_workload () =
  let cl, rids =
    Crdb.kv_cluster ~regions ~home ~survival:Zoneconfig.Zone
      ~ranges:[ (("a", "zzzz"), Cluster.Lag) ]
      ()
  in
  let rid = List.hd rids in
  let mgr = Txn.create_manager cl in
  let topo = Cluster.topology cl in
  let gw = Topology.gateway topo ~region:home () in
  let remote_gw = Topology.gateway topo ~region:"europe-west2" () in
  (* Traced, so the catalog test sees every span name the workload emits. *)
  Trace.enable (Obs.trace (Cluster.obs cl));
  Cluster.run cl (fun () ->
      for i = 0 to 3 do
        match
          Txn.run mgr ~gateway:gw (fun t ->
              Txn.put t (Printf.sprintf "k%d" i) (string_of_int i);
              ignore (Txn.get t "k0" : string option))
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "txn failed: %a" Txn.pp_error e
      done;
      (* One remote transaction so wan_rtts.txn has nonzero samples. *)
      (match
         Txn.run mgr ~gateway:remote_gw (fun t -> Txn.put t "k0" "remote")
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "remote txn failed: %a" Txn.pp_error e);
      (* A split + merge so the event log has lifecycle entries. *)
      ignore (Cluster.split_range cl rid ~at:"k2" : int option);
      Crdb_sim.Proc.sleep (Cluster.sim cl) 500_000;
      ignore (Cluster.merge_range cl rid : bool);
      Crdb_sim.Proc.sleep (Cluster.sim cl) 500_000);
  cl

let test_workload_phases () =
  let cl = run_workload () in
  let m = Obs.metrics (Cluster.obs cl) in
  (* Every committed txn flushed one sample per phase into phase.txn.*. *)
  let n =
    Crdb_stats.Hist.count (Metrics.merged_hist m "phase.txn.routing")
  in
  check Alcotest.int "one phase sample per txn" 5 n;
  List.iter
    (fun p ->
      check Alcotest.int
        (Printf.sprintf "phase counts agree (%s)" (Phase.name p))
        n
        (Crdb_stats.Hist.count
           (Metrics.merged_hist m ("phase.txn." ^ Phase.name p))))
    Phase.all_phases;
  (* Writes replicate, so the replication phase saw real time. *)
  check Alcotest.bool "replication phase nonzero" true
    (Crdb_stats.Hist.max_value (Metrics.merged_hist m "phase.txn.replication")
    > 0);
  (* The remote gateway txn paid WAN round trips; home txns paid none. *)
  let wan = Metrics.merged_hist m "wan_rtts.txn" in
  check Alcotest.int "wan samples" 5 (Crdb_stats.Hist.count wan);
  check Alcotest.int "local txns pay no WAN" 0 (Crdb_stats.Hist.min_value wan);
  check Alcotest.bool "remote txn pays WAN" true
    (Crdb_stats.Hist.max_value wan >= 1)

let test_workload_timeseries_and_events () =
  let cl = run_workload () in
  let obs = Cluster.obs cl in
  let ts = Obs.timeseries obs in
  check Alcotest.bool "qps series exists" true
    (List.mem Report.qps_series (Timeseries.names ts));
  check Alcotest.bool "write-bytes series exists" true
    (List.mem Report.write_bytes_series (Timeseries.names ts));
  check Alcotest.bool "latency series exists" true
    (List.mem Report.latency_series (Timeseries.names ts));
  let rngs = Timeseries.ranges_of ts Report.qps_series in
  check Alcotest.bool "per-range qps populated" true (rngs <> []);
  let total =
    List.fold_left
      (fun acc r -> acc +. Timeseries.window_count ts ~range:r Report.qps_series)
      0.0 rngs
  in
  check Alcotest.bool "qps window sees the workload's requests" true
    (total > 0.0);
  let ev = Obs.events obs in
  check Alcotest.bool "split logged" true (Events.count ev Events.Split >= 1);
  check Alcotest.bool "merge logged" true (Events.count ev Events.Merge >= 1);
  check Alcotest.bool "lease acquisitions logged" true
    (Events.count ev Events.Lease_acquired >= 1)

let test_report_deterministic () =
  let a = Cluster.obs (run_workload ()) in
  let b = Cluster.obs (run_workload ()) in
  let ra = Report.to_string a and rb = Report.to_string b in
  check Alcotest.bool "report nonempty" true (String.length ra > 0);
  check Alcotest.string "byte-identical report across identical seeds" ra rb;
  check Alcotest.string "byte-identical timeseries snapshot"
    (Timeseries.to_json (Obs.timeseries a))
    (Timeseries.to_json (Obs.timeseries b));
  check Alcotest.string "byte-identical event json"
    (Events.to_json (Obs.events a))
    (Events.to_json (Obs.events b));
  (* The report mentions every section and the workload's op class. *)
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "report has %s" needle) true
        (contains ~needle ra))
    [
      "Phase latency by op class";
      "WAN round trips";
      "Hottest ranges";
      "Cluster events";
      "txn:";
      "routing";
    ]

(* ------------------------------------------------------------------ *)
(* docs/METRICS.md catalog: every registry name must be documented      *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let metrics_md () =
  (* Under [dune runtest] the cwd is _build/default/test (the (deps) clause
     in test/dune stages the catalog next to it); under [dune exec] from the
     workspace root it is the root itself. *)
  let candidates = [ "../docs/METRICS.md"; "docs/METRICS.md" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> read_file path
  | None -> Alcotest.fail "docs/METRICS.md not found from the test's cwd"

(* Dynamic histogram families are documented as patterns, not instances. *)
let normalize name =
  let has_prefix p = String.length name >= String.length p
                     && String.sub name 0 (String.length p) = p in
  if has_prefix "phase." then "phase.<class>.<phase>"
  else if has_prefix "wan_rtts." then "wan_rtts.<class>"
  else name

let test_catalog_covers_registry () =
  let doc = metrics_md () in
  let cl = run_workload () in
  let m = Obs.metrics (Cluster.obs cl) in
  let missing =
    List.filter
      (fun name ->
        not (contains ~needle:(Printf.sprintf "`%s`" (normalize name)) doc))
      (Metrics.names m)
  in
  check
    Alcotest.(list string)
    "every registry name is documented in docs/METRICS.md" [] missing;
  (* Timeseries, phases and event kinds are part of the catalog too. *)
  let ts = Obs.timeseries (Cluster.obs cl) in
  List.iter
    (fun name ->
      check Alcotest.bool (Printf.sprintf "series %s documented" name) true
        (contains ~needle:(Printf.sprintf "`%s`" name) doc))
    (Timeseries.names ts);
  List.iter
    (fun p ->
      check Alcotest.bool
        (Printf.sprintf "phase %s documented" (Phase.name p))
        true
        (contains ~needle:(Printf.sprintf "`%s`" (Phase.name p)) doc))
    Phase.all_phases;
  List.iter
    (fun k ->
      check Alcotest.bool
        (Printf.sprintf "event kind %s documented" (Events.kind_to_string k))
        true
        (contains ~needle:(Printf.sprintf "`%s`" (Events.kind_to_string k)) doc))
    [
      Events.Split;
      Events.Merge;
      Events.Rebalance;
      Events.Lease_transfer;
      Events.Lease_acquired;
      Events.Wound;
      Events.Abandoned_cleanup;
      Events.Fault;
      Events.Heal;
      Events.Split_queued;
      Events.Merge_queued;
      Events.Lease_moved;
      Events.Queue_skipped;
      Events.Txn_staged;
      Events.Txn_recovered;
    ];
  (* Every span name in the workload's trace has a row in the spans table. *)
  let prefix = "{\"name\":\"" in
  let span_name line =
    if String.starts_with ~prefix line then
      let n = String.length prefix in
      Some (String.sub line n (String.index_from line n '"' - n))
    else None
  in
  let span_names =
    Trace.to_chrome_json (Obs.trace (Cluster.obs cl))
    |> String.split_on_char '\n'
    |> List.filter_map span_name
    |> List.sort_uniq String.compare
  in
  check Alcotest.bool "the workload traced spans" true (span_names <> []);
  check
    Alcotest.(list string)
    "every span name is documented in docs/METRICS.md" []
    (List.filter
       (fun name -> not (contains ~needle:(Printf.sprintf "`%s`" name) doc))
       span_names)

let suite =
  [
    Alcotest.test_case "timeseries: basic window" `Quick test_ts_basic_window;
    Alcotest.test_case "timeseries: fractional decay" `Quick
      test_ts_fractional_decay;
    Alcotest.test_case "timeseries: rollover recycles slots" `Quick
      test_ts_rollover_recycles_slots;
    Alcotest.test_case "timeseries: sparse samples" `Quick
      test_ts_sparse_samples;
    Alcotest.test_case "timeseries: percentile and scopes" `Quick
      test_ts_percentile_and_scopes;
    Alcotest.test_case "timeseries: deterministic snapshot" `Quick
      test_ts_snapshot_deterministic;
    Alcotest.test_case "events: log, timeline, json" `Quick test_events_log;
    Alcotest.test_case "phase: ctx accumulate/flush/reset" `Quick
      test_phase_ctx;
    Alcotest.test_case "workload: phase histograms" `Quick
      test_workload_phases;
    Alcotest.test_case "workload: timeseries + events" `Quick
      test_workload_timeseries_and_events;
    Alcotest.test_case "report: byte-identical per seed" `Quick
      test_report_deterministic;
    Alcotest.test_case "docs/METRICS.md covers the registry" `Quick
      test_catalog_covers_registry;
  ]
