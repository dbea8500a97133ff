(* Determinism golden test: a small fixed-seed scenario that drives every
   KV request path once — leaseholder read, write and scan, the 1PC blind
   put, intent resolution, span refresh, follower read and scan on a GLOBAL
   range, bounded-staleness negotiation, a locking read, a wound-wait
   conflict and a split — and pins the MD5 of the metrics registry and the
   Chrome trace export. A change that alters simulated behaviour on purpose
   must update the pin on purpose; a refactor must leave it unchanged. *)

module Proc = Crdb_sim.Proc
module Topology = Crdb_net.Topology
module Ts = Crdb_hlc.Timestamp
module Zoneconfig = Crdb_kv.Zoneconfig
module Cluster = Crdb_kv.Cluster
module Txn = Crdb_txn.Txn
module Obs = Crdb_obs.Obs
module Trace = Crdb_obs.Trace
module Metrics = Crdb_obs.Metrics
module Events = Crdb_obs.Events
module Crdb = Crdb_core.Crdb

let check = Alcotest.check
let regions = [ "us-east1"; "us-west1"; "europe-west2" ]
let home = "us-east1"

let expect_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "txn failed: %a" Txn.pp_error e

let node_in cl region i =
  Topology.gateway (Cluster.topology cl) ~region ~index:i ()

(* The MD5 of the metrics registry and the Chrome trace export. *)
let digest obs =
  Digest.to_hex
    (Digest.string
       (Metrics.to_json (Obs.metrics obs)
       ^ Trace.to_chrome_json (Obs.trace obs)))

let scenario ?(opts = Txn.Options.default) () =
  let cl, rids =
    Crdb.kv_cluster
      ~config:{ Cluster.default with seed = 1414 }
      ~regions ~home ~survival:Zoneconfig.Zone
      ~ranges:
        [ (("a", "m"), Cluster.Lag 3_000_000); (("m", "zzzz"), Cluster.Lead) ]
      ()
  in
  let local = List.hd rids and global = List.nth rids 1 in
  Trace.enable (Obs.trace (Cluster.obs cl));
  let mgr = Txn.create_manager cl in
  Txn.set_options mgr opts;
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let remote = node_in cl "europe-west2" 1 in
  Cluster.run cl (fun () ->
      (* Leaseholder write, read and scan; commit resolves the intents. *)
      expect_ok
        (Txn.run mgr ~gateway:gw (fun t ->
             Txn.put t "b" "1";
             Txn.put t "d" "2";
             ignore (Txn.get t "b" : string option);
             ignore (Txn.scan t ~start_key:"a" ~end_key:"m" () : _ list)));
      expect_ok (Txn.run_blind_put mgr ~gateway:gw "f" "3");
      (* A locking read. *)
      expect_ok
        (Txn.run mgr ~gateway:gw (fun t ->
             ignore (Txn.get_for_update t "b" : string option);
             Txn.put t "b" "4"));
      (* A future-time write on the GLOBAL range, then local reads of it from
         a remote region once the write's timestamp is closed. *)
      expect_ok (Txn.run mgr ~gateway:gw (fun t -> Txn.put t "n" "g"));
      Proc.sleep sim (Cluster.closed_lead_duration cl global + 200_000);
      let ts = Cluster.now_ts cl remote in
      ignore
        (Cluster.read_follower cl ~at:remote ~txn:None ~key:"n" ~ts ~max_ts:ts
           ()
          : Cluster.read_result);
      ignore
        (Cluster.scan_follower cl ~at:remote ~txn:None ~start_key:"m"
           ~end_key:"zzzz" ~ts ~max_ts:ts ~limit:None ()
          : Cluster.scan_result);
      expect_ok
        (Txn.run mgr ~gateway:remote (fun t ->
             ignore (Txn.get t "n" : string option);
             ignore (Txn.scan t ~start_key:"m" ~end_key:"zzzz" () : _ list)));
      Txn.run_stale_bounded mgr ~gateway:remote ~max_staleness:10_000_000
        ~keys:[ "b"; "n" ] (fun ro ->
          ignore (Txn.ro_get ro "b" : string option));
      (* Span refresh over the local range. *)
      let now = Cluster.now_ts cl gw in
      ignore
        (Cluster.refresh_span cl ~gateway:gw ~txn:999 ~start_key:"a"
           ~end_key:"m" ~from_ts:(Ts.of_wall 1) ~to_ts:now ()
          : bool);
      (* Split, then a scan stitched across both halves. *)
      ignore (Cluster.split_range cl local ~at:"c" : Cluster.range_id option);
      expect_ok
        (Txn.run mgr ~gateway:gw (fun t ->
             ignore (Txn.scan t ~start_key:"a" ~end_key:"m" () : _ list)));
      (* Opposite-order writers: wound-wait breaks the cycle. *)
      let body first second name t =
        Txn.put t first (name ^ "1");
        Proc.sleep sim 300_000;
        Txn.put t second (name ^ "2")
      in
      let a =
        Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "g" "h" "x"))
      in
      let b =
        Proc.async sim (fun () -> Txn.run mgr ~gateway:gw (body "h" "g" "y"))
      in
      List.iter (fun r -> expect_ok (Proc.await r)) [ a; b ]);
  let obs = Cluster.obs cl in
  let total name = Metrics.total (Obs.metrics obs) name in
  check Alcotest.bool "the conflict wounded" true
    (Events.count (Obs.events obs) Events.Wound > 0);
  check Alcotest.bool "a follower read hit" true
    (total "kv.follower_read_hits" > 0);
  check Alcotest.int "split happened" 3 (List.length (Cluster.ranges cl));
  digest obs

let test_golden_digest () =
  check Alcotest.string "metrics + trace digest"
    "f07b2f32ea10dbfd3eca6f5ece5da4f5" (scenario ())

(* The same scenario on the two commit paths the default options skip:
   sequential commits with and without write pipelining. *)
let test_sequential_digest () =
  check Alcotest.string "metrics + trace digest"
    "0baed1d9793122f7a79810eaa898b3f5"
    (scenario
       ~opts:{ Txn.Options.pipelined_writes = false; parallel_commits = false }
       ())

let test_pipelined_digest () =
  check Alcotest.string "metrics + trace digest"
    "4f8faf52988216f3e5ba41ec6c68b718"
    (scenario
       ~opts:{ Txn.Options.pipelined_writes = true; parallel_commits = false }
       ())

(* A transaction that outlives three heartbeat intervals while a younger
   pusher waits on its intent: the record must stay live through its
   heartbeats (no abandonment), the pusher must wait rather than wound, and
   both must commit. Pins the heartbeat loop's messages and timing. *)
let heartbeat_scenario () =
  let cl, _ =
    Crdb.kv_cluster
      ~config:{ Cluster.default with seed = 1717 }
      ~regions ~home ~survival:Zoneconfig.Zone
      ~ranges:[ (("a", "zzzz"), Cluster.Lag 3_000_000) ]
      ()
  in
  Trace.enable (Obs.trace (Cluster.obs cl));
  let mgr = Txn.create_manager cl in
  let sim = Cluster.sim cl in
  let gw = node_in cl home 0 in
  let interval = Cluster.txn_heartbeat_interval in
  let attempts = ref [] in
  let on_attempt name _ _ = attempts := name :: !attempts in
  Cluster.run cl (fun () ->
      let old =
        Proc.async sim (fun () ->
            Txn.run mgr ~gateway:gw ~on_attempt:(on_attempt "old") (fun t ->
                Txn.put t "k" "old";
                Proc.sleep sim ((3 * interval) + (interval / 2));
                Txn.put t "l" "old"))
      in
      Proc.sleep sim 100_000;
      let young =
        Proc.async sim (fun () ->
            Txn.run mgr ~gateway:gw ~on_attempt:(on_attempt "young") (fun t ->
                Txn.put t "k" "young"))
      in
      List.iter (fun r -> expect_ok (Proc.await r)) [ old; young ]);
  let obs = Cluster.obs cl in
  let total name = Metrics.total (Obs.metrics obs) name in
  check Alcotest.(list string) "one attempt each" [ "young"; "old" ] !attempts;
  check Alcotest.bool "the pusher pushed" true (total "kv.txn_pushes" > 0);
  check Alcotest.int "nobody wounded" 0
    (Events.count (Obs.events obs) Events.Wound);
  digest obs

let test_heartbeat_digest () =
  check Alcotest.string "metrics + trace digest"
    "f16120dac51842cb70050ca1ffe189c7" (heartbeat_scenario ())

let suite =
  [
    Alcotest.test_case "request paths digest pinned" `Quick test_golden_digest;
    Alcotest.test_case "sequential commit digest pinned" `Quick
      test_sequential_digest;
    Alcotest.test_case "pipelined commit digest pinned" `Quick
      test_pipelined_digest;
    Alcotest.test_case "long transaction heartbeat digest pinned" `Quick
      test_heartbeat_digest;
  ]
