(* Tests for the workload generators and drivers: YCSB, TPC-C, movr. *)

module Crdb = Crdb_core.Crdb
module Value = Crdb.Value
module Schema = Crdb.Schema
module Ddl = Crdb.Ddl
module Engine = Crdb.Engine
module Hist = Crdb_stats.Hist
module Ycsb = Crdb_workload.Ycsb
module Tpcc = Crdb_workload.Tpcc
module Movr = Crdb_workload.Movr
module Sim = Crdb_sim.Sim

let check = Alcotest.check
let regions3 = [ "us-east1"; "us-west1"; "europe-west2" ]

let ycsb_cluster variant = Ycsb.setup ~regions:regions3 variant ~keyspace:300

let test_ycsb_load_homes_keys () =
  let _t, db = ycsb_cluster Ycsb.Rbr_default in
  check Alcotest.int "all keys loaded" 300 (Engine.row_count db Ycsb.table_name);
  (* Key i is homed in region (i mod 3). *)
  List.iteri
    (fun i region ->
      check
        Alcotest.(option string)
        (Printf.sprintf "key %d home" i)
        (Some region)
        (Engine.region_of_row db ~table:Ycsb.table_name [ Ycsb.key_of i ]))
    regions3

let test_ycsb_run_a () =
  let t, db = ycsb_cluster Ycsb.Rbr_default in
  let r =
    Ycsb.run t db ~clients_per_region:3 ~ops_per_client:30 ~workload:Ycsb.A
      ~keyspace:300 ()
  in
  check Alcotest.int "all ops accounted" 270 r.Ycsb.ops;
  check Alcotest.int "no errors" 0 r.Ycsb.errors;
  (* 100% locality: everything local and fast. *)
  check Alcotest.int "no remote reads" 0 (Hist.count r.Ycsb.read_remote);
  check Alcotest.bool "reads sampled" true (Hist.count r.Ycsb.read_local > 50);
  check Alcotest.bool "local reads fast" true
    (Hist.percentile r.Ycsb.read_local 50.0 < 3_000);
  check Alcotest.bool "local writes fast" true
    (Hist.percentile r.Ycsb.write_local 50.0 < 10_000)

let test_ycsb_run_d_inserts () =
  let t, db = ycsb_cluster Ycsb.Rbr_computed in
  let before = Engine.row_count db Ycsb.table_name in
  let r =
    Ycsb.run t db ~clients_per_region:3 ~ops_per_client:40 ~workload:Ycsb.D
      ~keyspace:300 ()
  in
  let inserted = Engine.row_count db Ycsb.table_name - before in
  check Alcotest.bool "inserted rows" true (inserted > 0);
  check Alcotest.int "insert count matches writes" inserted
    (Hist.count r.Ycsb.write_local + Hist.count r.Ycsb.write_remote);
  (* Computed-region inserts skip the uniqueness fan-out: local latency. *)
  check Alcotest.bool "computed inserts local" true
    (Hist.percentile r.Ycsb.write_local 90.0 < 10_000)

let test_ycsb_locality_split () =
  let t, db = ycsb_cluster Ycsb.Rbr_default in
  let r =
    Ycsb.run t db ~clients_per_region:3 ~ops_per_client:40
      ~distribution:`Uniform ~locality:0.5 ~workload:Ycsb.B ~keyspace:300 ()
  in
  let local = Hist.count r.Ycsb.read_local + Hist.count r.Ycsb.write_local in
  let remote = Hist.count r.Ycsb.read_remote + Hist.count r.Ycsb.write_remote in
  (* Roughly half the traffic should be remote draws. *)
  check Alcotest.bool
    (Printf.sprintf "50%% locality split (%d local / %d remote)" local remote)
    true
    (float_of_int remote /. float_of_int (local + remote) > 0.35
    && float_of_int remote /. float_of_int (local + remote) < 0.65);
  (* Remote consistent reads pay a WAN round trip; local ones do not. *)
  check Alcotest.bool "remote reads slower" true
    (Hist.percentile r.Ycsb.read_remote 50.0
    > 10 * Hist.percentile r.Ycsb.read_local 50.0)

let test_ycsb_hot_shift_determinism () =
  (* The moving hot spot is a pure function of simulated time, so two runs
     with the same seed are indistinguishable — and the workload still
     completes cleanly while the hot set drifts. *)
  let run_once () =
    let t, db = ycsb_cluster Ycsb.Rbr_default in
    let r =
      Ycsb.run t db ~clients_per_region:3 ~ops_per_client:30
        ~hot_shift_every:2_000_000 ~workload:Ycsb.A ~keyspace:300 ()
    in
    ( r.Ycsb.ops,
      r.Ycsb.errors,
      r.Ycsb.elapsed,
      Hist.count (Ycsb.reads r),
      Hist.percentile (Ycsb.reads r) 50.0,
      Hist.count (Ycsb.writes r),
      Hist.percentile (Ycsb.writes r) 99.0 )
  in
  let ((ops, errors, _, _, _, _, _) as a) = run_once () in
  let b = run_once () in
  check Alcotest.int "all ops accounted" 270 ops;
  check Alcotest.int "no errors while the hot set drifts" 0 errors;
  check Alcotest.bool "identical results across same-seed runs" true (a = b)

(* Runs [f] while sampling the event-queue depth every 10 ms of simulated
   time and returns [f]'s result with the deepest sample. The probe only
   reads [Sim.pending], and the depth is a function of the seed, so a bound
   on it cannot flake. *)
let peak_pending t f =
  let sim = Crdb.Cluster.sim (Crdb.cluster t) in
  let deepest = ref 0 and active = ref true in
  let rec probe () =
    if !active then begin
      deepest := max !deepest (Sim.pending sim);
      Sim.schedule sim ~after:10_000 probe
    end
  in
  Sim.schedule sim ~after:10_000 probe;
  let r = f () in
  active := false;
  (r, !deepest)

(* The event queue holds only events that will fire: cancelled timers and
   answered RPC timeouts leave it at once. The maximum is 387; when
   cancelled timers and answered timeouts stayed queued until their
   deadline, it was 5,622. *)
let test_queue_holds_live_events () =
  let t, db = ycsb_cluster Ycsb.Rbr_default in
  let r, deepest =
    peak_pending t (fun () ->
        Ycsb.run t db ~clients_per_region:3 ~ops_per_client:30
          ~workload:Ycsb.A ~keyspace:300 ())
  in
  check Alcotest.int "all ops accounted" 270 r.Ycsb.ops;
  check Alcotest.bool
    (Printf.sprintf "queue depth %d under 1,000" deepest)
    true (deepest < 1_000)

(* A finished transaction leaves nothing queued for its heartbeat: on a
   read-mostly run of short transactions the queue holds the clients' live
   work, not one parked heartbeat per transaction begun in the last
   heartbeat interval. The maximum is 124; when every attempt parked a
   1 s heartbeat sleep, it was 959. *)
let test_queue_holds_no_finished_heartbeats () =
  let t, db = ycsb_cluster Ycsb.Rbr_default in
  let r, deepest =
    peak_pending t (fun () ->
        Ycsb.run t db ~clients_per_region:3 ~ops_per_client:100
          ~distribution:`Uniform ~workload:Ycsb.B ~keyspace:300 ())
  in
  check Alcotest.int "all ops accounted" 900 r.Ycsb.ops;
  check Alcotest.bool
    (Printf.sprintf "queue depth %d under 300" deepest)
    true (deepest < 300)

let test_tpcc_smoke () =
  let t, db =
    Tpcc.setup ~regions:regions3 ~warehouses_per_region:1
      ~districts_per_warehouse:3 ~customers_per_district:5 ~items:30 ()
  in
  check Alcotest.int "items" 30 (Engine.row_count db "item");
  check Alcotest.int "warehouses" 3 (Engine.row_count db "warehouse");
  check Alcotest.int "stock" (3 * 30) (Engine.row_count db "stock");
  let r =
    Tpcc.run t db ~warehouses_per_region:1 ~terminals_per_warehouse:4
      ~duration:20_000_000 ~districts_per_warehouse:3 ~customers_per_district:5
      ~items:30 ()
  in
  check Alcotest.int "no errors" 0 r.Tpcc.errors;
  check Alcotest.bool "new orders committed" true (r.Tpcc.committed_new_orders > 10);
  check Alcotest.bool "efficiency high" true (Tpcc.efficiency r ~warehouses:3 > 0.9);
  (* Orders actually landed: order lines exist and districts advanced. *)
  check Alcotest.bool "order lines written" true (Engine.row_count db "orderline" > 20);
  check Alcotest.bool "orders written" true
    (Engine.row_count db "orders" >= r.Tpcc.committed_new_orders)

let test_tpcc_items_global () =
  let regions = regions3 in
  let t = Crdb.start ~regions () in
  Crdb.exec_all t (Tpcc.ddl ~db:"tpcc" ~regions ~warehouses_per_region:1);
  let db = Crdb.database t "tpcc" in
  let schema = Engine.table_schema db "item" in
  check Alcotest.bool "item is GLOBAL" true
    (schema.Schema.tbl_locality = Schema.Global);
  List.iter
    (fun name ->
      let s = Engine.table_schema db name in
      check Alcotest.bool (name ^ " is RBR") true
        (s.Schema.tbl_locality = Schema.Regional_by_row))
    [ "warehouse"; "district"; "customer"; "orders"; "orderline"; "stock" ]

let test_tpcc_warehouse_regions () =
  let _, db =
    Tpcc.setup ~regions:regions3 ~warehouses_per_region:2
      ~districts_per_warehouse:2 ~customers_per_district:2 ~items:10 ()
  in
  (* Warehouses 0-1 in region 0, 2-3 in region 1, 4-5 in region 2. *)
  check Alcotest.(option string) "wh0" (Some "us-east1")
    (Engine.region_of_row db ~table:"warehouse" [ Value.V_int 0 ]);
  check Alcotest.(option string) "wh3" (Some "us-west1")
    (Engine.region_of_row db ~table:"warehouse" [ Value.V_int 3 ]);
  check Alcotest.(option string) "wh5" (Some "europe-west2")
    (Engine.region_of_row db ~table:"warehouse" [ Value.V_int 5 ])

let test_movr_schema_and_load () =
  let t = Crdb.start ~regions:regions3 () in
  Crdb.exec_all t (Movr.ddl ~db:"movr" ~regions:regions3 Movr.New_schema);
  let db = Crdb.database t "movr" in
  check Alcotest.int "6 tables" 6 (List.length (Engine.table_names db));
  Movr.load t db ~users_per_city:5 ~vehicles_per_city:2;
  check Alcotest.int "users loaded" 45 (Engine.row_count db "users");
  check Alcotest.int "promos loaded" 10 (Engine.row_count db "promo_codes");
  (* Users of amsterdam live in europe. *)
  let gw = Crdb.gateway t ~region:"europe-west2" () in
  Crdb.run t (fun () ->
      match
        Engine.select_by_unique db ~gateway:gw ~table:"users" ~col:"email"
          (Value.V_string "user6.0@movr.com")
      with
      | Ok (Some row) ->
          check Alcotest.bool "city is amsterdam" true
            (List.assoc "city" row = Value.V_string "amsterdam")
      | Ok None -> Alcotest.fail "user not found"
      | Error e -> Alcotest.failf "lookup failed: %a" Engine.pp_exec_error e)

let test_table2_statement_counts () =
  (* The headline Table 2 "after" numbers reproduce exactly. *)
  check Alcotest.int "movr new schema = 12" 12
    (Ddl.count (Movr.ddl ~db:"movr" ~regions:regions3 Movr.New_schema));
  check Alcotest.int "movr convert = 14" 14
    (Ddl.count (Movr.ddl ~db:"movr" ~regions:regions3 Movr.Convert_schema));
  check Alcotest.int "movr add region = 1" 1
    (Ddl.count (Movr.ddl ~db:"movr" ~regions:regions3 (Movr.Add_region "x")));
  check Alcotest.int "tpcc new schema = 18" 18
    (Ddl.count (Tpcc.ddl ~db:"tpcc" ~regions:regions3 ~warehouses_per_region:10));
  check Alcotest.int "ycsb new table = 1" 1
    (Ddl.count (Ycsb.ddl Ycsb.Rbr_default ~db:"ycsb" ~regions:regions3));
  (* Legacy recipes are several times larger. *)
  check Alcotest.bool "legacy movr larger" true
    (Ddl.count (Movr.legacy_ddl ~db:"movr" ~regions:regions3 Movr.New_schema) > 24)

let test_movr_executable_ddl () =
  (* The full movr conversion flow executes: single-region schema, then the
     2-statement region addition plus localities. *)
  let t = Crdb.start ~regions:regions3 () in
  Crdb.exec t
    (Ddl.N_create_database { db = "movr"; primary = "us-east1"; regions = [] });
  (* Single-region tables first (all default locality). *)
  List.iter
    (fun (table : Schema.table) ->
      Crdb.exec t
        (Ddl.N_create_table
           {
             db = "movr";
             table =
               { table with Schema.tbl_locality = Schema.Regional_by_table None };
           }))
    (Movr.tables ~regions:regions3);
  let db = Crdb.database t "movr" in
  Movr.load t db ~users_per_city:3 ~vehicles_per_city:1;
  let rows_before = Engine.row_count db "users" in
  (* Convert to multi-region. *)
  Crdb.exec_all t (Movr.ddl ~db:"movr" ~regions:regions3 Movr.Convert_schema);
  check Alcotest.(list string) "regions added" regions3 (Engine.regions db);
  check Alcotest.int "rows survive conversion" rows_before
    (Engine.row_count db "users");
  check Alcotest.int "users now partitioned" 3
    (List.length (Engine.partition_ranges db "users"))

let suite =
  [
    Alcotest.test_case "ycsb load homes keys" `Quick test_ycsb_load_homes_keys;
    Alcotest.test_case "ycsb workload A" `Quick test_ycsb_run_a;
    Alcotest.test_case "ycsb workload D inserts" `Quick test_ycsb_run_d_inserts;
    Alcotest.test_case "ycsb locality split" `Quick test_ycsb_locality_split;
    Alcotest.test_case "ycsb hot shift determinism" `Quick
      test_ycsb_hot_shift_determinism;
    Alcotest.test_case "event queue holds live events only" `Quick
      test_queue_holds_live_events;
    Alcotest.test_case "finished transactions leave no heartbeat queued" `Quick
      test_queue_holds_no_finished_heartbeats;
    Alcotest.test_case "tpcc smoke" `Quick test_tpcc_smoke;
    Alcotest.test_case "tpcc items global" `Quick test_tpcc_items_global;
    Alcotest.test_case "tpcc warehouse regions" `Quick test_tpcc_warehouse_regions;
    Alcotest.test_case "movr schema and load" `Quick test_movr_schema_and_load;
    Alcotest.test_case "table2 statement counts" `Quick test_table2_statement_counts;
    Alcotest.test_case "movr executable conversion" `Quick test_movr_executable_ddl;
  ]
