(* Tests for the SQL layer: values, DDL, localities, uniqueness checks,
   locality-optimized search, rehoming, region management, placement,
   duplicate indexes, legacy statement counting. *)

module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Crdb = Crdb_core.Crdb
module Value = Crdb.Value
module Schema = Crdb.Schema
module Ddl = Crdb.Ddl
module Legacy = Crdb.Legacy
module Engine = Crdb.Engine
module Cluster = Crdb.Cluster
module Zoneconfig = Crdb.Zoneconfig
module Raft = Crdb_raft.Raft

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let regions3 = [ "us-east1"; "us-west1"; "europe-west2" ]

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.V_null;
        map (fun i -> Value.V_int i) int;
        map (fun s -> Value.V_string s) (small_string ~gen:printable);
        map (fun s -> Value.V_region s) (small_string ~gen:(char_range 'a' 'z'));
      ])

let value_arb = QCheck.make ~print:Value.to_display value_gen

let prop_row_roundtrip =
  QCheck.Test.make ~name:"row encode/decode roundtrip" ~count:300
    (QCheck.list value_arb)
    (fun vs -> Value.decode_row (Value.encode_row vs) = vs)

let prop_int_key_order =
  QCheck.Test.make ~name:"int key encoding preserves order" ~count:300
    QCheck.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))
    (fun (a, b) ->
      let ka = Value.encode_key_part (Value.V_int a)
      and kb = Value.encode_key_part (Value.V_int b) in
      Int.compare a b = String.compare ka kb
      || (a = b && String.equal ka kb))

let prop_string_key_no_separator =
  QCheck.Test.make ~name:"string key encoding never contains '/'" ~count:300
    QCheck.(string_gen QCheck.Gen.(char_range ' ' '~'))
    (fun s ->
      not (String.contains (Value.encode_key_part (Value.V_string s)) '/'))

(* Row keys are built without [Printf]: the same bytes as the [sprintf]
   encoding they replaced, regions holding '/' and integer key parts
   included. *)
let prop_row_key_bytes =
  let region =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'z'; '-'; '/'; '_'; '1' ]) (int_bound 12))
  in
  QCheck.Test.make ~name:"row keys match the sprintf encoding" ~count:300
    QCheck.(
      quad (int_range (-20) 100_000) (int_range (-5) 2_000)
        (option (make ~print:Fun.id region))
        (list value_arb))
    (fun (table_id, index_no, partition, values) ->
      let escape r =
        String.concat ""
          (List.map
             (fun c -> match c with '/' -> "_" | c -> String.make 1 c)
             (List.init (String.length r) (String.get r)))
      in
      let prefix =
        Printf.sprintf "/t%04d/i%03d/p%s" table_id index_no
          (match partition with None -> "_" | Some r -> escape r)
      in
      let part = function
        | Value.V_int i -> Printf.sprintf "i%019d" (i + 1_000_000_000_000_000_000)
        | v -> Value.encode_key_part v
      in
      let old = List.fold_left (fun acc v -> acc ^ "/" ^ part v) prefix values in
      Crdb_sql.Keycodec.row_key ~table_id ~index_no ~partition values = old)

(* ------------------------------------------------------------------ *)
(* Schema fixtures                                                     *)

let users_table =
  Schema.table ~name:"users"
    ~columns:
      [
        Schema.column "id" Schema.T_string;
        Schema.column "email" Schema.T_string;
        Schema.column "name" Schema.T_string;
      ]
    ~pkey:[ "id" ]
    ~indexes:[ { Schema.idx_name = "users_email"; idx_cols = [ "email" ]; idx_unique = true } ]
    ~locality:Schema.Regional_by_row ()

let promo_table =
  Schema.table ~name:"promo_codes"
    ~columns:
      [ Schema.column "code" Schema.T_string; Schema.column "descr" Schema.T_string ]
    ~pkey:[ "code" ] ~locality:Schema.Global ()

let fresh ?(regions = regions3) () =
  let t = Crdb.start ~regions () in
  Crdb.exec t
    (Ddl.N_create_database
       { db = "testdb"; primary = List.hd regions; regions = List.tl regions });
  t

let with_users ?regions () =
  let t = fresh ?regions () in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = users_table });
  (t, Crdb.database t "testdb")

let svec v = Value.V_string v

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "sql failed: %a" Engine.pp_exec_error e

let expect_aborted what = function
  | Error (Crdb.Txn.Aborted _) -> ()
  | Ok _ -> Alcotest.failf "%s: expected abort, got success" what
  | Error e -> Alcotest.failf "%s: expected abort, got %a" what Engine.pp_exec_error e

(* ------------------------------------------------------------------ *)
(* DDL and physical layout                                             *)

let test_create_database_layout () =
  let t, db = with_users () in
  check Alcotest.(list string) "regions" regions3 (Engine.regions db);
  check Alcotest.string "primary" "us-east1" (Engine.primary_region db);
  (* users is REGIONAL BY ROW: primary + unique secondary, 3 partitions
     each. *)
  let parts = Engine.partition_ranges db "users" in
  check Alcotest.int "3 primary partitions" 3 (List.length parts);
  check Alcotest.int "ranges: 2 indexes x 3 partitions" 6
    (List.length (Engine.ranges_of_table db "users"));
  List.iter
    (fun (partition, rid) ->
      match partition with
      | Some region ->
          check Alcotest.(option string) "leaseholder in partition region"
            (Some region)
            (Cluster.leaseholder_region (Crdb.cluster t) rid)
      | None -> Alcotest.fail "RBR partition must have a region")
    parts;
  (* crdb_region column auto-added, hidden. *)
  let schema = Engine.table_schema db "users" in
  match Schema.find_column schema Schema.region_column with
  | Some c -> check Alcotest.bool "hidden" true c.Schema.col_hidden
  | None -> Alcotest.fail "crdb_region not added"

let test_global_table_layout () =
  let t = fresh () in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = promo_table });
  let db = Crdb.database t "testdb" in
  let ranges = Engine.ranges_of_table db "promo_codes" in
  check Alcotest.int "single range" 1 (List.length ranges);
  let rid = List.hd ranges in
  (match Cluster.policy_of (Crdb.cluster t) rid with
  | Cluster.Lead -> ()
  | Cluster.Lag -> Alcotest.fail "GLOBAL tables must close future timestamps");
  check Alcotest.(option string) "leaseholder in primary" (Some "us-east1")
    (Cluster.leaseholder_region (Crdb.cluster t) rid)

let test_regional_by_table_in_region () =
  let t = fresh () in
  let west_table =
    Schema.table ~name:"west_coast"
      ~columns:[ Schema.column "id" Schema.T_int ]
      ~pkey:[ "id" ]
      ~locality:(Schema.Regional_by_table (Some "us-west1"))
      ()
  in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = west_table });
  let db = Crdb.database t "testdb" in
  let rid = List.hd (Engine.ranges_of_table db "west_coast") in
  check Alcotest.(option string) "homed in us-west1" (Some "us-west1")
    (Cluster.leaseholder_region (Crdb.cluster t) rid)

let test_ddl_errors () =
  let t = fresh () in
  (try
     Crdb.exec t
       (Ddl.N_create_database
          { db = "bad"; primary = "mars-north1"; regions = [] });
     Alcotest.fail "unknown region accepted"
   with Engine.Sql_error _ -> ());
  (try
     Crdb.exec t (Ddl.N_drop_region { db = "testdb"; region = "us-east1" });
     Alcotest.fail "dropped primary region"
   with Engine.Sql_error _ -> ());
  try
    Crdb.exec t
      (Ddl.N_placement { db = "testdb"; restricted = true });
    Crdb.exec t (Ddl.N_survive { db = "testdb"; survival = Zoneconfig.Region });
    Alcotest.fail "restricted + region survival accepted"
  with Engine.Sql_error _ -> ()

let test_survive_region_changes_zones () =
  let t, db = with_users () in
  Crdb.exec t (Ddl.N_survive { db = "testdb"; survival = Zoneconfig.Region });
  check Alcotest.bool "survival recorded" true
    (Engine.survival db = Zoneconfig.Region);
  Crdb.run_for t 3_000_000;
  List.iter
    (fun rid ->
      let zone = Cluster.zone_of (Crdb.cluster t) rid in
      check Alcotest.int "5 voters everywhere" 5 zone.Zoneconfig.num_voters)
    (Engine.ranges_of_table db "users")

(* ------------------------------------------------------------------ *)
(* DML: inserts, reads, automatic partitioning                         *)

let user ?(email_suffix = "@x.io") id =
  [
    ("id", svec id);
    ("email", svec (id ^ email_suffix));
    ("name", svec ("name-" ^ id));
  ]

let test_insert_automatic_region () =
  let t, db = with_users () in
  let west = Crdb.gateway t ~region:"us-west1" () in
  Crdb.run t (fun () -> ok (Engine.insert db ~gateway:west ~table:"users" (user "u1")));
  check
    Alcotest.(option string)
    "row homed where inserted" (Some "us-west1")
    (Engine.region_of_row db ~table:"users" [ svec "u1" ]);
  (* Visible from any region. *)
  let eu = Crdb.gateway t ~region:"europe-west2" () in
  Crdb.run t (fun () ->
      match ok (Engine.select_by_pk db ~gateway:eu ~table:"users" [ svec "u1" ]) with
      | Some row ->
          check Alcotest.bool "name present" true
            (List.assoc "name" row = svec "name-u1")
      | None -> Alcotest.fail "row not found across regions")

let test_global_unique_email () =
  let t, db = with_users () in
  let west = Crdb.gateway t ~region:"us-west1" () in
  let east = Crdb.gateway t ~region:"us-east1" () in
  Crdb.run t (fun () ->
      ok (Engine.insert db ~gateway:west ~table:"users" (user "u1"));
      (* Same email, different id and different region: must be rejected by
         the global uniqueness check despite living in another partition. *)
      expect_aborted "duplicate email"
        (Engine.insert db ~gateway:east ~table:"users"
           [ ("id", svec "u2"); ("email", svec "u1@x.io"); ("name", svec "n") ]);
      (* Duplicate id likewise. *)
      expect_aborted "duplicate id"
        (Engine.insert db ~gateway:east ~table:"users" (user ~email_suffix:"@y.io" "u1"));
      ok (Engine.insert db ~gateway:east ~table:"users" (user "u3")))

let test_select_by_unique_los () =
  let t, db = with_users () in
  let sim = Cluster.sim (Crdb.cluster t) in
  let west = Crdb.gateway t ~region:"us-west1" () in
  Crdb.run t (fun () ->
      ok (Engine.insert db ~gateway:west ~table:"users" (user "local1"));
      (* Local hit: LOS avoids the fan-out entirely. *)
      let t0 = Sim.now sim in
      (match
         ok (Engine.select_by_unique db ~gateway:west ~table:"users" ~col:"email"
               (svec "local1@x.io"))
       with
      | Some _ -> ()
      | None -> Alcotest.fail "unique lookup missed");
      let local_latency = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "local unique lookup fast (%dus)" local_latency)
        true (local_latency < 10_000))

let test_los_vs_unoptimized () =
  let t, db = with_users () in
  let sim = Cluster.sim (Crdb.cluster t) in
  let west = Crdb.gateway t ~region:"us-west1" () in
  let east = Crdb.gateway t ~region:"us-east1" () in
  Crdb.run t (fun () ->
      ok (Engine.insert db ~gateway:west ~table:"users" (user "w1"));
      (* LOS on: local read of a local row never leaves the region. *)
      let t0 = Sim.now sim in
      ignore (ok (Engine.select_by_pk db ~gateway:west ~table:"users" [ svec "w1" ]));
      let with_los = Sim.now sim - t0 in
      (* LOS off: every lookup fans out to all partitions and waits for the
         slowest, like the paper's Unoptimized variant. *)
      Engine.set_locality_optimized_search db false;
      let t1 = Sim.now sim in
      ignore (ok (Engine.select_by_pk db ~gateway:west ~table:"users" [ svec "w1" ]));
      let without_los = Sim.now sim - t1 in
      Engine.set_locality_optimized_search db true;
      check Alcotest.bool
        (Printf.sprintf "LOS local (%dus) vs unoptimized (%dus)" with_los without_los)
        true
        (with_los < 10_000 && without_los > 100_000);
      (* Remote row with LOS: local miss, then fan-out. *)
      let t2 = Sim.now sim in
      ignore (ok (Engine.select_by_pk db ~gateway:east ~table:"users" [ svec "w1" ]));
      let remote = Sim.now sim - t2 in
      check Alcotest.bool
        (Printf.sprintf "LOS remote row ~RTT (%dus)" remote)
        true
        (remote > 50_000 && remote < 200_000))

let test_computed_region_single_partition_check () =
  let t = fresh () in
  let computed =
    Schema.table ~name:"orders"
      ~columns:
        [
          Schema.column "state" Schema.T_string;
          Schema.column "oid" Schema.T_string;
          Schema.column ~default:
            (Schema.D_computed
               ( [ "state" ],
                 fun vs ->
                   match vs with
                   | [ Value.V_string "CA" ] -> Value.V_region "us-west1"
                   | _ -> Value.V_region "us-east1" ))
            ~hidden:true Schema.region_column Schema.T_region;
        ]
      ~pkey:[ "state"; "oid" ] ~locality:Schema.Regional_by_row ()
  in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = computed });
  let db = Crdb.database t "testdb" in
  let sim = Cluster.sim (Crdb.cluster t) in
  let west = Crdb.gateway t ~region:"us-west1" () in
  Crdb.run t (fun () ->
      (* Insert of a CA row from us-west: the region is derivable from the
         key, so the uniqueness check is partition-local and fast (§4.1,
         option 3; Fig. 4b "Computed"). *)
      let t0 = Sim.now sim in
      ok
        (Engine.insert db ~gateway:west ~table:"orders"
           [ ("state", svec "CA"); ("oid", svec "o1") ]);
      let computed_latency = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "computed-region insert local (%dus)" computed_latency)
        true
        (computed_latency < 10_000));
  (* Inspect raw store state only after [run] has drained the post-ack
     intent resolution of the parallel commit. *)
  check
    Alcotest.(option string)
    "row in computed region" (Some "us-west1")
    (Engine.region_of_row db ~table:"orders" [ svec "CA"; svec "o1" ]);
  (* Contrast: automatic-region table pays a cross-region uniqueness check
     on insert (Fig. 4b "Default"). *)
  let t2, db2 = with_users () in
  let sim2 = Cluster.sim (Crdb.cluster t2) in
  let west2 = Crdb.gateway t2 ~region:"us-west1" () in
  Crdb.run t2 (fun () ->
      let t0 = Sim.now sim2 in
      ok (Engine.insert db2 ~gateway:west2 ~table:"users" (user "u9"));
      let default_latency = Sim.now sim2 - t0 in
      check Alcotest.bool
        (Printf.sprintf "default insert pays remote check (%dus)" default_latency)
        true
        (default_latency > 50_000))

let test_uuid_pk_skips_checks () =
  let t = fresh () in
  let events =
    Schema.table ~name:"events"
      ~columns:
        [
          Schema.column ~default:Schema.D_gen_uuid "id" Schema.T_uuid;
          Schema.column "payload" Schema.T_string;
        ]
      ~pkey:[ "id" ] ~locality:Schema.Regional_by_row ()
  in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = events });
  let db = Crdb.database t "testdb" in
  let sim = Cluster.sim (Crdb.cluster t) in
  let eu = Crdb.gateway t ~region:"europe-west2" () in
  Crdb.run t (fun () ->
      let t0 = Sim.now sim in
      ok
        (Engine.insert db ~gateway:eu ~table:"events"
           [ ("payload", svec "hello") ]);
      let latency = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "uuid insert local (%dus)" latency)
        true (latency < 10_000));
  (* Raw row count only stabilizes once [run] drains post-ack resolution. *)
  check Alcotest.int "row exists" 1 (Engine.row_count db "events")

let test_rehoming () =
  let t, db = with_users () in
  let west = Crdb.gateway t ~region:"us-west1" () in
  let eu = Crdb.gateway t ~region:"europe-west2" () in
  Crdb.run t (fun () -> ok (Engine.insert db ~gateway:west ~table:"users" (user "mover")));
  (* Rehoming off (default): updates from another region leave the row. *)
  Crdb.run t (fun () ->
      ignore
        (ok
           (Engine.update_by_pk db ~gateway:eu ~table:"users" [ svec "mover" ]
              ~set:[ ("name", svec "n2") ])));
  check Alcotest.(option string) "still in us-west1" (Some "us-west1")
    (Engine.region_of_row db ~table:"users" [ svec "mover" ]);
  (* Rehoming on: the row follows the writer (§2.3.2). *)
  Engine.set_auto_rehome_override db (Some true);
  Crdb.run t (fun () ->
      ignore
        (ok
           (Engine.update_by_pk db ~gateway:eu ~table:"users" [ svec "mover" ]
              ~set:[ ("name", svec "n3") ])));
  check Alcotest.(option string) "rehomed to europe" (Some "europe-west2")
    (Engine.region_of_row db ~table:"users" [ svec "mover" ]);
  (* The secondary index moved with the row: unique lookups still work. *)
  Crdb.run t (fun () ->
      match
        ok
          (Engine.select_by_unique db ~gateway:west ~table:"users" ~col:"email"
             (svec "mover@x.io"))
      with
      | Some row -> check Alcotest.bool "updated" true (List.assoc "name" row = svec "n3")
      | None -> Alcotest.fail "unique index lost after rehoming");
  Engine.set_auto_rehome_override db None

let test_delete_and_count () =
  let t, db = with_users () in
  let gw = Crdb.gateway t ~region:"us-east1" () in
  Crdb.run t (fun () ->
      ok (Engine.insert db ~gateway:gw ~table:"users" (user "d1"));
      ok (Engine.insert db ~gateway:gw ~table:"users" (user "d2")));
  check Alcotest.int "2 rows" 2 (Engine.row_count db "users");
  Crdb.run t (fun () ->
      check Alcotest.bool "deleted" true
        (ok (Engine.delete_by_pk db ~gateway:gw ~table:"users" [ svec "d1" ]));
      check Alcotest.bool "absent" false
        (ok (Engine.delete_by_pk db ~gateway:gw ~table:"users" [ svec "d1" ])));
  check Alcotest.int "1 row" 1 (Engine.row_count db "users")

let test_fk_against_global_parent () =
  let t = fresh () in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = promo_table });
  (* UUID primary key: no uniqueness fan-out (§4.1), so the insert latency
     isolates the FK check. *)
  let rides =
    Schema.table ~name:"rides"
      ~columns:
        [
          Schema.column ~default:Schema.D_gen_uuid "id" Schema.T_uuid;
          Schema.column "promo" Schema.T_string;
        ]
      ~pkey:[ "id" ] ~locality:Schema.Regional_by_row
      ~fks:
        [ { Schema.fk_cols = [ "promo" ]; fk_parent = "promo_codes"; fk_parent_cols = [ "code" ] } ]
      ()
  in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = rides });
  let db = Crdb.database t "testdb" in
  let east = Crdb.gateway t ~region:"us-east1" () in
  let eu = Crdb.gateway t ~region:"europe-west2" () in
  let sim = Cluster.sim (Crdb.cluster t) in
  Crdb.run t (fun () ->
      ok
        (Engine.insert db ~gateway:east ~table:"promo_codes"
           [ ("code", svec "SAVE10"); ("descr", svec "ten percent") ]));
  (* Wait out the global write's visibility lead. *)
  Crdb.run_for t 1_000_000;
  Crdb.run t (fun () ->
      expect_aborted "fk violation"
        (Engine.insert db ~gateway:eu ~table:"rides" [ ("promo", svec "NOPE") ]);
      (* Valid FK: the parent check reads the GLOBAL table locally, so the
         whole remote insert stays region-local (the §2.3.3 pattern). *)
      let t0 = Sim.now sim in
      ok (Engine.insert db ~gateway:eu ~table:"rides" [ ("promo", svec "SAVE10") ]);
      let latency = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "fk check local via GLOBAL parent (%dus)" latency)
        true (latency < 10_000))

let test_select_prefix_scan () =
  let t = fresh () in
  let lines =
    Schema.table ~name:"lines"
      ~columns:
        [
          Schema.column "w" Schema.T_int;
          Schema.column "o" Schema.T_int;
          Schema.column "n" Schema.T_int;
          Schema.column "item" Schema.T_string;
          Schema.column ~hidden:true
            ~default:
              (Schema.D_computed
                 ( [ "w" ],
                   fun vs ->
                     match vs with
                     | [ Value.V_int w ] ->
                         Value.V_region (List.nth regions3 (w mod 3))
                     | _ -> Value.V_region "us-east1" ))
            Schema.region_column Schema.T_region;
        ]
      ~pkey:[ "w"; "o"; "n" ] ~locality:Schema.Regional_by_row ()
  in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = lines });
  let db = Crdb.database t "testdb" in
  let gw = Crdb.gateway t ~region:"us-west1" () in
  Crdb.run t (fun () ->
      for n = 1 to 5 do
        ok
          (Engine.insert db ~gateway:gw ~table:"lines"
             [ ("w", Value.V_int 1); ("o", Value.V_int 7); ("n", Value.V_int n);
               ("item", svec (Printf.sprintf "item%d" n)) ])
      done;
      ok
        (Engine.insert db ~gateway:gw ~table:"lines"
           [ ("w", Value.V_int 1); ("o", Value.V_int 8); ("n", Value.V_int 1);
             ("item", svec "other-order") ]);
      let rows =
        ok
          (Engine.select_prefix db ~gateway:gw ~table:"lines"
             ~prefix:[ Value.V_int 1; Value.V_int 7 ] ())
      in
      check Alcotest.int "5 lines of order 7" 5 (List.length rows);
      let limited =
        ok
          (Engine.select_prefix db ~gateway:gw ~table:"lines"
             ~prefix:[ Value.V_int 1; Value.V_int 7 ] ~limit:2 ())
      in
      check Alcotest.int "limit" 2 (List.length limited))

let test_stale_select () =
  let t, db = with_users () in
  let west = Crdb.gateway t ~region:"us-west1" () in
  let au_like = Crdb.gateway t ~region:"europe-west2" () in
  let sim = Cluster.sim (Crdb.cluster t) in
  Crdb.run t (fun () -> ok (Engine.insert db ~gateway:west ~table:"users" (user "s1")));
  Crdb.run_for t 6_000_000;
  Crdb.run t (fun () ->
      let t0 = Sim.now sim in
      (match
         ok (Engine.select_by_pk_stale db ~gateway:au_like ~table:"users" [ svec "s1" ])
       with
      | Some _ -> ()
      | None -> Alcotest.fail "stale read missed row");
      let latency = Sim.now sim - t0 in
      check Alcotest.bool
        (Printf.sprintf "stale select local (%dus)" latency)
        true (latency < 10_000))

(* ------------------------------------------------------------------ *)
(* Region management and locality changes                              *)

let test_add_drop_region () =
  (* A cluster with asia nodes, but a database initially using only 3. *)
  let t = Crdb.start ~regions:(regions3 @ [ "asia-northeast1" ]) () in
  Crdb.exec t
    (Ddl.N_create_database
       { db = "testdb"; primary = "us-east1"; regions = List.tl regions3 });
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = users_table });
  let db = Crdb.database t "testdb" in
  check Alcotest.int "3 partitions" 3 (List.length (Engine.partition_ranges db "users"));
  Crdb.exec t (Ddl.N_add_region { db = "testdb"; region = "asia-northeast1" });
  check Alcotest.int "4 partitions after add" 4
    (List.length (Engine.partition_ranges db "users"));
  let asia = Crdb.gateway t ~region:"asia-northeast1" () in
  Crdb.run t (fun () -> ok (Engine.insert db ~gateway:asia ~table:"users" (user "a1")));
  check Alcotest.(option string) "row homed in asia" (Some "asia-northeast1")
    (Engine.region_of_row db ~table:"users" [ svec "a1" ]);
  (* Dropping a region with rows homed there fails with all-or-nothing
     semantics (§2.4.1)... *)
  (try
     Crdb.exec t (Ddl.N_drop_region { db = "testdb"; region = "asia-northeast1" });
     Alcotest.fail "drop of non-empty region must fail"
   with Engine.Sql_error _ -> ());
  check Alcotest.int "rollback keeps 4 partitions" 4
    (List.length (Engine.partition_ranges db "users"));
  (* ...and succeeds once the rows are gone. *)
  Crdb.run t (fun () ->
      ignore (ok (Engine.delete_by_pk db ~gateway:asia ~table:"users" [ svec "a1" ])));
  Crdb.exec t (Ddl.N_drop_region { db = "testdb"; region = "asia-northeast1" });
  check Alcotest.int "3 partitions after drop" 3
    (List.length (Engine.partition_ranges db "users"))

let test_alter_locality_to_global () =
  let t = fresh () in
  let reference =
    Schema.table ~name:"reference"
      ~columns:[ Schema.column "k" Schema.T_string; Schema.column "v" Schema.T_string ]
      ~pkey:[ "k" ] ~locality:(Schema.Regional_by_table None) ()
  in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = reference });
  let db = Crdb.database t "testdb" in
  let gw = Crdb.gateway t ~region:"us-east1" () in
  Crdb.run t (fun () ->
      ok (Engine.insert db ~gateway:gw ~table:"reference"
            [ ("k", svec "k1"); ("v", svec "v1") ]));
  Crdb.exec t
    (Ddl.N_set_locality
       { db = "testdb"; table = "reference"; locality = Schema.Global });
  Crdb.run_for t 2_000_000;
  let rid = List.hd (Engine.ranges_of_table db "reference") in
  (match Cluster.policy_of (Crdb.cluster t) rid with
  | Cluster.Lead -> ()
  | Cluster.Lag -> Alcotest.fail "converted table must close future time");
  (* Rows survived the conversion and now serve locally everywhere. *)
  let eu = Crdb.gateway t ~region:"europe-west2" () in
  let sim = Cluster.sim (Crdb.cluster t) in
  Crdb.run t (fun () ->
      let t0 = Sim.now sim in
      (match ok (Engine.select_by_pk db ~gateway:eu ~table:"reference" [ svec "k1" ]) with
      | Some row -> check Alcotest.bool "value" true (List.assoc "v" row = svec "v1")
      | None -> Alcotest.fail "row lost in conversion");
      check Alcotest.bool "global read local" true (Sim.now sim - t0 < 5_000))

let test_alter_locality_to_rbr () =
  let t = fresh () in
  let tbl =
    Schema.table ~name:"conv"
      ~columns:[ Schema.column "k" Schema.T_string ]
      ~pkey:[ "k" ] ~locality:(Schema.Regional_by_table None) ()
  in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = tbl });
  let db = Crdb.database t "testdb" in
  let gw = Crdb.gateway t ~region:"us-east1" () in
  Crdb.run t (fun () ->
      ok (Engine.insert db ~gateway:gw ~table:"conv" [ ("k", svec "k1") ]));
  Crdb.exec t
    (Ddl.N_set_locality
       { db = "testdb"; table = "conv"; locality = Schema.Regional_by_row });
  check Alcotest.int "partitioned" 3 (List.length (Engine.partition_ranges db "conv"));
  (* Backfilled rows land in the primary region. *)
  check Alcotest.(option string) "row in primary" (Some "us-east1")
    (Engine.region_of_row db ~table:"conv" [ svec "k1" ]);
  check Alcotest.int "row preserved" 1 (Engine.row_count db "conv")

let test_placement_restricted () =
  let t, db = with_users () in
  Crdb.exec t (Ddl.N_placement { db = "testdb"; restricted = true });
  Crdb.run_for t 5_000_000;
  (* Regional tables keep all replicas in the home region. *)
  List.iter
    (fun (partition, rid) ->
      match partition with
      | Some region ->
          List.iter
            (fun (node, _) ->
              check Alcotest.string "replica domiciled" region
                (Crdb.Topology.region_of (Crdb.topology t) node))
            (Cluster.replica_nodes (Crdb.cluster t) rid)
      | None -> ())
    (Engine.partition_ranges db "users")

(* ------------------------------------------------------------------ *)
(* Duplicate indexes (legacy baseline)                                 *)

let test_duplicate_indexes () =
  let t = fresh () in
  let dup =
    Schema.table ~name:"refdup"
      ~columns:[ Schema.column "k" Schema.T_string; Schema.column "v" Schema.T_string ]
      ~pkey:[ "k" ]
      ~locality:(Schema.Regional_by_table None)
      ~duplicate_indexes:true ()
  in
  Crdb.exec t (Ddl.N_create_table { db = "testdb"; table = dup });
  let db = Crdb.database t "testdb" in
  (* 1 primary + 3 duplicate covering indexes. *)
  check Alcotest.int "4 ranges" 4 (List.length (Engine.ranges_of_table db "refdup"));
  let gw = Crdb.gateway t ~region:"us-east1" () in
  let sim = Cluster.sim (Crdb.cluster t) in
  Crdb.run t (fun () ->
      let t0 = Sim.now sim in
      ok (Engine.upsert db ~gateway:gw ~table:"refdup"
            [ ("k", svec "k1"); ("v", svec "v1") ]);
      let write_latency = Sim.now sim - t0 in
      (* The write must reach a leaseholder in europe: at least one WAN
         round trip. *)
      check Alcotest.bool
        (Printf.sprintf "dup-index write pays WAN (%dus)" write_latency)
        true (write_latency > 80_000));
  (* Let the asynchronous intent resolutions reach the remote duplicate
     indexes; reads before that block on the intents (the Fig. 5 tail
     mechanism). *)
  Crdb.run_for t 500_000;
  Crdb.run t (fun () ->
      (* Reads in every region are local and consistent. *)
      List.iter
        (fun region ->
          let gw = Crdb.gateway t ~region () in
          let t0 = Sim.now sim in
          (match ok (Engine.select_by_pk db ~gateway:gw ~table:"refdup" [ svec "k1" ]) with
          | Some row -> check Alcotest.bool "consistent" true (List.assoc "v" row = svec "v1")
          | None -> Alcotest.fail "dup index read missed");
          let latency = Sim.now sim - t0 in
          check Alcotest.bool
            (Printf.sprintf "dup read local in %s (%dus)" region latency)
            true (latency < 10_000))
        regions3)

(* ------------------------------------------------------------------ *)
(* Legacy statement counting (Table 2 machinery)                       *)

let movr_like_tables =
  [
    users_table;
    Schema.table ~name:"vehicles"
      ~columns:[ Schema.column "id" Schema.T_string; Schema.column "city" Schema.T_string ]
      ~pkey:[ "id" ] ~locality:Schema.Regional_by_row ();
    promo_table;
  ]

let test_legacy_counts () =
  let before op =
    Ddl.count
      (Legacy.statements ~db:"movr" ~regions:regions3 ~tables:movr_like_tables op)
  in
  let new_schema = before Legacy.New_schema in
  let convert = before Legacy.Convert_schema in
  let add = before (Legacy.Add_region "asia-northeast1") in
  let drop = before (Legacy.Drop_region "europe-west2") in
  (* Shape of Table 2: the legacy recipes are much larger than the new
     syntax, and region add/drop touches every table. *)
  check Alcotest.bool "new schema large" true (new_schema > 10);
  check Alcotest.int "convert = new minus creates" new_schema
    (convert + 1 + List.length movr_like_tables);
  check Alcotest.bool "add touches all tables" true (add >= 3);
  check Alcotest.bool "drop touches all tables" true (drop >= 3);
  (* And the statements render as SQL. *)
  let sql =
    Legacy.describe
      (Legacy.statements ~db:"movr" ~regions:regions3 ~tables:movr_like_tables
         Legacy.New_schema)
  in
  check Alcotest.bool "renders SQL" true
    (String.length sql > 0
    && String.length sql - String.length (String.concat "" (String.split_on_char '\n' sql)) + 1
       = new_schema)

let suite =
  [
    qcheck prop_row_roundtrip;
    qcheck prop_int_key_order;
    qcheck prop_string_key_no_separator;
    qcheck prop_row_key_bytes;
    Alcotest.test_case "create database layout" `Quick test_create_database_layout;
    Alcotest.test_case "global table layout" `Quick test_global_table_layout;
    Alcotest.test_case "regional by table in region" `Quick
      test_regional_by_table_in_region;
    Alcotest.test_case "ddl errors" `Quick test_ddl_errors;
    Alcotest.test_case "survive region zones" `Quick test_survive_region_changes_zones;
    Alcotest.test_case "insert automatic region" `Quick test_insert_automatic_region;
    Alcotest.test_case "global unique email" `Quick test_global_unique_email;
    Alcotest.test_case "unique lookup LOS" `Quick test_select_by_unique_los;
    Alcotest.test_case "LOS vs unoptimized" `Quick test_los_vs_unoptimized;
    Alcotest.test_case "computed region checks" `Quick
      test_computed_region_single_partition_check;
    Alcotest.test_case "uuid pk skips checks" `Quick test_uuid_pk_skips_checks;
    Alcotest.test_case "rehoming" `Quick test_rehoming;
    Alcotest.test_case "delete and count" `Quick test_delete_and_count;
    Alcotest.test_case "fk against global parent" `Quick test_fk_against_global_parent;
    Alcotest.test_case "select prefix scan" `Quick test_select_prefix_scan;
    Alcotest.test_case "stale select" `Quick test_stale_select;
    Alcotest.test_case "add/drop region" `Quick test_add_drop_region;
    Alcotest.test_case "alter locality to global" `Quick test_alter_locality_to_global;
    Alcotest.test_case "alter locality to rbr" `Quick test_alter_locality_to_rbr;
    Alcotest.test_case "placement restricted" `Quick test_placement_restricted;
    Alcotest.test_case "duplicate indexes" `Quick test_duplicate_indexes;
    Alcotest.test_case "legacy counts" `Quick test_legacy_counts;
  ]
