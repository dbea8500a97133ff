module Crdb = Crdb_core.Crdb
module Value = Crdb.Value
module Schema = Crdb.Schema
module Ddl = Crdb.Ddl
module Legacy = Crdb.Legacy
module Engine = Crdb.Engine

let cities =
  [
    ("new york", "us-east1");
    ("boston", "us-east1");
    ("washington dc", "us-east1");
    ("san francisco", "us-west1");
    ("seattle", "us-west1");
    ("los angeles", "us-west1");
    ("amsterdam", "europe-west2");
    ("paris", "europe-west2");
    ("rome", "europe-west2");
  ]

let region_of_city ~regions city =
  match List.assoc_opt city cities with
  | Some r when List.mem r regions -> r
  | Some _ | None -> List.hd regions

let city_region_column regions =
  Schema.column ~hidden:true
    ~default:
      (Schema.D_computed
         ( [ "city" ],
           fun vs ->
             match vs with
             | [ Value.V_string city ] ->
                 Value.V_region (region_of_city ~regions city)
             | _ -> Value.V_region (List.hd regions) ))
    Schema.region_column Schema.T_region

let tables ~regions =
  let rc () = city_region_column regions in
  [
    Schema.table ~name:"users"
      ~columns:
        [
          Schema.column ~default:Schema.D_gen_uuid "id" Schema.T_uuid;
          Schema.column "city" Schema.T_string;
          Schema.column "name" Schema.T_string;
          Schema.column "email" Schema.T_string;
          rc ();
        ]
      ~pkey:[ "id" ]
      ~indexes:
        [ { Schema.idx_name = "users_email_key"; idx_cols = [ "email" ]; idx_unique = true } ]
      ~locality:Schema.Regional_by_row ();
    Schema.table ~name:"vehicles"
      ~columns:
        [
          Schema.column ~default:Schema.D_gen_uuid "id" Schema.T_uuid;
          Schema.column "city" Schema.T_string;
          Schema.column "type" Schema.T_string;
          Schema.column "owner_id" Schema.T_uuid;
          rc ();
        ]
      ~pkey:[ "id" ] ~locality:Schema.Regional_by_row ();
    Schema.table ~name:"rides"
      ~columns:
        [
          Schema.column ~default:Schema.D_gen_uuid "id" Schema.T_uuid;
          Schema.column "city" Schema.T_string;
          Schema.column "rider_id" Schema.T_uuid;
          Schema.column "vehicle_id" Schema.T_uuid;
          Schema.column "promo_code" Schema.T_string;
          rc ();
        ]
      ~pkey:[ "id" ]
      ~fks:
        [
          {
            Schema.fk_cols = [ "promo_code" ];
            fk_parent = "promo_codes";
            fk_parent_cols = [ "code" ];
          };
        ]
      ~locality:Schema.Regional_by_row ();
    Schema.table ~name:"vehicle_location_histories"
      ~columns:
        [
          Schema.column ~default:Schema.D_gen_uuid "id" Schema.T_uuid;
          Schema.column "city" Schema.T_string;
          Schema.column "ride_id" Schema.T_uuid;
          Schema.column "lat" Schema.T_int;
          Schema.column "long" Schema.T_int;
          rc ();
        ]
      ~pkey:[ "id" ] ~locality:Schema.Regional_by_row ();
    Schema.table ~name:"user_promo_codes"
      ~columns:
        [
          Schema.column "user_id" Schema.T_uuid;
          Schema.column "code" Schema.T_string;
          Schema.column "city" Schema.T_string;
          Schema.column "usage_count" Schema.T_int;
          rc ();
        ]
      ~pkey:[ "user_id"; "code" ] ~locality:Schema.Regional_by_row ();
    Schema.table ~name:"promo_codes"
      ~columns:
        [
          Schema.column "code" Schema.T_string;
          Schema.column "description" Schema.T_string;
          Schema.column "expiration" Schema.T_int;
        ]
      ~pkey:[ "code" ] ~locality:Schema.Global ();
  ]

type operation = Legacy.operation =
  | New_schema
  | Convert_schema
  | Add_region of string
  | Drop_region of string

let computed_region_stmts ~db ~regions =
  List.filter_map
    (fun (table : Schema.table) ->
      match table.Schema.tbl_locality with
      | Schema.Regional_by_row ->
          Some
            (Ddl.N_add_computed_region
               {
                 db;
                 table = table.Schema.tbl_name;
                 from_cols = [ "city" ];
                 compute =
                   (fun vs ->
                     match vs with
                     | [ Value.V_string city ] ->
                         Value.V_region (region_of_city ~regions city)
                     | _ -> Value.V_region (List.hd regions));
                 sql_case =
                   "CASE WHEN city IN ('new york', ...) THEN 'us-east1' ... END";
               })
      | Schema.Regional_by_table _ | Schema.Global -> None)
    (tables ~regions)

let ddl ~db ~regions op =
  match op with
  | New_schema ->
      (* 1 CREATE DATABASE + 6 CREATE TABLE + 5 computed columns = 12. *)
      Ddl.N_create_database
        { db; primary = List.hd regions; regions = List.tl regions }
      :: List.map (fun table -> Ddl.N_create_table { db; table }) (tables ~regions)
      @ computed_region_stmts ~db ~regions
  | Convert_schema ->
      (* The single-region schema exists: make the database multi-region
         (SET PRIMARY REGION + 2 ADD REGION — §7.5.1's "only 2 additional
         statements" on top of the fresh-schema localities), then set each
         table's locality and computed region. *)
      Ddl.N_set_primary_region { db; region = List.hd regions }
      :: List.map (fun r -> Ddl.N_add_region { db; region = r }) (List.tl regions)
      @ List.map
          (fun (table : Schema.table) ->
            Ddl.N_set_locality
              {
                db;
                table = table.Schema.tbl_name;
                locality = table.Schema.tbl_locality;
              })
          (tables ~regions)
      @ computed_region_stmts ~db ~regions
  | Add_region r -> [ Ddl.N_add_region { db; region = r } ]
  | Drop_region r -> [ Ddl.N_drop_region { db; region = r } ]

let legacy_ddl ~db ~regions op =
  Legacy.statements ~db ~regions ~tables:(tables ~regions) op

let load t db ~users_per_city ~vehicles_per_city =
  let regions = Engine.regions db in
  let usable = List.filter (fun (_, r) -> List.mem r regions) cities in
  let rng = Crdb_stdx.Rng.create ~seed:0x30FF in
  Engine.bulk_insert db ~table:"promo_codes"
    (List.init 10 (fun i ->
         [
           ("code", Value.V_string (Printf.sprintf "promo_%d" i));
           ("description", Value.V_string "discount");
           ("expiration", Value.V_int (1000000 + i));
         ]));
  List.iteri
    (fun ci (city, region) ->
      Engine.bulk_insert db ~table:"users" ~region
        (List.init users_per_city (fun i ->
             [
               ("id", Value.gen_uuid rng);
               ("city", Value.V_string city);
               ("name", Value.V_string (Printf.sprintf "user-%d-%d" ci i));
               ("email", Value.V_string (Printf.sprintf "user%d.%d@movr.com" ci i));
             ]));
      Engine.bulk_insert db ~table:"vehicles" ~region
        (List.init vehicles_per_city (fun i ->
             [
               ("id", Value.gen_uuid rng);
               ("city", Value.V_string city);
               ("type", Value.V_string (if i mod 2 = 0 then "bike" else "scooter"));
               ("owner_id", Value.gen_uuid rng);
             ])))
    usable;
  Crdb.settle t
