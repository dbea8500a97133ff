module Cluster = Crdb_kv.Cluster
module Zoneconfig = Crdb_kv.Zoneconfig
module Txn = Crdb_txn.Txn
module Topology = Crdb_net.Topology
module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Ivar = Crdb_sim.Ivar
module Rng = Crdb_stdx.Rng
module Mvcc = Crdb_storage.Mvcc

exception Sql_error of string

let sql_error fmt = Format.kasprintf (fun m -> raise (Sql_error m)) fmt

type region_state = Public | Read_only

type phys_index = {
  pi_no : int;
  pi_def : Schema.index;
  pi_covering : bool;
  pi_pin : string option; (* duplicate-index leaseholder region *)
  mutable pi_ranges : (Keycodec.partition * Cluster.range_id) list;
}

type phys_table = {
  pt_id : int;
  mutable pt_schema : Schema.table;
  mutable pt_indexes : phys_index list; (* head is the primary index *)
}

type db = {
  d_name : string;
  d_engine : t;
  mutable d_primary : string;
  mutable d_regions : (string * region_state) list;
  mutable d_survival : Zoneconfig.survival;
  mutable d_placement : Zoneconfig.placement;
  d_tables : (string, phys_table) Hashtbl.t;
  mutable d_table_order : string list;
  mutable d_los : bool;
  mutable d_rehome_override : bool option;
}

and t = {
  cl : Cluster.t;
  mgr : Txn.manager;
  dbs : (string, db) Hashtbl.t;
  mutable next_table_id : int;
  rng : Rng.t;
}

type row = (string * Value.t) list
type exec_error = Txn.error

let pp_exec_error = Txn.pp_error

let create cl =
  {
    cl;
    mgr = Txn.create_manager cl;
    dbs = Hashtbl.create 4;
    next_table_id = 1;
    rng = Rng.create ~seed:0x5a1;
  }

let cluster t = t.cl
let txn_manager t = t.mgr

let database t name =
  match Hashtbl.find_opt t.dbs name with
  | Some db -> db
  | None -> sql_error "unknown database %s" name

let primary_region db = db.d_primary

let regions db =
  List.filter_map
    (fun (r, state) -> match state with Public -> Some r | Read_only -> None)
    db.d_regions

let survival db = db.d_survival

let table_names db = List.rev db.d_table_order

let phys_table db name =
  match Hashtbl.find_opt db.d_tables name with
  | Some pt -> pt
  | None -> sql_error "unknown table %s.%s" db.d_name name

let table_schema db name = (phys_table db name).pt_schema
let set_locality_optimized_search db v = db.d_los <- v
let set_auto_rehome_override db v = db.d_rehome_override <- v

let effective_rehome db pt =
  match db.d_rehome_override with
  | Some v -> v
  | None -> pt.pt_schema.Schema.tbl_auto_rehome

let region_of_node db node = Topology.region_of (Cluster.topology db.d_engine.cl) node

let is_rbr pt =
  match pt.pt_schema.Schema.tbl_locality with
  | Schema.Regional_by_row -> true
  | Schema.Regional_by_table _ | Schema.Global -> false

(* ------------------------------------------------------------------ *)
(* Physical layout (§3.3)                                              *)

let home_of db pt ~partition ~pin =
  match pin with
  | Some region -> region
  | None -> (
      match (pt.pt_schema.Schema.tbl_locality, partition) with
      | Schema.Regional_by_row, Some region -> region
      | Schema.Regional_by_row, None -> db.d_primary
      | Schema.Regional_by_table (Some r), _ -> r
      | Schema.Regional_by_table None, _ | Schema.Global, _ -> db.d_primary)

let zone_and_policy db pt ~partition ~pin =
  let home = home_of db pt ~partition ~pin in
  let all_regions = regions db in
  match pt.pt_schema.Schema.tbl_locality with
  | Schema.Global ->
      (* PLACEMENT RESTRICTED does not affect GLOBAL tables (§3.3.4). *)
      let zone =
        Zoneconfig.derive ~regions:all_regions ~home ~survival:db.d_survival
          ~placement:Zoneconfig.Default
      in
      (zone, Cluster.Lead)
  | Schema.Regional_by_row | Schema.Regional_by_table _ ->
      let zone =
        Zoneconfig.derive ~regions:all_regions ~home ~survival:db.d_survival
          ~placement:db.d_placement
      in
      (zone, Cluster.Lag Cluster.close_lag)

let partitions_for db pt =
  if is_rbr pt then List.map (fun r -> Some r) (regions db) else [ None ]

let create_index_ranges db pt pi =
  let parts = if pi.pi_pin <> None then [ None ] else partitions_for db pt in
  pi.pi_ranges <-
    List.map
      (fun partition ->
        let zone, policy = zone_and_policy db pt ~partition ~pin:pi.pi_pin in
        let span =
          Keycodec.partition_span ~table_id:pt.pt_id ~index_no:pi.pi_no ~partition
        in
        (partition, Cluster.add_range db.d_engine.cl ~span ~zone ~policy))
      parts

(* [pi_ranges] remembers each partition and the range originally created for
   it, but range ids go stale: the KV layer splits and merges ranges at any
   time. Everything that acts on a partition's ranges resolves its span
   through the routing table at use time instead of trusting the cache. *)
let partition_rids db pt pi partition =
  let start_key, end_key =
    Keycodec.partition_span ~table_id:pt.pt_id ~index_no:pi.pi_no ~partition
  in
  Cluster.ranges_in_span db.d_engine.cl ~start_key ~end_key

let drop_index_ranges db pt pi =
  List.iter
    (fun (partition, _) ->
      List.iter
        (fun rid -> Cluster.drop_range db.d_engine.cl rid)
        (partition_rids db pt pi partition))
    pi.pi_ranges;
  pi.pi_ranges <- []

let realign_zones db =
  (* Re-derive every range's zone configuration after a region, survival or
     placement change. *)
  Hashtbl.iter
    (fun _ pt ->
      List.iter
        (fun pi ->
          List.iter
            (fun (partition, _) ->
              let zone, policy = zone_and_policy db pt ~partition ~pin:pi.pi_pin in
              List.iter
                (fun rid -> Cluster.alter_range db.d_engine.cl rid ~zone ~policy)
                (partition_rids db pt pi partition))
            pi.pi_ranges)
        pt.pt_indexes)
    db.d_tables

let build_phys_indexes db schema pt_id =
  let primary =
    {
      pi_no = Keycodec.primary_index;
      pi_def =
        {
          Schema.idx_name = "primary";
          idx_cols = schema.Schema.tbl_pkey;
          idx_unique = true;
        };
      pi_covering = true;
      pi_pin = None;
      pi_ranges = [];
    }
  in
  let secondaries =
    List.mapi
      (fun i def ->
        { pi_no = i + 1; pi_def = def; pi_covering = false; pi_pin = None; pi_ranges = [] })
      schema.Schema.tbl_indexes
  in
  let duplicates =
    if schema.Schema.tbl_duplicate_indexes then
      List.mapi
        (fun i region ->
          {
            pi_no = Keycodec.dup_index_base + i;
            pi_def =
              {
                Schema.idx_name = "dup_" ^ region;
                idx_cols = schema.Schema.tbl_pkey;
                idx_unique = true;
              };
            pi_covering = true;
            pi_pin = Some region;
            pi_ranges = [];
          })
        (regions db)
    else []
  in
  ignore pt_id;
  primary :: (secondaries @ duplicates)

let create_table_phys db schema =
  if Hashtbl.mem db.d_tables schema.Schema.tbl_name then
    sql_error "table %s.%s already exists" db.d_name schema.Schema.tbl_name;
  let schema =
    match schema.Schema.tbl_locality with
    | Schema.Regional_by_row -> Schema.with_region_column schema
    | Schema.Regional_by_table _ | Schema.Global -> schema
  in
  let pt_id = db.d_engine.next_table_id in
  db.d_engine.next_table_id <- pt_id + 1;
  let pt = { pt_id; pt_schema = schema; pt_indexes = [] } in
  pt.pt_indexes <- build_phys_indexes db schema pt_id;
  List.iter (fun pi -> create_index_ranges db pt pi) pt.pt_indexes;
  Hashtbl.replace db.d_tables schema.Schema.tbl_name pt;
  db.d_table_order <- schema.Schema.tbl_name :: db.d_table_order;
  pt

(* ------------------------------------------------------------------ *)
(* Row and index entry keys                                            *)

let pk_values pt (row : row) =
  List.map
    (fun c ->
      match List.assoc_opt c row with
      | Some v -> v
      | None -> sql_error "missing primary key column %s" c)
    pt.pt_schema.Schema.tbl_pkey

let index_key_values pt pi (row : row) =
  let base =
    List.map
      (fun c ->
        match List.assoc_opt c row with Some v -> v | None -> Value.V_null)
      pi.pi_def.Schema.idx_cols
  in
  if pi.pi_def.Schema.idx_unique then base
  else base @ pk_values pt row

let primary_of pt = List.hd pt.pt_indexes
let secondary_indexes pt =
  List.filter (fun pi -> pi.pi_no <> Keycodec.primary_index && pi.pi_pin = None)
    pt.pt_indexes
let dup_indexes pt = List.filter (fun pi -> pi.pi_pin <> None) pt.pt_indexes

let row_partition pt (row : row) : Keycodec.partition =
  if not (is_rbr pt) then None
  else
    match List.assoc_opt Schema.region_column row with
    | Some (Value.V_region r) -> Some r
    | Some v -> sql_error "invalid crdb_region value %s" (Value.to_display v)
    | None -> sql_error "missing crdb_region value"

let encode_full_row pt (row : row) =
  Value.encode_row (Schema.column_values pt.pt_schema row)

let decode_full_row pt raw = Schema.row_of_values pt.pt_schema (Value.decode_row raw)

(* ------------------------------------------------------------------ *)
(* Fetch context: reads through either a read-write txn or a read-only
   context, with the same planner code.                                *)

type fetch_ctx = {
  fc_get : string -> string option;
  fc_scan : start_key:string -> end_key:string -> limit:int option -> (string * string) list;
  fc_region : string;
  fc_sim : Sim.t;
}

let ctx_of_txn db t =
  {
    fc_get = (fun key -> Txn.get t key);
    fc_scan =
      (fun ~start_key ~end_key ~limit -> Txn.scan t ~start_key ~end_key ?limit ());
    fc_region = region_of_node db (Txn.gateway t);
    fc_sim = Cluster.sim db.d_engine.cl;
  }

let ctx_of_ro db gateway ro =
  {
    fc_get = (fun key -> Txn.ro_get ro key);
    fc_scan =
      (fun ~start_key ~end_key ~limit ->
        Txn.ro_scan ro ~start_key ~end_key ?limit ());
    fc_region = region_of_node db gateway;
    fc_sim = Cluster.sim db.d_engine.cl;
  }

(* Partition search plan for a point lookup on index [pi] with the given key
   column values available (§4.2). *)
type search_plan =
  | Search_one of Keycodec.partition
  | Search_local_first of Keycodec.partition * Keycodec.partition list
  | Search_all of Keycodec.partition list

let lookup_plan db pt ~local_region ~(known : row) =
  if not (is_rbr pt) then Search_one None
  else begin
    let parts = List.map (fun r -> Some r) (regions db) in
    (* The region may be explicit in the lookup values... *)
    match List.assoc_opt Schema.region_column known with
    | Some (Value.V_region r) -> Search_one (Some r)
    | Some _ | None -> (
        (* ...or computable from them (computed partitioning, §2.3.2). *)
        let computed =
          match Schema.region_computed_from pt.pt_schema with
          | Some cols when List.for_all (fun c -> List.mem_assoc c known) cols
            -> (
              match Schema.compute_region pt.pt_schema known with
              | Some (Value.V_region r) -> Some r
              | Some _ | None -> None)
          | Some _ | None -> None
        in
        match computed with
        | Some r -> Search_one (Some r)
        | None ->
            if db.d_los && List.mem local_region (regions db) then
              (* Locality Optimized Search (§4.2): the local partition
                 first; fan out only on a miss. *)
              Search_local_first
                ( Some local_region,
                  List.filter (fun p -> p <> Some local_region) parts )
            else Search_all parts)
  end

(* Run [lookup] against partitions per the plan; [lookup] returns the first
   match. Parallel legs preserve partition order when picking a winner. *)
let execute_plan ctx plan lookup =
  let parallel parts =
    let ivs =
      List.map (fun p -> Proc.async_catch ctx.fc_sim (fun () -> lookup p)) parts
    in
    let results = List.map Proc.await_catch ivs in
    List.fold_left
      (fun acc r -> match acc with Some _ -> acc | None -> r)
      None results
  in
  match plan with
  | Search_one p -> lookup p
  | Search_local_first (local, others) -> (
      match lookup local with
      | Some r -> Some r
      | None -> if others = [] then None else parallel others)
  | Search_all parts -> parallel parts

(* ------------------------------------------------------------------ *)
(* Point lookups                                                       *)

(* Find a row through an index. Returns (partition, decoded primary row). *)
let find_via_index db pt pi ctx ~(known : row) ~key_values =
  let plan = lookup_plan db pt ~local_region:ctx.fc_region ~known in
  let plan =
    (* Pinned duplicate indexes and non-partitioned indexes live in a single
       partition regardless of table locality. *)
    if pi.pi_pin <> None then Search_one None else plan
  in
  let lookup partition =
    let key =
      Keycodec.row_key ~table_id:pt.pt_id ~index_no:pi.pi_no ~partition key_values
    in
    match ctx.fc_get key with
    | Some raw -> Some (partition, raw)
    | None -> None
  in
  match execute_plan ctx plan lookup with
  | None -> None
  | Some (partition, raw) ->
      if pi.pi_covering then Some (partition, decode_full_row pt raw)
      else begin
        (* Secondary entry stores the primary key; fetch the row from the
           same partition (index entries are collocated with their row). *)
        let pk = Value.decode_row raw in
        let pkey =
          Keycodec.row_key ~table_id:pt.pt_id ~index_no:Keycodec.primary_index
            ~partition pk
        in
        match ctx.fc_get pkey with
        | Some row_raw -> Some (partition, decode_full_row pt row_raw)
        | None -> None
      end

let local_dup_index db pt ctx =
  if not pt.pt_schema.Schema.tbl_duplicate_indexes then None
  else
    List.find_opt
      (fun pi -> pi.pi_pin = Some ctx.fc_region)
      (dup_indexes pt)
      |> fun found ->
      (match found with Some _ -> found | None -> ignore db; None)

let select_pk_ctx db pt ctx pk =
  let known = List.combine pt.pt_schema.Schema.tbl_pkey pk in
  match local_dup_index db pt ctx with
  | Some pi -> (
      (* Read the local covering duplicate index (§7.3.1). *)
      match find_via_index db pt pi ctx ~known ~key_values:pk with
      | Some (_, row) -> Some (None, row)
      | None -> None)
  | None ->
      find_via_index db pt (primary_of pt) ctx ~known ~key_values:pk

let select_unique_ctx db pt ctx ~col value =
  let pi =
    match
      List.find_opt
        (fun pi ->
          pi.pi_def.Schema.idx_unique && pi.pi_def.Schema.idx_cols = [ col ])
        pt.pt_indexes
    with
    | Some pi -> pi
    | None -> sql_error "no unique index on %s(%s)" pt.pt_schema.Schema.tbl_name col
  in
  match find_via_index db pt pi ctx ~known:[ (col, value) ] ~key_values:[ value ] with
  | Some (_, row) -> Some row
  | None -> None

(* ------------------------------------------------------------------ *)
(* Mutations (inside a read-write transaction)                         *)

let normalize_insert db pt ~gateway_region (row : row) : row =
  let schema = pt.pt_schema in
  let value_for (c : Schema.column) =
    let provided =
      match List.assoc_opt c.Schema.col_name row with
      | Some v when not (Value.equal v Value.V_null) -> Some v
      | Some _ | None -> None
    in
    match c.Schema.col_default with
    | Schema.D_computed (cols, f) ->
        (* Computed columns always re-evaluate from their sources. *)
        f
          (List.map
             (fun cc ->
               match List.assoc_opt cc row with
               | Some v -> v
               | None -> Value.V_null)
             cols)
    | Schema.D_gateway_region -> (
        match provided with
        | Some v -> v
        | None -> Value.V_region gateway_region)
    | Schema.D_gen_uuid -> (
        match provided with
        | Some v -> v
        | None -> Value.gen_uuid db.d_engine.rng)
    | Schema.D_none -> ( match provided with Some v -> v | None -> Value.V_null)
  in
  let with_defaults =
    List.map
      (fun (c : Schema.column) -> (c.Schema.col_name, value_for c))
      schema.Schema.tbl_columns
  in
  List.iter
    (fun c ->
      match List.assoc_opt c with_defaults with
      | Some v when not (Value.equal v Value.V_null) -> ()
      | Some _ | None -> sql_error "NULL primary key column %s" c)
    schema.Schema.tbl_pkey;
  with_defaults

(* §4.1: when must an INSERT/UPDATE validate a unique index across all
   partitions? *)
let unique_check_scope pt pi =
  let cols = pi.pi_def.Schema.idx_cols in
  let all_uuid_defaults =
    List.for_all
      (fun c ->
        match Schema.find_column pt.pt_schema c with
        | Some { Schema.col_default = Schema.D_gen_uuid; _ } -> true
        | Some _ | None -> false)
      cols
  in
  if all_uuid_defaults then `Skip (* option 1: generated UUIDs *)
  else if not (is_rbr pt) then `Own_partition
  else if List.mem Schema.region_column cols then `Own_partition (* option 2 *)
  else
    match Schema.region_computed_from pt.pt_schema with
    | Some src when List.for_all (fun c -> List.mem c cols) src ->
        `Own_partition (* option 3: region is a function of the key *)
    | Some _ | None -> `All_partitions

let check_unique db pt ctx ~(row : row) ~own_pk ~partition =
  List.iter
    (fun pi ->
      if pi.pi_def.Schema.idx_unique && pi.pi_pin = None then begin
        let key_values =
          List.map
            (fun c ->
              match List.assoc_opt c row with
              | Some v -> v
              | None -> Value.V_null)
            pi.pi_def.Schema.idx_cols
        in
        let conflict_in partition =
          let key =
            Keycodec.row_key ~table_id:pt.pt_id ~index_no:pi.pi_no ~partition
              key_values
          in
          match ctx.fc_get key with
          | None -> None
          | Some raw ->
              let existing_pk =
                if pi.pi_no = Keycodec.primary_index then
                  pk_values pt (decode_full_row pt raw)
                else Value.decode_row raw
              in
              if Some existing_pk = own_pk then None else Some ()
        in
        let scope = unique_check_scope pt pi in
        let conflict =
          match scope with
          | `Skip -> None
          | `Own_partition -> conflict_in partition
          | `All_partitions ->
              let parts = List.map (fun r -> Some r) (regions db) in
              (* One point lookup per region, in parallel (§4.1). *)
              let ivs =
                List.map
                  (fun p -> Proc.async_catch ctx.fc_sim (fun () -> conflict_in p))
                  parts
              in
              List.fold_left
                (fun acc iv ->
                  match Proc.await_catch iv with Some () -> Some () | None -> acc)
                None ivs
        in
        match conflict with
        | Some () ->
            sql_error "duplicate key value violates unique constraint %s.%s"
              pt.pt_schema.Schema.tbl_name pi.pi_def.Schema.idx_name
        | None -> ()
      end)
    pt.pt_indexes

let check_fks db ctx txn_ctx_get (row : row) pt =
  List.iter
    (fun (fk : Schema.fk) ->
      let parent = phys_table db fk.Schema.fk_parent in
      let values =
        List.map
          (fun c ->
            match List.assoc_opt c row with
            | Some v -> v
            | None -> Value.V_null)
          fk.Schema.fk_cols
      in
      if List.exists (fun v -> Value.equal v Value.V_null) values then ()
      else begin
        ignore txn_ctx_get;
        match select_pk_ctx db parent ctx values with
        | Some _ -> ()
        | None ->
            sql_error "foreign key violation: %s -> %s"
              pt.pt_schema.Schema.tbl_name fk.Schema.fk_parent
      end)
    pt.pt_schema.Schema.tbl_fks

let row_keys pt ~partition (row : row) =
  let pk = pk_values pt row in
  let primary_key =
    Keycodec.row_key ~table_id:pt.pt_id ~index_no:Keycodec.primary_index
      ~partition pk
  in
  let secondary_keys =
    List.map
      (fun pi ->
        ( Keycodec.row_key ~table_id:pt.pt_id ~index_no:pi.pi_no ~partition
            (index_key_values pt pi row),
          Value.encode_row pk ))
      (secondary_indexes pt)
  in
  let dup_keys =
    List.map
      (fun pi ->
        ( Keycodec.row_key ~table_id:pt.pt_id ~index_no:pi.pi_no ~partition:None pk,
          encode_full_row pt row ))
      (dup_indexes pt)
  in
  (primary_key, secondary_keys, dup_keys)

let write_row_keys txn pt ~partition row =
  let primary_key, secondary_keys, dup_keys = row_keys pt ~partition row in
  Txn.put txn primary_key (encode_full_row pt row);
  List.iter (fun (k, v) -> Txn.put txn k v) secondary_keys;
  List.iter (fun (k, v) -> Txn.put txn k v) dup_keys

let delete_row_keys txn pt ~partition row =
  let primary_key, secondary_keys, dup_keys = row_keys pt ~partition row in
  Txn.delete txn primary_key;
  List.iter (fun (k, _) -> Txn.delete txn k) secondary_keys;
  List.iter (fun (k, _) -> Txn.delete txn k) dup_keys


(* ------------------------------------------------------------------ *)
(* Multi-statement transactions                                        *)

type txn_ctx = { tc_db : db; tc_txn : Txn.t; tc_ctx : fetch_ctx }

let t_insert_inner ?(check = true) c ~table (row : row) =
  let db = c.tc_db in
  let pt = phys_table db table in
  let normalized = normalize_insert db pt ~gateway_region:c.tc_ctx.fc_region row in
  let partition = row_partition pt normalized in
  (match (partition, is_rbr pt) with
  | Some r, true when not (List.mem r (regions db)) ->
      sql_error "region %s is not writable in database %s" r db.d_name
  | (Some _ | None), _ -> ());
  if check then begin
    check_fks db c.tc_ctx (fun k -> c.tc_ctx.fc_get k) normalized pt;
    check_unique db pt c.tc_ctx ~row:normalized ~own_pk:None ~partition
  end;
  write_row_keys c.tc_txn pt ~partition normalized

let t_insert c ~table row = t_insert_inner ~check:true c ~table row

let t_select_by_pk c ~table pk =
  let pt = phys_table c.tc_db table in
  match select_pk_ctx c.tc_db pt c.tc_ctx pk with
  | Some (_, row) -> Some row
  | None -> None

let merge_row (old_row : row) (set : row) : row =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name old_row) then
        sql_error "unknown column %s in UPDATE" name)
    set;
  List.map
    (fun (name, v) ->
      match List.assoc_opt name set with Some nv -> (name, nv) | None -> (name, v))
    old_row

let t_update_by_pk c ~table pk ~set =
  let db = c.tc_db in
  let pt = phys_table db table in
  List.iter
    (fun (name, _) ->
      if List.mem name pt.pt_schema.Schema.tbl_pkey then
        sql_error "updating primary key columns is not supported")
    set;
  match find_via_index db pt (primary_of pt) c.tc_ctx ~known:(List.combine pt.pt_schema.Schema.tbl_pkey pk) ~key_values:pk with
  | None -> false
  | Some (partition, old_row) ->
      let new_row = merge_row old_row set in
      (* Recompute the computed region if its source columns changed. *)
      let new_row =
        match Schema.compute_region pt.pt_schema new_row with
        | Some r ->
            List.map
              (fun (n, v) ->
                if String.equal n Schema.region_column then (n, r) else (n, v))
              new_row
        | None -> new_row
      in
      (* Automatic rehoming (§2.3.2): the row moves to the region where it
         was just written, unless the region is computed. *)
      let gateway_region = c.tc_ctx.fc_region in
      let rehomed =
        effective_rehome db pt && is_rbr pt
        && Schema.region_computed_from pt.pt_schema = None
        && partition <> Some gateway_region
        && List.mem gateway_region (regions db)
      in
      let new_row =
        if rehomed then
          List.map
            (fun (n, v) ->
              if String.equal n Schema.region_column then
                (n, Value.V_region gateway_region)
              else (n, v))
            new_row
        else new_row
      in
      let new_partition = if rehomed then Some gateway_region else
          if is_rbr pt then row_partition pt new_row else None
      in
      (* Validate unique secondary indexes whose key values changed. *)
      List.iter
        (fun pi ->
          if
            pi.pi_def.Schema.idx_unique
            && pi.pi_no <> Keycodec.primary_index
            && pi.pi_pin = None
            && index_key_values pt pi new_row <> index_key_values pt pi old_row
          then
            check_unique db pt c.tc_ctx ~row:new_row ~own_pk:(Some pk)
              ~partition:new_partition)
        pt.pt_indexes;
      if new_partition <> partition then begin
        delete_row_keys c.tc_txn pt ~partition old_row;
        write_row_keys c.tc_txn pt ~partition:new_partition new_row
      end
      else begin
        (* Remove secondary entries whose keys changed, then rewrite. *)
        let _, old_sec, _ = row_keys pt ~partition old_row in
        let _, new_sec, _ = row_keys pt ~partition new_row in
        List.iter
          (fun (old_key, _) ->
            if not (List.mem_assoc old_key new_sec) then
              Txn.delete c.tc_txn old_key)
          old_sec;
        write_row_keys c.tc_txn pt ~partition new_row
      end;
      true

let t_delete_by_pk c ~table pk =
  let db = c.tc_db in
  let pt = phys_table db table in
  match
    find_via_index db pt (primary_of pt) c.tc_ctx
      ~known:(List.combine pt.pt_schema.Schema.tbl_pkey pk)
      ~key_values:pk
  with
  | None -> false
  | Some (partition, old_row) ->
      delete_row_keys c.tc_txn pt ~partition old_row;
      true

let prefix_partitions db pt (prefix_known : row) =
  if not (is_rbr pt) then [ None ]
  else
    match List.assoc_opt Schema.region_column prefix_known with
    | Some (Value.V_region r) -> [ Some r ]
    | Some _ | None -> (
        match Schema.compute_region pt.pt_schema prefix_known with
        | Some (Value.V_region r) -> [ Some r ]
        | Some _ | None -> List.map (fun r -> Some r) (regions db))

let select_prefix_ctx db pt ctx ~prefix ~limit =
  let pkey = pt.pt_schema.Schema.tbl_pkey in
  if List.length prefix > List.length pkey then
    sql_error "prefix longer than primary key";
  let prefix_known =
    List.mapi (fun i v -> (List.nth pkey i, v)) prefix
  in
  let partitions = prefix_partitions db pt prefix_known in
  let scan_partition partition =
    let start_key, end_key =
      Keycodec.prefix_span ~table_id:pt.pt_id ~index_no:Keycodec.primary_index
        ~partition prefix
    in
    ctx.fc_scan ~start_key ~end_key ~limit
  in
  let raw_rows =
    match partitions with
    | [ p ] -> scan_partition p
    | ps ->
        let ivs =
          List.map
            (fun p -> Proc.async_catch ctx.fc_sim (fun () -> scan_partition p))
            ps
        in
        List.concat_map Proc.await_catch ivs
  in
  let rows = List.map (fun (_, raw) -> decode_full_row pt raw) raw_rows in
  match limit with
  | Some l when List.length rows > l ->
      List.filteri (fun i _ -> i < l) rows
  | Some _ | None -> rows

let t_select_prefix c ~table ~prefix ?limit () =
  let pt = phys_table c.tc_db table in
  select_prefix_ctx c.tc_db pt c.tc_ctx ~prefix ~limit

let in_txn db ~gateway f =
  try
    Txn.run db.d_engine.mgr ~gateway (fun t ->
        f { tc_db = db; tc_txn = t; tc_ctx = ctx_of_txn db t })
  with Sql_error m -> Error (Txn.Aborted m)

(* ------------------------------------------------------------------ *)
(* Single-statement DML                                                *)

let insert db ~gateway ~table row =
  in_txn db ~gateway (fun c -> t_insert c ~table row)

let upsert db ~gateway ~table row =
  let pt = phys_table db table in
  let single_key =
    secondary_indexes pt = [] && dup_indexes pt = []
  in
  if single_key then begin
    (* The row is the transaction's entire effect: use the 1PC fast path. *)
    let gateway_region = region_of_node db gateway in
    let normalized = normalize_insert db pt ~gateway_region row in
    let partition = row_partition pt normalized in
    let key =
      Keycodec.row_key ~table_id:pt.pt_id ~index_no:Keycodec.primary_index
        ~partition (pk_values pt normalized)
    in
    Txn.run_blind_put db.d_engine.mgr ~gateway key (encode_full_row pt normalized)
  end
  else in_txn db ~gateway (fun c -> t_insert_inner ~check:false c ~table row)

let select_by_pk db ~gateway ~table pk =
  in_txn db ~gateway (fun c -> t_select_by_pk c ~table pk)

let select_by_unique db ~gateway ~table ~col value =
  in_txn db ~gateway (fun c ->
      let pt = phys_table db table in
      select_unique_ctx db pt c.tc_ctx ~col value)

let update_by_pk db ~gateway ~table pk ~set =
  in_txn db ~gateway (fun c -> t_update_by_pk c ~table pk ~set)

let delete_by_pk db ~gateway ~table pk =
  in_txn db ~gateway (fun c -> t_delete_by_pk c ~table pk)

let select_prefix db ~gateway ~table ~prefix ?limit () =
  in_txn db ~gateway (fun c -> t_select_prefix c ~table ~prefix ?limit ())

let select_by_pk_stale db ~gateway ~table ?(max_staleness = 10_000_000) pk =
  try
    let pt = phys_table db table in
    (* Negotiation needs the candidate keys up front (§5.3.2): the row key
       in every partition it could live in. *)
    let known = List.combine pt.pt_schema.Schema.tbl_pkey pk in
    let parts = prefix_partitions db pt known in
    let keys =
      List.map
        (fun partition ->
          Keycodec.row_key ~table_id:pt.pt_id ~index_no:Keycodec.primary_index
            ~partition pk)
        parts
    in
    Ok
      (Txn.run_stale_bounded db.d_engine.mgr ~gateway ~max_staleness ~keys
         (fun ro ->
           let ctx = ctx_of_ro db gateway ro in
           match select_pk_ctx db pt ctx pk with
           | Some (_, row) -> Some row
           | None -> None))
  with
  | Sql_error m -> Error (Txn.Aborted m)
  | Txn.Fatal m -> Error (Txn.Unavailable m)

let bulk_insert db ~table ?region rows =
  let pt = phys_table db table in
  let gateway_region = match region with Some r -> r | None -> db.d_primary in
  let kvs =
    List.concat_map
      (fun row ->
        let row = normalize_insert db pt ~gateway_region row in
        let partition = row_partition pt row in
        let primary_key, secondary_keys, dup_keys = row_keys pt ~partition row in
        ((primary_key, encode_full_row pt row) :: secondary_keys) @ dup_keys)
      rows
  in
  Cluster.bulk_load db.d_engine.cl kvs

(* ------------------------------------------------------------------ *)
(* DDL execution                                                       *)

(* Administrative operations (schema-change backfills, validations) run from
   node 0's gateway; their latency is not part of any measurement. *)
let any_gateway (_ : t) = 0

let collect_rows db pt =
  (* Read every row of the table through ordinary scans. DDL runs outside
     any process, so drive the simulation here. *)
  let primary = primary_of pt in
  let spans =
    List.map
      (fun (partition, _) ->
        ( partition,
          Keycodec.partition_span ~table_id:pt.pt_id
            ~index_no:Keycodec.primary_index ~partition ))
      primary.pi_ranges
  in
  Cluster.run db.d_engine.cl (fun () ->
      List.concat_map
        (fun (partition, (start_key, end_key)) ->
          match
            in_txn db ~gateway:(any_gateway db.d_engine) (fun c ->
                c.tc_ctx.fc_scan ~start_key ~end_key ~limit:None)
          with
          | Ok rows ->
              List.map (fun (_, raw) -> (partition, decode_full_row pt raw)) rows
          | Error e ->
              sql_error "schema change failed reading rows: %a" Txn.pp_error e)
        spans)

let backfill_rows db pt rows =
  (* Administrative backfill: install the new physical layout's keys
     directly, as CRDB's index backfiller does below SQL. *)
  let kvs =
    List.concat_map
      (fun (row : row) ->
        let partition = if is_rbr pt then row_partition pt row else None in
        let primary_key, secondary_keys, dup_keys = row_keys pt ~partition row in
        ((primary_key, encode_full_row pt row) :: secondary_keys) @ dup_keys)
      rows
  in
  Cluster.bulk_load db.d_engine.cl kvs

let default_region_value db pt (row : row) =
  match List.assoc_opt Schema.region_column row with
  | Some (Value.V_region r) when List.mem r (regions db) -> Value.V_region r
  | Some _ | None -> (
      match Schema.compute_region pt.pt_schema row with
      | Some (Value.V_region r) -> Value.V_region r
      | Some _ | None -> Value.V_region db.d_primary)

let rebuild_table_layout db pt ~new_schema =
  (* Online locality change (§2.4.2): build the new index set, backfill, and
     swap. We model the swap atomically at the end of the backfill. *)
  let old_rows = List.map snd (collect_rows db pt) in
  List.iter (fun pi -> drop_index_ranges db pt pi) pt.pt_indexes;
  let new_schema =
    match new_schema.Schema.tbl_locality with
    | Schema.Regional_by_row -> Schema.with_region_column new_schema
    | Schema.Regional_by_table _ | Schema.Global -> new_schema
  in
  pt.pt_schema <- new_schema;
  pt.pt_indexes <- build_phys_indexes db new_schema pt.pt_id;
  List.iter (fun pi -> create_index_ranges db pt pi) pt.pt_indexes;
  Cluster.settle db.d_engine.cl;
  let migrated =
    List.map
      (fun (row : row) ->
        (* Rows keep (or acquire) a region value consistent with the new
           layout. *)
        if is_rbr pt then
          let region = default_region_value db pt row in
          if List.mem_assoc Schema.region_column row then
            List.map
              (fun (n, v) ->
                if String.equal n Schema.region_column then (n, region) else (n, v))
              row
          else row @ [ (Schema.region_column, region) ]
        else row)
      old_rows
  in
  backfill_rows db pt migrated

let region_partition_empty db pt region =
  let primary = primary_of pt in
  match List.assoc_opt (Some region) primary.pi_ranges with
  | None -> true
  | Some _ -> (
      let start_key, end_key =
        Keycodec.partition_span ~table_id:pt.pt_id
          ~index_no:Keycodec.primary_index ~partition:(Some region)
      in
      match
        Cluster.run db.d_engine.cl (fun () ->
            in_txn db ~gateway:(any_gateway db.d_engine) (fun c ->
                c.tc_ctx.fc_scan ~start_key ~end_key ~limit:(Some 1)))
      with
      | Ok [] -> true
      | Ok _ -> false
      | Error e -> sql_error "region validation failed: %a" Txn.pp_error e)

let add_partition_for_region db region =
  Hashtbl.iter
    (fun _ pt ->
      if is_rbr pt then
        List.iter
          (fun pi ->
            if pi.pi_pin = None then begin
              let zone, policy =
                zone_and_policy db pt ~partition:(Some region) ~pin:None
              in
              let span =
                Keycodec.partition_span ~table_id:pt.pt_id ~index_no:pi.pi_no
                  ~partition:(Some region)
              in
              let rid = Cluster.add_range db.d_engine.cl ~span ~zone ~policy in
              pi.pi_ranges <- pi.pi_ranges @ [ (Some region, rid) ]
            end)
          pt.pt_indexes)
    db.d_tables

let drop_partition_for_region db region =
  Hashtbl.iter
    (fun _ pt ->
      List.iter
        (fun pi ->
          let keep, drop =
            List.partition (fun (p, _) -> p <> Some region) pi.pi_ranges
          in
          List.iter
            (fun (partition, _) ->
              List.iter
                (fun rid -> Cluster.drop_range db.d_engine.cl rid)
                (partition_rids db pt pi partition))
            drop;
          pi.pi_ranges <- keep)
        pt.pt_indexes)
    db.d_tables

let cluster_regions t = Topology.regions (Cluster.topology t.cl)

let exec_new t stmt =
  match stmt with
  | Ddl.N_create_database { db; primary; regions = rs } ->
      if Hashtbl.mem t.dbs db then sql_error "database %s already exists" db;
      let all = primary :: List.filter (fun r -> r <> primary) rs in
      List.iter
        (fun r ->
          if not (List.mem r (cluster_regions t)) then
            sql_error "region %S has no nodes in this cluster" r)
        all;
      Hashtbl.replace t.dbs db
        {
          d_name = db;
          d_engine = t;
          d_primary = primary;
          d_regions = List.map (fun r -> (r, Public)) all;
          d_survival = Zoneconfig.Zone;
          d_placement = Zoneconfig.Default;
          d_tables = Hashtbl.create 8;
          d_table_order = [];
          d_los = true;
          d_rehome_override = None;
        }
  | Ddl.N_set_primary_region { db; region } ->
      let db = database t db in
      if not (List.mem region (cluster_regions t)) then
        sql_error "region %S has no nodes in this cluster" region;
      if not (List.mem_assoc region db.d_regions) then
        db.d_regions <- db.d_regions @ [ (region, Public) ];
      db.d_primary <- region;
      realign_zones db;
      Cluster.settle t.cl
  | Ddl.N_add_region { db; region } ->
      let db = database t db in
      if List.mem_assoc region db.d_regions then
        sql_error "region %s already in database" region;
      if not (List.mem region (cluster_regions t)) then
        sql_error "region %S has no nodes in this cluster" region;
      db.d_regions <- db.d_regions @ [ (region, Public) ];
      add_partition_for_region db region;
      realign_zones db;
      Cluster.settle t.cl
  | Ddl.N_drop_region { db; region } ->
      let db = database t db in
      if String.equal region db.d_primary then
        sql_error "cannot drop the primary region";
      if not (List.mem_assoc region db.d_regions) then
        sql_error "region %s not in database" region;
      (* Mark READ ONLY, validate, then commit or roll back (§2.4.1). *)
      db.d_regions <-
        List.map
          (fun (r, s) -> if String.equal r region then (r, Read_only) else (r, s))
          db.d_regions;
      let dirty =
        Hashtbl.fold
          (fun _ pt acc ->
            acc || (is_rbr pt && not (region_partition_empty db pt region)))
          db.d_tables false
      in
      if dirty then begin
        db.d_regions <-
          List.map
            (fun (r, s) -> if String.equal r region then (r, Public) else (r, s))
            db.d_regions;
        sql_error "cannot drop region %s: REGIONAL BY ROW rows are homed there"
          region
      end
      else begin
        drop_partition_for_region db region;
        db.d_regions <- List.remove_assoc region db.d_regions;
        realign_zones db;
        Cluster.settle t.cl
      end
  | Ddl.N_survive { db; survival } ->
      let db = database t db in
      if survival = Zoneconfig.Region && List.length (regions db) < 3 then
        sql_error "SURVIVE REGION FAILURE requires at least 3 regions";
      if survival = Zoneconfig.Region && db.d_placement = Zoneconfig.Restricted
      then sql_error "PLACEMENT RESTRICTED is incompatible with REGION survival";
      db.d_survival <- survival;
      realign_zones db;
      Cluster.settle t.cl
  | Ddl.N_placement { db; restricted } ->
      let db = database t db in
      if restricted && db.d_survival = Zoneconfig.Region then
        sql_error "PLACEMENT RESTRICTED is incompatible with REGION survival";
      db.d_placement <-
        (if restricted then Zoneconfig.Restricted else Zoneconfig.Default);
      realign_zones db;
      Cluster.settle t.cl
  | Ddl.N_create_table { db; table } ->
      let db = database t db in
      ignore (create_table_phys db table : phys_table);
      Cluster.settle t.cl
  | Ddl.N_set_locality { db; table; locality } ->
      let db = database t db in
      let pt = phys_table db table in
      if pt.pt_schema.Schema.tbl_locality <> locality then
        rebuild_table_layout db pt
          ~new_schema:{ pt.pt_schema with Schema.tbl_locality = locality }
  | Ddl.N_add_computed_region { db; table; from_cols; compute; _ } ->
      let db = database t db in
      let pt = phys_table db table in
      let schema = Schema.with_region_column pt.pt_schema in
      let columns =
        List.map
          (fun (c : Schema.column) ->
            if String.equal c.Schema.col_name Schema.region_column then
              {
                c with
                Schema.col_default = Schema.D_computed (from_cols, compute);
              }
            else c)
          schema.Schema.tbl_columns
      in
      rebuild_table_layout db pt
        ~new_schema:{ schema with Schema.tbl_columns = columns }
  | Ddl.L_create_database _ | Ddl.L_create_table _
  | Ddl.L_add_partition_column _ | Ddl.L_partition_by _ | Ddl.L_configure_zone _
  | Ddl.L_create_duplicate_index _ | Ddl.L_drop_index _ ->
      sql_error
        "legacy imperative statements are counted (Table 2) but not executable"

let exec t stmt =
  try exec_new t stmt
  with Invalid_argument m -> raise (Sql_error m)

let exec_all t stmts = List.iter (exec t) stmts

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let ranges_of_table db table =
  let pt = phys_table db table in
  List.concat_map
    (fun pi ->
      List.concat_map
        (fun (partition, _) -> partition_rids db pt pi partition)
        pi.pi_ranges)
    pt.pt_indexes
  |> List.sort_uniq Int.compare

let partition_ranges db table =
  let pt = phys_table db table in
  let primary = primary_of pt in
  List.map
    (fun (partition, rid) ->
      (* Re-resolve in case the partition's original range has split or
         merged; the first covering range anchors the partition. *)
      match partition_rids db pt primary partition with
      | first :: _ -> (partition, first)
      | [] -> (partition, rid))
    primary.pi_ranges

let leaseholder_store db rid =
  match Cluster.leaseholder db.d_engine.cl rid with
  | None -> None
  | Some node -> Cluster.storage_of db.d_engine.cl rid node

let row_count db table =
  let pt = phys_table db table in
  let primary = primary_of pt in
  List.fold_left
    (fun acc (partition, _) ->
      let start_key, end_key =
        Keycodec.partition_span ~table_id:pt.pt_id
          ~index_no:Keycodec.primary_index ~partition
      in
      List.fold_left
        (fun acc rid ->
          match leaseholder_store db rid with
          | None -> acc
          | Some store ->
              (* A range can cover more than this partition after a merge;
                 count only keys inside the partition span. *)
              acc
              + Mvcc.fold_latest store ~init:0 ~f:(fun n key _ ->
                    if
                      String.compare key start_key >= 0
                      && String.compare key end_key < 0
                    then n + 1
                    else n))
        acc
        (partition_rids db pt primary partition))
    0 primary.pi_ranges

let region_of_row db ~table pk =
  let pt = phys_table db table in
  List.fold_left
    (fun acc (partition, _) ->
      match acc with
      | Some _ -> acc
      | None -> (
          let key =
            Keycodec.row_key ~table_id:pt.pt_id ~index_no:Keycodec.primary_index
              ~partition pk
          in
          match Cluster.range_of_key db.d_engine.cl key with
          | exception Not_found -> None
          | rid -> (
              match leaseholder_store db rid with
              | None -> None
              | Some store -> (
                  match
                    Mvcc.read store ~key ~ts:Crdb_hlc.Timestamp.max_value
                      ~max_ts:Crdb_hlc.Timestamp.max_value ~for_txn:None
                  with
                  | Mvcc.Value { value = Some _; _ } ->
                      (match partition with Some r -> Some r | None -> Some "")
                  | Mvcc.Value { value = None; _ } | Mvcc.Uncertain _
                  | Mvcc.Intent_blocked _ ->
                      None))))
    None (primary_of pt).pi_ranges
