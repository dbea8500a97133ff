module Crdb = Crdb_core.Crdb
module Hist = Crdb_stats.Hist
module Value = Crdb.Value
module Schema = Crdb.Schema
module Ddl = Crdb.Ddl
module Engine = Crdb.Engine
module Cluster = Crdb.Cluster
module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Rng = Crdb_stdx.Rng

type variant =
  | Rbr_default
  | Rbr_computed
  | Rbr_rehoming
  | Regional_table
  | Global_table
  | Dup_indexes

let table_name = "usertable"
let key_of i = Value.V_string (Printf.sprintf "user%010d" i)

let key_index v =
  match v with
  | Value.V_string s when String.length s > 4 ->
      int_of_string (String.sub s 4 (String.length s - 4))
  | _ -> invalid_arg "Ycsb.key_index"

let home_region ~regions i = List.nth regions (i mod List.length regions)

let computed_region_column regions =
  Schema.column ~hidden:true
    ~default:
      (Schema.D_computed
         ( [ "ycsb_key" ],
           fun vs ->
             match vs with
             | [ v ] -> Value.V_region (home_region ~regions (key_index v))
             | _ -> Value.V_region (List.hd regions) ))
    Schema.region_column Schema.T_region

let schema variant ~regions =
  let base_columns =
    [ Schema.column "ycsb_key" Schema.T_string; Schema.column "field0" Schema.T_string ]
  in
  let make ?(columns = base_columns) ?(auto_rehome = false)
      ?(duplicate_indexes = false) locality =
    Schema.table ~name:table_name ~columns ~pkey:[ "ycsb_key" ] ~locality
      ~auto_rehome ~duplicate_indexes ()
  in
  match variant with
  | Rbr_default -> make Schema.Regional_by_row
  | Rbr_rehoming -> make ~auto_rehome:true Schema.Regional_by_row
  | Rbr_computed ->
      make
        ~columns:(base_columns @ [ computed_region_column regions ])
        Schema.Regional_by_row
  | Regional_table -> make (Schema.Regional_by_table None)
  | Global_table -> make Schema.Global
  | Dup_indexes -> make ~duplicate_indexes:true (Schema.Regional_by_table None)

let ddl variant ~db ~regions =
  (* The YCSB schema is a single table: converting it to multi-region takes
     exactly one statement once the database exists (Table 2). *)
  [ Ddl.N_create_table { db; table = schema variant ~regions } ]

let load t db variant ~keyspace =
  let regions = Engine.regions db in
  let rows_for region =
    List.filter_map
      (fun i ->
        if String.equal (home_region ~regions i) region then
          Some
            [
              ("ycsb_key", key_of i);
              ("field0", Value.V_string (Printf.sprintf "value-%d" i));
            ]
        else None)
      (List.init keyspace Fun.id)
  in
  List.iter
    (fun region -> Engine.bulk_insert db ~table:table_name ~region (rows_for region))
    regions;
  (match variant with
  | Rbr_default | Rbr_computed | Rbr_rehoming | Regional_table | Global_table
  | Dup_indexes ->
      ());
  Crdb.settle t

let setup ?config ?(db = "ycsb") ~regions variant ~keyspace =
  let t = Crdb.start ?config ~regions () in
  Crdb.exec t
    (Ddl.N_create_database
       { db; primary = List.hd regions; regions = List.tl regions });
  Crdb.exec_all t (ddl variant ~db ~regions);
  let d = Crdb.database t db in
  load t d variant ~keyspace;
  (t, d)

type workload = A | B | D
type read_mode = Latest | Bounded_stale of int

type results = {
  read_local : Hist.t;
  read_remote : Hist.t;
  write_local : Hist.t;
  write_remote : Hist.t;
  by_region_read : (string * Hist.t) list;
  by_region_write : (string * Hist.t) list;
  mutable ops : int;
  mutable errors : int;
  mutable elapsed : int;
}

let reads r =
  let h = Hist.create () in
  Hist.merge_into ~dst:h r.read_local;
  Hist.merge_into ~dst:h r.read_remote;
  h

let writes r =
  let h = Hist.create () in
  Hist.merge_into ~dst:h r.write_local;
  Hist.merge_into ~dst:h r.write_remote;
  h

let write_ratio = function A -> 0.5 | B -> 0.05 | D -> 0.05

let blind_update_variant db =
  (* Non-partitioned tables can treat YCSB updates as blind full-row writes
     (the YCSB semantics); partitioned variants must locate the row first. *)
  match (Engine.table_schema db table_name).Crdb.Schema.tbl_locality with
  | Crdb.Schema.Regional_by_table _ | Crdb.Schema.Global -> true
  | Crdb.Schema.Regional_by_row -> false

let run t db ?(clients_per_region = 10) ?(ops_per_client = 200)
    ?(distribution = `Zipf) ?hot_shift_every ?(locality = 1.0) ?remote_pool
    ?(sharing = 1) ?(read_mode = Latest) ?(seed = 0xBEEF) ~workload ~keyspace
    () =
  let regions = Engine.regions db in
  let nregions = List.length regions in
  let sim = Cluster.sim (Crdb.cluster t) in
  let results =
    {
      read_local = Hist.create ();
      read_remote = Hist.create ();
      write_local = Hist.create ();
      write_remote = Hist.create ();
      by_region_read = List.map (fun r -> (r, Hist.create ())) regions;
      by_region_write = List.map (fun r -> (r, Hist.create ())) regions;
      ops = 0;
      errors = 0;
      elapsed = 0;
    }
  in
  let master_rng = Rng.create ~seed in
  let blind_update = blind_update_variant in
  (* Fresh keys for workload D inserts start above the loaded keyspace and
     are congruent to the inserting client's region index, so that computed
     partitioning also homes them locally (100% locality of access). *)
  let insert_counter = ref (1 + (keyspace / nregions)) in
  let per_region_keys = keyspace / nregions in
  let zipf = Rng.Zipf.create ~n:(max 1 per_region_keys) () in
  let zipf_all = Rng.Zipf.create ~n:(max 1 keyspace) () in
  (* Moving hot spot: rotate the zipf ranks by one position every
     [hot_shift_every] simulated microseconds, so the hot set of keys
     drifts through the keyspace over the run. Purely a function of
     simulated time, so determinism per seed is preserved. *)
  let rotate ~n j =
    match hot_shift_every with
    | None -> j
    | Some period -> (j + (Sim.now sim / period)) mod max 1 n
  in
  let start = Sim.now sim in
  let remaining = ref (nregions * clients_per_region) in
  let finished = Crdb_sim.Ivar.create () in
  List.iteri
    (fun ri region ->
      for c = 0 to clients_per_region - 1 do
        let rng = Rng.split master_rng in
        let gateway = Crdb.gateway t ~region ~index:c () in
        let pick_local () =
          (* The j-th key homed in region ri is ri + j * nregions. *)
          let j =
            match distribution with
            | `Zipf -> rotate ~n:per_region_keys (Rng.Zipf.scrambled_sample zipf rng)
            | `Uniform -> Rng.int rng (max 1 per_region_keys)
          in
          ri + (j * nregions)
        in
        let pick_remote () =
          match remote_pool with
          | Some pool_size ->
              (* Each client's remote traffic targets a small fixed pool of
                 keys. A pool is shared by the same-index clients of the
                 first [sharing] regions (§7.2.3's "c contending clients");
                 with [sharing = 1] — and for clients of non-contending
                 regions — pools are private (§7.2.1's "disjoint sets"). *)
              let pool_id =
                if ri < sharing then c
                else clients_per_region + (ri * clients_per_region) + c
              in
              let base = pool_id * pool_size in
              let rec draw tries =
                let k = (base + Rng.int rng pool_size) mod keyspace in
                if String.equal (home_region ~regions k) region && tries < 8 then
                  draw (tries + 1)
                else k
              in
              draw 0
          | None ->
              (* Remote keys drawn from the whole keyspace, strided so
                 clients do not collide. *)
              let stride = (clients_per_region * nregions) + 1 in
              let j =
                match distribution with
                | `Zipf -> rotate ~n:keyspace (Rng.Zipf.scrambled_sample zipf_all rng)
                | `Uniform -> Rng.int rng (max 1 keyspace)
              in
              let base = (j / stride * stride) + ((ri + (c * nregions)) mod stride) in
              let k = base mod keyspace in
              if String.equal (home_region ~regions k) region then (k + 1) mod keyspace
              else k
        in
        let pick_key () =
          if Rng.bernoulli rng locality then (pick_local (), true)
          else (pick_remote (), false)
        in
        let hist_for ~is_read ~local =
          match (is_read, local) with
          | true, true -> results.read_local
          | true, false -> results.read_remote
          | false, true -> results.write_local
          | false, false -> results.write_remote
        in
        Proc.spawn sim (fun () ->
            for _ = 1 to ops_per_client do
              let is_write = Rng.bernoulli rng (write_ratio workload) in
              let t0 = Sim.now sim in
              let outcome =
                if is_write && workload = D then begin
                  (* Insert a fresh key (workload D). *)
                  let base = !insert_counter in
                  insert_counter := base + 1;
                  let id = (base * nregions) + ri in
                  match
                    Engine.insert db ~gateway ~table:table_name
                      [
                        ("ycsb_key", key_of id);
                        ("field0", Value.V_string "inserted");
                      ]
                  with
                  | Ok () -> Some (false, true)
                  | Error _ -> None
                end
                else begin
                  let key, local = pick_key () in
                  if is_write then
                    if blind_update db then
                      match
                        Engine.upsert db ~gateway ~table:table_name
                          [
                            ("ycsb_key", key_of key);
                            ("field0", Value.V_string "updated");
                          ]
                      with
                      | Ok () -> Some (false, local)
                      | Error _ -> None
                    else
                      match
                        Engine.update_by_pk db ~gateway ~table:table_name
                          [ key_of key ]
                          ~set:[ ("field0", Value.V_string "updated") ]
                      with
                      | Ok _ -> Some (false, local)
                      | Error _ -> None
                  else
                    match read_mode with
                    | Latest -> (
                        match
                          Engine.select_by_pk db ~gateway ~table:table_name
                            [ key_of key ]
                        with
                        | Ok _ -> Some (true, local)
                        | Error _ -> None)
                    | Bounded_stale staleness -> (
                        match
                          Engine.select_by_pk_stale db ~gateway
                            ~table:table_name ~max_staleness:staleness
                            [ key_of key ]
                        with
                        | Ok _ -> Some (true, local)
                        | Error _ -> None)
                end
              in
              let latency = Sim.now sim - t0 in
              results.ops <- results.ops + 1;
              (match outcome with
              | Some (is_read, local) ->
                  Hist.add (hist_for ~is_read ~local) latency;
                  let per_region =
                    if is_read then results.by_region_read
                    else results.by_region_write
                  in
                  Hist.add (List.assoc region per_region) latency
              | None -> results.errors <- results.errors + 1)
            done;
            remaining := !remaining - 1;
            if !remaining = 0 then Crdb_sim.Ivar.fill finished ())
      done)
    regions;
  Crdb.run t (fun () -> Proc.await finished);
  results.elapsed <- Sim.now sim - start;
  results
