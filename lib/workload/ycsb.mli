(** YCSB workloads adapted for multi-region evaluation (§7.1–7.3).

    The single [usertable] gets a locality variant matching each experiment:
    automatic or computed REGIONAL BY ROW (Fig. 4), REGIONAL BY TABLE and
    GLOBAL (Fig. 3, 5), and the legacy duplicate-indexes baseline (Fig. 5).
    Keys are integers rendered as [user%010d]; each key has a {e home
    region} [key mod (number of regions)] assigned at load time, which is
    what "locality of access" refers to (§7.2). *)

module Crdb = Crdb_core.Crdb
module Hist = Crdb_stats.Hist

type variant =
  | Rbr_default  (** automatic [crdb_region], LOS per database setting *)
  | Rbr_computed  (** [crdb_region] computed from the key (§2.3.2) *)
  | Rbr_rehoming  (** automatic region + ON UPDATE rehome_row() *)
  | Regional_table  (** REGIONAL BY TABLE IN PRIMARY REGION *)
  | Global_table
  | Dup_indexes  (** legacy duplicate-indexes topology *)

val table_name : string

val schema : variant -> regions:string list -> Crdb.Schema.table

val ddl : variant -> db:string -> regions:string list -> Crdb.Ddl.stmt list
(** The new-syntax statements to create the multi-region usertable —
    Table 2's YCSB "after" column. *)

val key_of : int -> Crdb.Value.t

val load : Crdb.t -> Crdb.Engine.db -> variant -> keyspace:int -> unit
(** Populate [keyspace] keys, round-robin homed across the database
    regions (administrative load). *)

val setup :
  ?config:Crdb.Cluster.config ->
  ?db:string ->
  regions:string list ->
  variant ->
  keyspace:int ->
  Crdb.t * Crdb.Engine.db
(** Boot a cluster over [regions], create database [db] (default
    ["ycsb"]) with the head of [regions] as its primary region, create the
    usertable for [variant] and {!load} [keyspace] keys. *)

type workload = A | B | D
(** A = 50/50 read/update; B = 95/5 read/update; D = 95/5 read/insert. *)

type read_mode =
  | Latest  (** consistent present-time reads *)
  | Bounded_stale of int  (** [with_max_staleness] in microseconds *)

type results = {
  read_local : Hist.t;
  read_remote : Hist.t;
  write_local : Hist.t;
  write_remote : Hist.t;
  by_region_read : (string * Hist.t) list;
  by_region_write : (string * Hist.t) list;
  mutable ops : int;
  mutable errors : int;
  mutable elapsed : int;  (** simulated microseconds for the whole run *)
}

val reads : results -> Hist.t
(** All reads merged. *)

val writes : results -> Hist.t

val run :
  Crdb.t ->
  Crdb.Engine.db ->
  ?clients_per_region:int ->
  ?ops_per_client:int ->
  ?distribution:[ `Zipf | `Uniform ] ->
  ?hot_shift_every:int ->
  ?locality:float ->
  ?remote_pool:int ->
  ?sharing:int ->
  ?read_mode:read_mode ->
  ?seed:int ->
  workload:workload ->
  keyspace:int ->
  unit ->
  results
(** Drive the workload with closed-loop clients in every database region.

    [locality] (default 1.0): probability that an operation targets a key
    homed in the client's region. Remote operations draw from a
    [remote_pool]-sized per-client key pool when set; a pool is shared by
    the same-index clients of the first [sharing] regions (default 1 =
    disjoint pools, §7.2.1; 2-3 reproduce Fig. 4c's contention). Without
    [remote_pool], remote keys come from the whole keyspace.

    [hot_shift_every] (simulated microseconds): under [`Zipf], rotate the
    zipf ranks by one position each period, so the hot set of keys drifts
    through the keyspace over simulated time — the moving-hot-spot workload
    the autopilot's convergence is judged against. The rotation is a pure
    function of simulated time, so runs stay deterministic per seed.

    Defaults: 10 clients per region, 200 ops per client, Zipf. *)
