(** TPC-C adapted for multi-region evaluation (§7.4).

    The nine-table schema follows the paper's adaptation: [item] is GLOBAL
    (never updated after load) and the remaining eight tables are REGIONAL
    BY ROW with the region computed from the warehouse id — warehouses are
    assigned to regions in contiguous blocks. All five transaction types
    are implemented (simplified row contents, faithful access patterns);
    1% of new-order item accesses hit a remote warehouse, so roughly 10% of
    new-order transactions cross regions, matching §7.4.

    Terminals pace themselves with the spec's keying and think times scaled
    down by {!time_scale}, preserving the tpmC-per-warehouse ceiling
    structure that the paper's efficiency metric is defined against. *)

module Crdb = Crdb_core.Crdb
module Hist = Crdb_stats.Hist

val tables :
  regions:string list -> warehouses_per_region:int -> Crdb.Schema.table list
(** Schemas with their intended multi-region localities. *)

val ddl :
  db:string ->
  regions:string list ->
  warehouses_per_region:int ->
  Crdb.Ddl.stmt list
(** New-syntax DDL: CREATE DATABASE + 9 CREATE TABLE + 8 computed-region
    columns (Table 2's TPC-C "after" column). *)

val load :
  Crdb.t ->
  Crdb.Engine.db ->
  warehouses_per_region:int ->
  ?districts_per_warehouse:int ->
  ?customers_per_district:int ->
  ?items:int ->
  unit ->
  unit

val setup :
  regions:string list ->
  warehouses_per_region:int ->
  ?districts_per_warehouse:int ->
  ?customers_per_district:int ->
  ?items:int ->
  unit ->
  Crdb.t * Crdb.Engine.db
(** Boot a cluster over [regions], run {!ddl} for database ["tpcc"] and
    {!load} it (same defaults as {!load}). *)

val time_scale : int
(** Keying/think times are the spec's divided by this (5), so a warehouse's
    ceiling is [12.86 * time_scale] tpmC. Scaling shortens the simulation
    without changing the latency-to-ceiling structure much: transaction
    latencies (tens of ms) stay small next to the ~4-6 s scaled cycles. *)

type results = {
  new_order : Hist.t;
  payment : Hist.t;
  order_status : Hist.t;
  delivery : Hist.t;
  stock_level : Hist.t;
  all : Hist.t;
  by_region : (string * Hist.t) list;
  mutable committed_new_orders : int;
  mutable remote_new_orders : int;
  mutable errors : int;
  mutable elapsed : int;
  mutable busy_micros : int;
  mutable pause_micros : int;
}

val tpmc : results -> float
(** Committed new-order transactions per simulated minute. *)

val efficiency : results -> float
(** Fraction of the spec-paced terminal cycle retained (think time over
    think + transaction time): 1.0 means transactions are free, i.e. the
    spec's 12.86-per-warehouse ceiling. The paper's "efficiency as defined
    by TPC-C" is the equivalent ratio. *)

val run :
  Crdb.t ->
  Crdb.Engine.db ->
  warehouses_per_region:int ->
  ?terminals_per_warehouse:int ->
  ?duration:int ->
  ?districts_per_warehouse:int ->
  ?customers_per_district:int ->
  ?items:int ->
  ?seed:int ->
  unit ->
  results
(** Run the mix (45/43/4/4/4) for [duration] simulated microseconds
    (default 60 s) with closed-loop paced terminals (default 10 per
    warehouse). *)
