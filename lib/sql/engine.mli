(** The SQL engine: executes the declarative multi-region DDL and plans DML
    with locality awareness.

    Physical layout (§3.3): every (index, partition) pair of a table is one
    Range. REGIONAL BY ROW tables get one partition per database region for
    the primary and every secondary index; REGIONAL BY TABLE and GLOBAL
    tables a single partition. Zone configurations and closed-timestamp
    policies are derived from the table locality, the database survivability
    goal, and the placement policy.

    Planner features: uniqueness checks for implicitly partitioned unique
    indexes with the §4.1 fast paths (UUID defaults, computed regions,
    explicit region prefixes), Locality Optimized Search (§4.2), automatic
    rehoming (§2.3.2), foreign-key checks against (typically GLOBAL) parent
    tables, and the legacy duplicate-indexes topology (§7.3.1).

    DML entry points must run inside a {!Crdb_sim.Proc} (e.g. under
    [Cluster.run]); DDL entry points must run {e outside} any process — they
    drive the simulation themselves while data moves. *)

module Cluster = Crdb_kv.Cluster
module Txn = Crdb_txn.Txn

type t
type db

val create : Cluster.t -> t
val cluster : t -> Cluster.t
val txn_manager : t -> Txn.manager

exception Sql_error of string

(** {2 DDL} *)

val exec : t -> Ddl.stmt -> unit
(** Execute one DDL statement (the new declarative syntax only — legacy
    [L_*] statements exist for counting and display).
    @raise Sql_error on invalid statements (e.g. dropping a non-empty
    region, REGION survivability with fewer than 3 regions). *)

val exec_all : t -> Ddl.stmt list -> unit

val database : t -> string -> db
(** @raise Sql_error if unknown. *)

val primary_region : db -> string
val regions : db -> string list
(** Public (readable-writable) regions, in addition order. *)

val survival : db -> Crdb_kv.Zoneconfig.survival
val table_names : db -> string list
val table_schema : db -> string -> Schema.table

(** Cluster settings for the §7.2 experiments. *)

val set_locality_optimized_search : db -> bool -> unit
val set_auto_rehome_override : db -> bool option -> unit
(** [Some false] disables rehoming even for tables declaring it; [Some true]
    forces it on; [None] (default) honors the table definition. *)

(** {2 DML} *)

type row = (string * Value.t) list

type exec_error = Txn.error

val pp_exec_error : Format.formatter -> exec_error -> unit

val insert :
  db -> gateway:int -> table:string -> row -> (unit, exec_error) result
(** INSERT with uniqueness and FK checks. Duplicate keys and FK violations
    return [Error (Aborted _)]. *)

val upsert :
  db -> gateway:int -> table:string -> row -> (unit, exec_error) result
(** Blind write without uniqueness checks (workload loading). *)

val bulk_insert : db -> table:string -> ?region:string -> row list -> unit
(** Administrative dataset loader: installs rows (and their index entries)
    directly in storage, bypassing transactions and checks, as an initial
    [IMPORT] would. Defaults and computed columns are still evaluated;
    [region] acts as the originating gateway region (default: primary).
    Call outside any process. *)

val select_by_pk :
  db -> gateway:int -> table:string -> Value.t list -> (row option, exec_error) result

val select_by_unique :
  db ->
  gateway:int ->
  table:string ->
  col:string ->
  Value.t ->
  (row option, exec_error) result
(** Point lookup through a unique secondary index (LOS applies). *)

val update_by_pk :
  db ->
  gateway:int ->
  table:string ->
  Value.t list ->
  set:row ->
  (bool, exec_error) result
(** [Ok false] if the row does not exist. May rehome the row (§2.3.2). *)

val delete_by_pk :
  db -> gateway:int -> table:string -> Value.t list -> (bool, exec_error) result

val select_prefix :
  db ->
  gateway:int ->
  table:string ->
  prefix:Value.t list ->
  ?limit:int ->
  unit ->
  (row list, exec_error) result
(** Scan rows whose primary key starts with [prefix] (must determine the
    partition, i.e. include the computed-region source columns for REGIONAL
    BY ROW tables). *)

val select_by_pk_stale :
  db ->
  gateway:int ->
  table:string ->
  ?max_staleness:int ->
  Value.t list ->
  (row option, exec_error) result
(** Bounded-staleness read ([with_max_staleness], default 10 s) served from
    the nearest replica. *)

(** {2 Multi-statement transactions} *)

type txn_ctx

val in_txn :
  db -> gateway:int -> (txn_ctx -> 'a) -> ('a, exec_error) result

val t_insert : txn_ctx -> table:string -> row -> unit
val t_select_by_pk : txn_ctx -> table:string -> Value.t list -> row option
val t_update_by_pk : txn_ctx -> table:string -> Value.t list -> set:row -> bool
val t_select_prefix :
  txn_ctx -> table:string -> prefix:Value.t list -> ?limit:int -> unit -> row list

(** {2 Introspection} *)

val ranges_of_table : db -> string -> Cluster.range_id list
val partition_ranges :
  db -> string -> (string option * Cluster.range_id) list
(** Primary-index ranges with their partition regions. *)

val row_count : db -> string -> int
(** Committed rows of a table, counted on leaseholder replicas (test aid;
    bypasses the transaction layer). *)

val region_of_row : db -> table:string -> Value.t list -> string option
(** The partition currently holding the row with this primary key, if any
    (test aid; bypasses the transaction layer). *)
