(** movr, the paper's motivating ride-sharing application (Fig. 1, §7.5.1).

    Six tables: five are REGIONAL BY ROW with the region computed from the
    row's city, and [promo_codes] — reference data with no locality of
    access — is GLOBAL. [users.email] carries a global UNIQUE constraint
    that does not include the partitioning column, the paper's headline
    §4.1 example. *)

module Crdb = Crdb_core.Crdb

val tables : regions:string list -> Crdb.Schema.table list
val table_names : string list

(** The Table 2 schema operations, shared with the legacy recipes. *)
type operation = Crdb.Legacy.operation =
  | New_schema
  | Convert_schema
  | Add_region of string
  | Drop_region of string

val ddl : db:string -> regions:string list -> operation -> Crdb.Ddl.stmt list
(** New declarative syntax: 12 statements for a fresh 3-region schema
    (1 CREATE DATABASE + 6 CREATE TABLE + 5 computed-region columns), 2 for
    converting an existing multi-region database (2 ADD REGION), 1 each for
    region add/drop — Table 2's movr "after" column. *)

val legacy_ddl :
  db:string -> regions:string list -> operation -> Crdb.Ddl.stmt list
(** The imperative equivalent (Table 2's "before" column). *)

val load :
  Crdb.t -> Crdb.Engine.db -> users_per_city:int -> vehicles_per_city:int -> unit
