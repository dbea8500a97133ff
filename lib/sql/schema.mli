(** Table schemas: columns, indexes, localities, foreign keys (§2.3).

    A schema is purely descriptive; the physical layout (ranges, partitions,
    zone configs) is derived by {!Engine} per §3.3. *)

type col_type = T_int | T_string | T_uuid | T_region

type default =
  | D_none
  | D_gateway_region
      (** [DEFAULT gateway_region()] — automatic partitioning (§2.3.2) *)
  | D_gen_uuid  (** [DEFAULT gen_random_uuid()] (§4.1) *)
  | D_computed of string list * (Value.t list -> Value.t)
      (** computed column over the named columns (computed partitioning) *)

type column = {
  col_name : string;
  col_type : col_type;
  col_default : default;
  col_hidden : bool;  (** NOT VISIBLE, like the implicit [crdb_region] *)
}

val column : ?default:default -> ?hidden:bool -> string -> col_type -> column

type locality =
  | Regional_by_table of string option
      (** [IN <region>], or [None] = the database's primary region *)
  | Regional_by_row
  | Global

val locality_to_sql : locality -> string

type index = { idx_name : string; idx_cols : string list; idx_unique : bool }

type fk = {
  fk_cols : string list;
  fk_parent : string;
  fk_parent_cols : string list;
}

type table = {
  tbl_name : string;
  tbl_columns : column list;
  tbl_pkey : string list;
  tbl_indexes : index list;
  tbl_fks : fk list;
  tbl_locality : locality;
  tbl_auto_rehome : bool;  (** ON UPDATE rehome_row() (§2.3.2) *)
  tbl_duplicate_indexes : bool;
      (** legacy duplicate-indexes topology (§7.3.1 baseline) *)
}

val table :
  ?indexes:index list ->
  ?fks:fk list ->
  ?locality:locality ->
  ?auto_rehome:bool ->
  ?duplicate_indexes:bool ->
  name:string ->
  columns:column list ->
  pkey:string list ->
  unit ->
  table
(** Default locality: [Regional_by_table None]. *)

val region_column : string
(** ["crdb_region"], the implicit partitioning column. *)

val find_column : table -> string -> column option

val with_region_column : table -> table
(** Ensure the implicit hidden [crdb_region] column exists (added with
    [DEFAULT gateway_region()] when missing), as REGIONAL BY ROW requires. *)

val values_of : (string * Value.t) list -> string list -> Value.t list
(** The values a row binds to the named columns, in order; [V_null] where
    the row has none. *)

val column_values : table -> (string * Value.t) list -> Value.t list
(** Order a row's bindings per the schema's column order; missing columns
    become [V_null]. @raise Invalid_argument on unknown column names. *)

val row_of_values : table -> Value.t list -> (string * Value.t) list

val region_computed_from : table -> string list option
(** If [crdb_region] is a computed column, the columns it derives from. *)

val compute_region : table -> (string * Value.t) list -> Value.t option
(** Evaluate the computed region for a row, if computed. *)

