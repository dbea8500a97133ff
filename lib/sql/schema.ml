type col_type = T_int | T_string | T_uuid | T_region

type default =
  | D_none
  | D_gateway_region
  | D_gen_uuid
  | D_computed of string list * (Value.t list -> Value.t)

type column = {
  col_name : string;
  col_type : col_type;
  col_default : default;
  col_hidden : bool;
}

let column ?(default = D_none) ?(hidden = false) name ty =
  { col_name = name; col_type = ty; col_default = default; col_hidden = hidden }

type locality =
  | Regional_by_table of string option
  | Regional_by_row
  | Global

let locality_to_sql = function
  | Regional_by_table None -> "REGIONAL BY TABLE IN PRIMARY REGION"
  | Regional_by_table (Some r) -> Printf.sprintf "REGIONAL BY TABLE IN %S" r
  | Regional_by_row -> "REGIONAL BY ROW"
  | Global -> "GLOBAL"

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
  tbl_auto_rehome : bool;
  tbl_duplicate_indexes : bool;
}

let table ?(indexes = []) ?(fks = []) ?(locality = Regional_by_table None)
    ?(auto_rehome = false) ?(duplicate_indexes = false) ~name ~columns ~pkey () =
  if pkey = [] then invalid_arg "Schema.table: empty primary key";
  List.iter
    (fun c ->
      if not (List.exists (fun col -> String.equal col.col_name c) columns) then
        invalid_arg (Printf.sprintf "Schema.table: pkey column %s undefined" c))
    pkey;
  {
    tbl_name = name;
    tbl_columns = columns;
    tbl_pkey = pkey;
    tbl_indexes = indexes;
    tbl_fks = fks;
    tbl_locality = locality;
    tbl_auto_rehome = auto_rehome;
    tbl_duplicate_indexes = duplicate_indexes;
  }

let region_column = "crdb_region"

let find_column t name =
  List.find_opt (fun c -> String.equal c.col_name name) t.tbl_columns

let with_region_column t =
  match find_column t region_column with
  | Some _ -> t
  | None ->
      {
        t with
        tbl_columns =
          t.tbl_columns
          @ [ column ~default:D_gateway_region ~hidden:true region_column T_region ];
      }

let value_of row c = match List.assoc_opt c row with Some v -> v | None -> Value.V_null
let values_of row cols = List.map (value_of row) cols

let column_values t row =
  List.iter
    (fun (name, _) ->
      if find_column t name = None then
        invalid_arg (Printf.sprintf "Schema: unknown column %s in %s" name t.tbl_name))
    row;
  List.map (fun c -> value_of row c.col_name) t.tbl_columns

let row_of_values t values =
  try List.combine (List.map (fun c -> c.col_name) t.tbl_columns) values
  with Invalid_argument _ ->
    invalid_arg
      (Printf.sprintf "Schema.row_of_values: arity mismatch for %s" t.tbl_name)

let region_computed_from t =
  match find_column t region_column with
  | Some { col_default = D_computed (cols, _); _ } -> Some cols
  | Some _ | None -> None

let compute_region t row =
  match find_column t region_column with
  | Some { col_default = D_computed (cols, f); _ } -> Some (f (values_of row cols))
  | Some _ | None -> None

