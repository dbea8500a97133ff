type partition = string option

let primary_index = 0
let dup_index_base = 100

let partition_component = function
  | None -> "_"
  | Some region -> String.map (function '/' -> '_' | c -> c) region

let object_prefix ~table_id ~index_no ~partition =
  String.concat ""
    [ "/t"; Value.zero_pad 4 table_id; "/i"; Value.zero_pad 3 index_no; "/p";
      partition_component partition ]

let row_key ~table_id ~index_no ~partition values =
  String.concat "/"
    (object_prefix ~table_id ~index_no ~partition
    :: List.map Value.encode_key_part values)

let partition_span ~table_id ~index_no ~partition =
  let prefix = object_prefix ~table_id ~index_no ~partition in
  (* All keys continue with '/' (0x2F); '0' (0x30) is the next byte. *)
  (prefix ^ "/", prefix ^ "0")

let prefix_span ~table_id ~index_no ~partition values =
  let prefix = row_key ~table_id ~index_no ~partition values in
  (prefix ^ "/", prefix ^ "0")
