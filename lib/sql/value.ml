type t =
  | V_null
  | V_int of int
  | V_string of string
  | V_uuid of string
  | V_region of string

let equal a b =
  match (a, b) with
  | V_null, V_null -> true
  | V_int x, V_int y -> x = y
  | V_string x, V_string y | V_uuid x, V_uuid y | V_region x, V_region y ->
      String.equal x y
  | (V_null | V_int _ | V_string _ | V_uuid _ | V_region _), _ -> false

let pp ppf = function
  | V_null -> Format.pp_print_string ppf "NULL"
  | V_int i -> Format.pp_print_int ppf i
  | V_string s -> Format.fprintf ppf "'%s'" s
  | V_uuid u -> Format.fprintf ppf "'%s'" u
  | V_region r -> Format.fprintf ppf "'%s'" r

let to_display v = Format.asprintf "%a" pp v

(* Keys must sort like their values. Integers are encoded as fixed-width
   zero-padded decimals offset into the positive space; strings are escaped
   so that the key separator '/' never appears. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '/' -> Buffer.add_string buf "%2F"
      | '%' -> Buffer.add_string buf "%25"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let encode_key_part = function
  | V_null -> "~null~"
  | V_int i ->
      (* Offset so negatives sort before positives. *)
      Printf.sprintf "i%019d" (i + 1_000_000_000_000_000_000)
  | V_string s -> "s" ^ escape s
  | V_uuid u -> "u" ^ escape u
  | V_region r -> "r" ^ escape r

(* Row payloads: length-prefixed fields. *)
let encode_value = function
  | V_null -> "n:"
  | V_int i -> "i:" ^ string_of_int i
  | V_string s -> "s:" ^ s
  | V_uuid u -> "u:" ^ u
  | V_region r -> "r:" ^ r

let decode_value s =
  if String.length s < 2 then invalid_arg "Value.decode_row: short field";
  let body = String.sub s 2 (String.length s - 2) in
  match s.[0] with
  | 'n' -> V_null
  | 'i' -> (
      match int_of_string_opt body with
      | Some i -> V_int i
      | None -> invalid_arg "Value.decode_row: bad int")
  | 's' -> V_string body
  | 'u' -> V_uuid body
  | 'r' -> V_region body
  | _ -> invalid_arg "Value.decode_row: bad tag"

let encode_row values =
  let buf = Buffer.create 64 in
  List.iter
    (fun v ->
      let field = encode_value v in
      Buffer.add_string buf (string_of_int (String.length field));
      Buffer.add_char buf '|';
      Buffer.add_string buf field)
    values;
  Buffer.contents buf

let decode_row s =
  let len = String.length s in
  let rec go pos acc =
    if pos >= len then List.rev acc
    else
      match String.index_from_opt s pos '|' with
      | None -> invalid_arg "Value.decode_row: missing length separator"
      | Some bar ->
          let field_len =
            match int_of_string_opt (String.sub s pos (bar - pos)) with
            | Some n when n >= 0 -> n
            | Some _ | None -> invalid_arg "Value.decode_row: bad length"
          in
          if bar + 1 + field_len > len then
            invalid_arg "Value.decode_row: truncated field";
          let field = String.sub s (bar + 1) field_len in
          go (bar + 1 + field_len) (decode_value field :: acc)
  in
  go 0 []

let hex = "0123456789abcdef"

let gen_uuid rng =
  let buf = Buffer.create 36 in
  for i = 0 to 31 do
    if i = 8 || i = 12 || i = 16 || i = 20 then Buffer.add_char buf '-';
    Buffer.add_char buf hex.[Crdb_stdx.Rng.int rng 16]
  done;
  V_uuid (Buffer.contents buf)
