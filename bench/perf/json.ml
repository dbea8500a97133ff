(* Just enough JSON to read back the benchmark's own result files and
   BENCHMARK.json. Strings are ASCII; \u escapes above 0x7f are not
   decoded. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s and i = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !i)) in
  let peek () = if !i < n then Some s.[!i] else None in
  let rec skip () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') ->
        incr i;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () = Some c then incr i else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let len = String.length word in
    if !i + len <= n && String.sub s !i len = word then begin
      i := !i + len;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr i
      | Some '\\' ->
          incr i;
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some ('"' | '\\' | '/') -> Buffer.add_char b s.[!i]
          | Some 'u' when !i + 5 <= n ->
              let code = int_of_string ("0x" ^ String.sub s (!i + 1) 4) in
              Buffer.add_char b (Char.chr (code land 0x7f));
              i := !i + 4
          | _ -> fail "bad escape");
          incr i;
          go ()
      | Some c ->
          Buffer.add_char b c;
          incr i;
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* [items] parses a comma-separated sequence up to [close]. *)
  let items close item =
    incr i;
    skip ();
    if peek () = Some close then begin
      incr i;
      []
    end
    else
      let rec more acc =
        let acc = item () :: acc in
        skip ();
        if peek () = Some ',' then begin
          incr i;
          more acc
        end
        else begin
          expect close;
          List.rev acc
        end
      in
      more []
  in
  let rec value () =
    skip ();
    match peek () with
    | None -> fail "unexpected end"
    | Some '{' ->
        Obj
          (items '}' (fun () ->
               let k = string () in
               expect ':';
               (k, value ())))
    | Some '[' -> Arr (items ']' value)
    | Some '"' -> Str (string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> (
        let start = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do
          incr i
        done;
        match float_of_string_opt (String.sub s start (!i - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !i <> n then fail "trailing data";
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let member k = function
  | Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> raise (Error ("missing key " ^ k)))
  | _ -> raise (Error ("not an object, looking for " ^ k))

let to_list = function Arr l -> l | _ -> raise (Error "not an array")
let to_string = function Str s -> s | _ -> raise (Error "not a string")
let to_float = function Num f -> f | _ -> raise (Error "not a number")

(* Numbers printed with all their digits, so a time never reads the same
   on two runs merely by rounding. *)
let num f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"

let arr vs = "[" ^ String.concat ", " vs ^ "]"
