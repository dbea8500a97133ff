module Vec = Crdb_stdx.Vec
module Ts = Crdb_hlc.Timestamp

type op =
  | Read of { key : string }
  | Write of { key : string; value : string }
  | Transfer of { src : string; dst : string; amount : int }
  | Snapshot

type outcome =
  | Ok_read of string option
  | Ok_write
  | Ok_transfer
  | Ok_snapshot of (string * int) list
  | Failed of string
  | Info of string

type entry = {
  id : int;
  client : int;
  op : op;
  invoked : int;
  mutable completed : int;
  mutable outcome : outcome option;
}

type txn_op =
  | T_read of { key : string; value : string option }
  | T_write of { key : string; value : string }

type txn_status =
  | T_committed of { commit_ts : Ts.t }
  | T_aborted
  | T_indeterminate of { commit_ts : Ts.t option }

type txn = {
  tid : int;
  t_client : int;
  t_began : int;
  t_ended : int;
  t_ops : txn_op list;
  t_status : txn_status;
}

type t = { entries : entry Vec.t; txns : txn Vec.t }

let create () = { entries = Vec.create (); txns = Vec.create () }
let entries t = Vec.to_list t.entries

let record_txn t ~tid ~client ~began ~ended ~ops ~status =
  Vec.push t.txns
    { tid; t_client = client; t_began = began; t_ended = ended; t_ops = ops; t_status = status }

let txns t = Vec.to_list t.txns
let num_txns t = Vec.length t.txns

let invoke t ~client ~now op =
  let e =
    { id = Vec.length t.entries; client; op; invoked = now; completed = -1; outcome = None }
  in
  Vec.push t.entries e;
  e

let complete e ~now outcome =
  e.completed <- now;
  e.outcome <- Some outcome

let op_to_string = function
  | Read { key } -> Printf.sprintf "read(%s)" key
  | Write { key; value } -> Printf.sprintf "write(%s, %s)" key value
  | Transfer { src; dst; amount } -> Printf.sprintf "transfer(%s -> %s, %d)" src dst amount
  | Snapshot -> "snapshot"

let outcome_to_string = function
  | Ok_read None -> "ok nil"
  | Ok_read (Some v) -> Printf.sprintf "ok %s" v
  | Ok_write -> "ok"
  | Ok_transfer -> "ok"
  | Ok_snapshot rows ->
      Printf.sprintf "ok {%s}"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) rows))
  | Failed msg -> Printf.sprintf "failed (%s)" msg
  | Info msg -> Printf.sprintf "info (%s)" msg

let entry_to_string e =
  let completion =
    match e.outcome with
    | None -> "info (pending at history end)"
    | Some o -> outcome_to_string o
  in
  let completed = if e.completed < 0 then "-" else string_of_int e.completed in
  Printf.sprintf "[%6d, %6s] c%d #%d %-28s %s"
    e.invoked completed e.client e.id (op_to_string e.op) completion

let to_string t =
  String.concat "\n" (List.map entry_to_string (entries t))

let txn_op_to_string = function
  | T_read { key; value } ->
      Printf.sprintf "r(%s)=%s" key (match value with None -> "nil" | Some v -> v)
  | T_write { key; value } -> Printf.sprintf "w(%s)=%s" key value

let txn_status_to_string = function
  | T_committed { commit_ts } -> Printf.sprintf "committed@%s" (Ts.to_string commit_ts)
  | T_aborted -> "aborted"
  | T_indeterminate { commit_ts = None } -> "indeterminate"
  | T_indeterminate { commit_ts = Some ts } ->
      Printf.sprintf "indeterminate@%s" (Ts.to_string ts)

let txn_to_string x =
  Printf.sprintf "[%6d, %6d] c%d T%d %-24s %s" x.t_began x.t_ended x.t_client
    x.tid
    (txn_status_to_string x.t_status)
    (String.concat " " (List.map txn_op_to_string x.t_ops))

let txns_to_string t =
  String.concat "\n" (List.map txn_to_string (txns t))

(* ------------------------------------------------------------------ *)
(* Serialization: one line per record, space-separated tokens, strings
   quoted with OCaml escapes ([%S] / [Scanf.unescaped]). The format is
   versioned so dumped histories from old binaries fail loudly instead of
   parsing wrong. *)

let header = "crdb-history v1"

let bprint_string buf s = Buffer.add_string buf (Printf.sprintf " %S" s)

let serialize_entry buf (e : entry) =
  Buffer.add_string buf
    (Printf.sprintf "entry %d %d %d %d" e.id e.client e.invoked e.completed);
  (match e.op with
  | Read { key } ->
      Buffer.add_string buf " read";
      bprint_string buf key
  | Write { key; value } ->
      Buffer.add_string buf " write";
      bprint_string buf key;
      bprint_string buf value
  | Transfer { src; dst; amount } ->
      Buffer.add_string buf " transfer";
      bprint_string buf src;
      bprint_string buf dst;
      Buffer.add_string buf (Printf.sprintf " %d" amount)
  | Snapshot -> Buffer.add_string buf " snapshot");
  (match e.outcome with
  | None -> Buffer.add_string buf " pending"
  | Some (Ok_read None) -> Buffer.add_string buf " ok_read_nil"
  | Some (Ok_read (Some v)) ->
      Buffer.add_string buf " ok_read";
      bprint_string buf v
  | Some Ok_write -> Buffer.add_string buf " ok_write"
  | Some Ok_transfer -> Buffer.add_string buf " ok_transfer"
  | Some (Ok_snapshot rows) ->
      Buffer.add_string buf (Printf.sprintf " ok_snapshot %d" (List.length rows));
      List.iter
        (fun (k, b) ->
          bprint_string buf k;
          Buffer.add_string buf (Printf.sprintf " %d" b))
        rows
  | Some (Failed m) ->
      Buffer.add_string buf " failed";
      bprint_string buf m
  | Some (Info m) ->
      Buffer.add_string buf " info";
      bprint_string buf m);
  Buffer.add_char buf '\n'

let serialize_txn buf (x : txn) =
  Buffer.add_string buf
    (Printf.sprintf "txn %d %d %d %d" x.tid x.t_client x.t_began x.t_ended);
  (match x.t_status with
  | T_committed { commit_ts } ->
      Buffer.add_string buf
        (Printf.sprintf " committed %d %d" (Ts.wall commit_ts) (Ts.logical commit_ts))
  | T_aborted -> Buffer.add_string buf " aborted"
  | T_indeterminate { commit_ts = None } -> Buffer.add_string buf " indet"
  | T_indeterminate { commit_ts = Some ts } ->
      Buffer.add_string buf
        (Printf.sprintf " indet_at %d %d" (Ts.wall ts) (Ts.logical ts)));
  List.iter
    (fun op ->
      match op with
      | T_read { key; value = None } ->
          Buffer.add_string buf " rn";
          bprint_string buf key
      | T_read { key; value = Some v } ->
          Buffer.add_string buf " rv";
          bprint_string buf key;
          bprint_string buf v
      | T_write { key; value } ->
          Buffer.add_string buf " w";
          bprint_string buf key;
          bprint_string buf value)
    x.t_ops;
  Buffer.add_char buf '\n'

let serialize t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Vec.iter (serialize_entry buf) t.entries;
  Vec.iter (serialize_txn buf) t.txns;
  Buffer.contents buf

(* Split a line into tokens; a token starting with '"' extends to its
   unescaped closing quote and is returned decoded. *)
let tokenize line =
  let n = String.length line in
  let rec skip i = if i < n && line.[i] = ' ' then skip (i + 1) else i in
  let rec quoted_end i =
    (* index of the closing quote, honoring backslash escapes *)
    if i >= n then failwith "unterminated string"
    else if line.[i] = '\\' then quoted_end (i + 2)
    else if line.[i] = '"' then i
    else quoted_end (i + 1)
  in
  let rec go acc i =
    let i = skip i in
    if i >= n then List.rev acc
    else if line.[i] = '"' then begin
      let e = quoted_end (i + 1) in
      let tok = Scanf.unescaped (String.sub line (i + 1) (e - i - 1)) in
      go (tok :: acc) (e + 1)
    end
    else begin
      let j = ref i in
      while !j < n && line.[!j] <> ' ' do incr j done;
      go (String.sub line i (!j - i) :: acc) !j
    end
  in
  go [] 0

exception Parse of string

let int_tok s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> raise (Parse (Printf.sprintf "expected integer, got %S" s))

let parse_entry t = function
  | id :: client :: invoked :: completed :: rest ->
      let id = int_tok id and client = int_tok client in
      let invoked = int_tok invoked and completed = int_tok completed in
      let op, rest =
        match rest with
        | "read" :: key :: rest -> (Read { key }, rest)
        | "write" :: key :: value :: rest -> (Write { key; value }, rest)
        | "transfer" :: src :: dst :: amount :: rest ->
            (Transfer { src; dst; amount = int_tok amount }, rest)
        | "snapshot" :: rest -> (Snapshot, rest)
        | _ -> raise (Parse "bad entry op")
      in
      let outcome =
        match rest with
        | [ "pending" ] -> None
        | [ "ok_read_nil" ] -> Some (Ok_read None)
        | [ "ok_read"; v ] -> Some (Ok_read (Some v))
        | [ "ok_write" ] -> Some Ok_write
        | [ "ok_transfer" ] -> Some Ok_transfer
        | "ok_snapshot" :: _count :: rows ->
            let rec pairs = function
              | [] -> []
              | k :: b :: rest -> (k, int_tok b) :: pairs rest
              | _ -> raise (Parse "odd snapshot row list")
            in
            Some (Ok_snapshot (pairs rows))
        | [ "failed"; m ] -> Some (Failed m)
        | [ "info"; m ] -> Some (Info m)
        | _ -> raise (Parse "bad entry outcome")
      in
      if id <> Vec.length t.entries then raise (Parse "entry ids out of order");
      Vec.push t.entries { id; client; op; invoked; completed; outcome }
  | _ -> raise (Parse "truncated entry")

let parse_txn t = function
  | tid :: client :: began :: ended :: rest ->
      let tid = int_tok tid and client = int_tok client in
      let began = int_tok began and ended = int_tok ended in
      let status, rest =
        match rest with
        | "committed" :: w :: l :: rest ->
            (T_committed { commit_ts = Ts.make ~wall:(int_tok w) ~logical:(int_tok l) }, rest)
        | "aborted" :: rest -> (T_aborted, rest)
        | "indet" :: rest -> (T_indeterminate { commit_ts = None }, rest)
        | "indet_at" :: w :: l :: rest ->
            ( T_indeterminate
                { commit_ts = Some (Ts.make ~wall:(int_tok w) ~logical:(int_tok l)) },
              rest )
        | _ -> raise (Parse "bad txn status")
      in
      let rec ops = function
        | [] -> []
        | "rn" :: key :: rest -> T_read { key; value = None } :: ops rest
        | "rv" :: key :: v :: rest -> T_read { key; value = Some v } :: ops rest
        | "w" :: key :: v :: rest -> T_write { key; value = v } :: ops rest
        | _ -> raise (Parse "bad txn op")
      in
      record_txn t ~tid ~client ~began ~ended ~ops:(ops rest)
        ~status
  | _ -> raise (Parse "truncated txn")

let deserialize s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | hd :: rest when String.trim hd = header -> (
      let t = create () in
      try
        List.iteri
          (fun lineno line ->
            if String.trim line <> "" then
              match tokenize line with
              | "entry" :: fields -> parse_entry t fields
              | "txn" :: fields -> parse_txn t fields
              | tag :: _ ->
                  raise (Parse (Printf.sprintf "line %d: unknown record %S" (lineno + 2) tag))
              | [] -> ())
          rest;
        Ok t
      with
      | Parse msg -> Error msg
      | Failure msg -> Error msg
      | Scanf.Scan_failure msg -> Error msg)
  | hd :: _ -> Error (Printf.sprintf "bad header %S (expected %S)" (String.trim hd) header)
  | [] -> Error "empty input"
