module Vec = Crdb_stdx.Vec

type record = {
  rec_id : int;
  rec_parent : int option;
  rec_name : string;
  rec_ts : int;
  rec_dur : int;
  rec_node : int option;
  rec_range : int option;
  rec_txn : int option;
  rec_attrs : (string * string) list;
}

type span =
  | Nil
  | Live of {
      sp_id : int;
      sp_parent : int option;
      sp_name : string;
      sp_start : int;
      sp_node : int option;
      sp_range : int option;
      sp_txn : int option;
      mutable sp_attrs : (string * string) list;
      mutable sp_done : bool;
    }

type t = {
  now : unit -> int;
  mutable enabled : bool;
  mutable next_id : int;
  records : record Vec.t;
}

let create ~now () = { now; enabled = false; next_id = 1; records = Vec.create () }
let enable t = t.enabled <- true
let now t = t.now ()
let nil = Nil

let clear t =
  Vec.clear t.records;
  t.next_id <- 1

let num_records t = Vec.length t.records
let span_id = function Nil -> None | Live s -> Some s.sp_id

let span t ?parent ?node ?range ?txn name =
  if not t.enabled then Nil
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match parent with Some p -> span_id p | None -> None in
    Live
      {
        sp_id = id;
        sp_parent = parent;
        sp_name = name;
        sp_start = t.now ();
        sp_node = node;
        sp_range = range;
        sp_txn = txn;
        sp_attrs = [];
        sp_done = false;
      }
  end

let annotate sp key value =
  match sp with
  | Nil -> ()
  | Live s -> s.sp_attrs <- (key, value) :: s.sp_attrs

let annotate_int sp key n =
  match sp with Nil -> () | Live _ -> annotate sp key (string_of_int n)

let finish t sp =
  match sp with
  | Nil -> ()
  | Live s ->
      if not s.sp_done then begin
        s.sp_done <- true;
        Vec.push t.records
          {
            rec_id = s.sp_id;
            rec_parent = s.sp_parent;
            rec_name = s.sp_name;
            rec_ts = s.sp_start;
            rec_dur = t.now () - s.sp_start;
            rec_node = s.sp_node;
            rec_range = s.sp_range;
            rec_txn = s.sp_txn;
            rec_attrs = List.rev s.sp_attrs;
          }
      end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let sorted_records t =
  let arr = Array.of_list (Vec.to_list t.records) in
  Array.sort (fun a b -> Int.compare a.rec_id b.rec_id) arr;
  arr

let record_args buf r =
  Buffer.add_string buf "{";
  let first = ref true in
  let field k v =
    if not !first then Buffer.add_string buf ",";
    first := false;
    Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (json_escape k) v)
  in
  (match r.rec_range with Some rid -> field "range" (string_of_int rid) | None -> ());
  (match r.rec_txn with Some x -> field "txn" (string_of_int x) | None -> ());
  List.iter
    (fun (k, v) -> field k (Printf.sprintf "\"%s\"" (json_escape v)))
    r.rec_attrs;
  Buffer.add_string buf "}"

(* Chrome trace-event format (loadable in about://tracing and Perfetto):
   every span is an "X" complete event. The pid carries the node id so each
   node renders as its own process track; the tid carries the transaction
   id when one is attached. *)
let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  Array.iter
    (fun r ->
      if not !first then Buffer.add_string buf ",";
      first := false;
      Buffer.add_string buf "\n{";
      Buffer.add_string buf
        (Printf.sprintf "\"name\":\"%s\",\"cat\":\"crdb\"" (json_escape r.rec_name));
      Buffer.add_string buf (Printf.sprintf ",\"ph\":\"X\",\"dur\":%d" r.rec_dur);
      Buffer.add_string buf (Printf.sprintf ",\"ts\":%d" r.rec_ts);
      Buffer.add_string buf
        (Printf.sprintf ",\"pid\":%d"
           (match r.rec_node with Some n -> n | None -> 0));
      Buffer.add_string buf
        (Printf.sprintf ",\"tid\":%d"
           (match r.rec_txn with Some x -> x | None -> 0));
      Buffer.add_string buf (Printf.sprintf ",\"id\":%d" r.rec_id);
      Buffer.add_string buf ",\"args\":";
      record_args buf r;
      Buffer.add_string buf "}")
    (sorted_records t);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let pp_tree ppf t =
  let arr = sorted_records t in
  let children = Hashtbl.create 64 in
  let roots = ref [] in
  Array.iter
    (fun r ->
      match r.rec_parent with
      | Some p ->
          let l =
            match Hashtbl.find_opt children p with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace children p l;
                l
          in
          l := r :: !l
      | None -> roots := r :: !roots)
    arr;
  let scope r =
    String.concat ""
      [
        (match r.rec_node with Some n -> Printf.sprintf " n%d" n | None -> "");
        (match r.rec_range with Some x -> Printf.sprintf " r%d" x | None -> "");
        (match r.rec_txn with Some x -> Printf.sprintf " txn%d" x | None -> "");
      ]
  in
  let rec pp_rec depth r =
    let indent = String.make (2 * depth) ' ' in
    Format.fprintf ppf "%s%s%s [%d +%dus]@." indent r.rec_name (scope r)
      r.rec_ts r.rec_dur;
    List.iter
      (fun (k, v) -> Format.fprintf ppf "%s  · %s=%s@." indent k v)
      r.rec_attrs;
    match Hashtbl.find_opt children r.rec_id with
    | Some l -> List.iter (pp_rec (depth + 1)) (List.rev !l)
    | None -> ()
  in
  List.iter (pp_rec 0) (List.rev !roots)
