type kind =
  | Split
  | Merge
  | Rebalance
  | Lease_transfer
  | Lease_acquired
  | Wound
  | Abandoned_cleanup
  | Fault
  | Heal
  | Split_queued
  | Merge_queued
  | Lease_moved
  | Queue_skipped
  | Txn_staged
  | Txn_recovered

let kind_to_string = function
  | Split -> "split"
  | Merge -> "merge"
  | Rebalance -> "rebalance"
  | Lease_transfer -> "lease_transfer"
  | Lease_acquired -> "lease_acquired"
  | Wound -> "wound"
  | Abandoned_cleanup -> "abandoned_cleanup"
  | Fault -> "fault"
  | Heal -> "heal"
  | Split_queued -> "split_queued"
  | Merge_queued -> "merge_queued"
  | Lease_moved -> "lease_moved"
  | Queue_skipped -> "queue_skipped"
  | Txn_staged -> "txn_staged"
  | Txn_recovered -> "txn_recovered"

type event = {
  ts : int;
  kind : kind;
  node : int option;
  range : int option;
  txn : int option;
  attrs : (string * string) list;
}

module Vec = Crdb_stdx.Vec

type t = { now : unit -> int; log_ : event Vec.t }

let create ~now () = { now; log_ = Vec.create () }

let log t ?node ?range ?txn ?(attrs = []) kind =
  Vec.push t.log_ { ts = t.now (); kind; node; range; txn; attrs }

let all t = Vec.to_list t.log_
let length t = Vec.length t.log_
let of_kind t kind = List.filter (fun e -> e.kind = kind) (all t)
let count t kind = List.length (of_kind t kind)
let clear t = Vec.clear t.log_

let pp_scope ppf e =
  let part name = function
    | Some v -> Format.fprintf ppf " %s=%d" name v
    | None -> ()
  in
  part "node" e.node;
  part "range" e.range;
  part "txn" e.txn

let pp_event ppf e =
  Format.fprintf ppf "%10.3fs  %-17s" (float_of_int e.ts /. 1e6)
    (kind_to_string e.kind);
  pp_scope ppf e;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) e.attrs

let pp_timeline ppf t =
  let evs = all t in
  if evs = [] then Format.fprintf ppf "(no events)@."
  else List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) evs

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf "{\"ts\":%d,\"kind\":\"%s\"" e.ts
           (kind_to_string e.kind));
      (match e.node with
      | Some n -> Buffer.add_string buf (Printf.sprintf ",\"node\":%d" n)
      | None -> ());
      (match e.range with
      | Some r -> Buffer.add_string buf (Printf.sprintf ",\"range\":%d" r)
      | None -> ());
      (match e.txn with
      | Some x -> Buffer.add_string buf (Printf.sprintf ",\"txn\":%d" x)
      | None -> ());
      if e.attrs <> [] then begin
        Buffer.add_string buf ",\"attrs\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_string buf ",";
            Buffer.add_string buf
              (Printf.sprintf "\"%s\":\"%s\"" (Trace.json_escape k)
                 (Trace.json_escape v)))
          e.attrs;
        Buffer.add_string buf "}"
      end;
      Buffer.add_string buf "}")
    (all t);
  Buffer.add_string buf "]";
  Buffer.contents buf
