module Ivar = Crdb_sim.Ivar
module Ts = Crdb_hlc.Timestamp

type lock = {
  lk_txn : int;
  mutable lk_ts : Ts.t;
  lk_pri : Ts.t;
  lk_anchor : string;
}

let holder l = l.lk_txn
let lock_pri l = l.lk_pri
let lock_anchor l = l.lk_anchor

(* At most one lock per key: only writers take locks, and a writer takes
   one only after the key's previous holder released it. *)
type t = {
  locks : (string, lock) Hashtbl.t;
  queues : (string, unit Ivar.t list ref) Hashtbl.t;
}

let create () = { locks = Hashtbl.create 16; queues = Hashtbl.create 16 }

(* Held by a transaction other than [txn] at a timestamp [<= max_ts]. *)
let blocks l ~txn ~max_ts = Some l.lk_txn <> txn && Ts.(l.lk_ts <= max_ts)

let foreign t ~key ~txn ~max_ts =
  match Hashtbl.find_opt t.locks key with
  | Some l when blocks l ~txn ~max_ts -> Some l
  | Some _ | None -> None

let foreign_in_span t ~start_key ~end_key ~txn ~max_ts =
  Hashtbl.fold
    (fun key l acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if key >= start_key && key < end_key && blocks l ~txn ~max_ts then
            Some (key, l)
          else None)
    t.locks None

let foreign_for t ~key ~txn =
  foreign t ~key ~txn:(Some txn) ~max_ts:Ts.max_value

let acquire t ?(pri = Ts.zero) ?(anchor = "") ~key ~txn ~ts () =
  match Hashtbl.find_opt t.locks key with
  | Some l ->
      assert (l.lk_txn = txn);
      l.lk_ts <- Ts.max l.lk_ts ts;
      false
  | None ->
      Hashtbl.replace t.locks key
        { lk_txn = txn; lk_ts = ts; lk_pri = pri; lk_anchor = anchor };
      true

let wake t ~key =
  match Hashtbl.find_opt t.queues key with
  | None -> ()
  | Some q ->
      let ws = !q in
      Hashtbl.remove t.queues key;
      (* Parking prepends, so [ws] is newest-first: wake oldest-first or a
         sustained stream of fresh writers starves the earliest waiter
         forever (its re-acquire always loses to a younger one woken
         ahead of it). *)
      List.iter (fun iv -> Ivar.fill iv ()) (List.rev ws)

let release t ~key ~txn =
  (match Hashtbl.find_opt t.locks key with
  | Some l when l.lk_txn = txn -> Hashtbl.remove t.locks key
  | Some _ | None -> ());
  wake t ~key

let park t ~key =
  let iv = Ivar.create () in
  (match Hashtbl.find_opt t.queues key with
  | Some q -> q := iv :: !q
  | None -> Hashtbl.replace t.queues key (ref [ iv ]));
  iv

let unpark t ~key iv =
  match Hashtbl.find_opt t.queues key with
  | None -> ()
  | Some q ->
      if List.memq iv !q then begin
        q := List.filter (fun i -> i != iv) !q;
        if !q = [] then Hashtbl.remove t.queues key
      end

let clear_locks t = Hashtbl.reset t.locks

let wake_all t =
  let qs = Hashtbl.fold (fun _ q acc -> !q @ acc) t.queues [] in
  Hashtbl.reset t.queues;
  List.iter (fun iv -> Ivar.fill iv ()) qs

let reset t =
  Hashtbl.reset t.locks;
  wake_all t

let split_move t ~into ~at =
  let moved_locks =
    Hashtbl.fold (fun k l acc -> if k >= at then (k, l) :: acc else acc) t.locks []
  in
  List.iter
    (fun (k, l) ->
      Hashtbl.remove t.locks k;
      Hashtbl.replace into.locks k l)
    moved_locks;
  let moved_queues =
    Hashtbl.fold (fun k q acc -> if k >= at then (k, q) :: acc else acc) t.queues []
  in
  List.iter
    (fun (k, q) ->
      Hashtbl.remove t.queues k;
      match Hashtbl.find_opt into.queues k with
      | Some q' -> q' := !q @ !q'
      | None -> Hashtbl.replace into.queues k q)
    moved_queues
