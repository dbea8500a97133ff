module Ivar = Crdb_sim.Ivar
module Ts = Crdb_hlc.Timestamp

type outcome = Acquired | Wounded of string | Pusher_aborted | Timed_out
type strength = Shared | Exclusive

type lock = {
  lk_txn : int;
  mutable lk_ts : Ts.t;
  lk_pri : Ts.t;
  lk_anchor : string;
  mutable lk_strength : strength;
}

let holder l = l.lk_txn
let lock_pri l = l.lk_pri
let lock_anchor l = l.lk_anchor

(* Invariant per key: either one Exclusive holder, or any number of Shared
   holders. Upgrades mutate [lk_strength] in place once the upgrader is the
   sole holder. *)
type t = {
  locks : (string, lock list ref) Hashtbl.t;
  queues : (string, unit Ivar.t list ref) Hashtbl.t;
  mutable nwaiters : int;
}

let create () = { locks = Hashtbl.create 16; queues = Hashtbl.create 16; nwaiters = 0 }

let holders t ~key =
  match Hashtbl.find_opt t.locks key with Some ls -> !ls | None -> []

let find t ~key ~txn =
  List.find_opt (fun l -> l.lk_txn = txn) (holders t ~key)

let foreign t ~key ~txn ~max_ts =
  (* Readers (and refreshes) only conflict with Exclusive holders: a Shared
     lock guards against writers, never against other readers. *)
  List.find_opt
    (fun l ->
      l.lk_strength = Exclusive && Some l.lk_txn <> txn && Ts.(l.lk_ts <= max_ts))
    (holders t ~key)

let foreign_in_span t ~start_key ~end_key ~txn ~max_ts =
  Hashtbl.fold
    (fun key ls acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if key >= start_key && key < end_key then
            match
              List.find_opt
                (fun l ->
                  l.lk_strength = Exclusive && Some l.lk_txn <> txn
                  && Ts.(l.lk_ts <= max_ts))
                !ls
            with
            | Some l -> Some (key, l)
            | None -> None
          else None)
    t.locks None

let foreign_for t ~key ~txn ~strength =
  (* What blocks an acquirer of [strength]: an Exclusive request conflicts
     with any foreign holder; a Shared request only with a foreign
     Exclusive holder. *)
  List.find_opt
    (fun l ->
      l.lk_txn <> txn
      && (strength = Exclusive || l.lk_strength = Exclusive))
    (holders t ~key)

let acquire t ?(pri = Ts.zero) ?(anchor = "") ?(strength = Exclusive) ~key ~txn
    ~ts () =
  let ls =
    match Hashtbl.find_opt t.locks key with
    | Some ls -> ls
    | None ->
        let ls = ref [] in
        Hashtbl.replace t.locks key ls;
        ls
  in
  match List.find_opt (fun l -> l.lk_txn = txn) !ls with
  | Some l ->
      l.lk_ts <- Ts.max l.lk_ts ts;
      (if strength = Exclusive && l.lk_strength = Shared then begin
         (* Upgrade: the caller must have established it is the sole
            holder (foreign Shared holders were pushed away first). *)
         assert (List.for_all (fun o -> o.lk_txn = txn) !ls);
         l.lk_strength <- Exclusive
       end);
      false
  | None ->
      assert (foreign_for t ~key ~txn ~strength = None);
      ls :=
        { lk_txn = txn; lk_ts = ts; lk_pri = pri; lk_anchor = anchor;
          lk_strength = strength }
        :: !ls;
      true

let wake t ~key =
  match Hashtbl.find_opt t.queues key with
  | None -> ()
  | Some q ->
      let ws = !q in
      Hashtbl.remove t.queues key;
      t.nwaiters <- t.nwaiters - List.length ws;
      (* Parking prepends, so [ws] is newest-first: wake oldest-first or a
         sustained stream of fresh writers starves the earliest waiter
         forever (its re-acquire always loses to a younger one woken
         ahead of it). *)
      List.iter (fun iv -> Ivar.fill iv ()) (List.rev ws)

let release t ~key ~txn =
  (match Hashtbl.find_opt t.locks key with
  | Some ls ->
      ls := List.filter (fun l -> l.lk_txn <> txn) !ls;
      if !ls = [] then Hashtbl.remove t.locks key
  | None -> ());
  wake t ~key

let park t ~key =
  let iv = Ivar.create () in
  (match Hashtbl.find_opt t.queues key with
  | Some q -> q := iv :: !q
  | None -> Hashtbl.replace t.queues key (ref [ iv ]));
  t.nwaiters <- t.nwaiters + 1;
  iv

let unpark t ~key iv =
  match Hashtbl.find_opt t.queues key with
  | None -> ()
  | Some q ->
      if List.memq iv !q then begin
        q := List.filter (fun i -> i != iv) !q;
        t.nwaiters <- t.nwaiters - 1;
        if !q = [] then Hashtbl.remove t.queues key
      end

let waiters t = t.nwaiters
let clear_locks t = Hashtbl.reset t.locks

let wake_all t =
  let qs = Hashtbl.fold (fun _ q acc -> !q @ acc) t.queues [] in
  Hashtbl.reset t.queues;
  t.nwaiters <- 0;
  List.iter (fun iv -> Ivar.fill iv ()) qs

let reset t =
  Hashtbl.reset t.locks;
  wake_all t

let split_move t ~into ~at =
  let moved_locks =
    Hashtbl.fold (fun k ls acc -> if k >= at then (k, ls) :: acc else acc) t.locks []
  in
  List.iter
    (fun (k, ls) ->
      Hashtbl.remove t.locks k;
      Hashtbl.replace into.locks k ls)
    moved_locks;
  let moved_queues =
    Hashtbl.fold (fun k q acc -> if k >= at then (k, q) :: acc else acc) t.queues []
  in
  List.iter
    (fun (k, q) ->
      Hashtbl.remove t.queues k;
      let n = List.length !q in
      t.nwaiters <- t.nwaiters - n;
      into.nwaiters <- into.nwaiters + n;
      match Hashtbl.find_opt into.queues k with
      | Some q' -> q' := !q @ !q'
      | None -> Hashtbl.replace into.queues k q)
    moved_queues

let absorb t ~from =
  Hashtbl.iter (fun k ls -> Hashtbl.replace t.locks k ls) from.locks;
  Hashtbl.reset from.locks
