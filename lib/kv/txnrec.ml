module Ts = Crdb_hlc.Timestamp

type status =
  | Pending
  | Staging of { ts : Ts.t; inflight : string list }
  | Committed of Ts.t
  | Aborted of { reason : string; wound : bool }

type record = {
  tr_id : int;
  tr_key : string;
  tr_pri : Ts.t;
  tr_status : status;
  tr_hb : int;
}

type update =
  | U_register of { pri : Ts.t; hb : int }
  | U_heartbeat of { hb : int }
  | U_stage of { pri : Ts.t; ts : Ts.t; inflight : string list; hb : int }
  | U_commit of { ts : Ts.t }
  | U_wound of { reason : string }
  | U_abandon of { reason : string; if_hb_before : int }
  | U_recover_abort of { reason : string }
  | U_coord_abort of { reason : string }

module Imap = Map.Make (Int)

(* Immutable records in an immutable map, like an [Mvcc] store: tables
   share maps, and a transition installs a new record in a new map. *)
type t = { mutable tbl : record Imap.t }

let create () = { tbl = Imap.empty }
let find t ~txn = Imap.find_opt txn t.tbl
let set t r = t.tbl <- Imap.add r.tr_id r t.tbl

let pending ~txn ~key ~pri ~hb =
  { tr_id = txn; tr_key = key; tr_pri = pri; tr_status = Pending; tr_hb = hb }

(* [txn]'s record, or a new Pending one that is not yet in [t]. *)
let get t ~txn ~key ~pri ~hb =
  match find t ~txn with Some r -> r | None -> pending ~txn ~key ~pri ~hb

(* First decision wins: Committed and Aborted are terminal. Every guard
   below re-checks the applied state, so an update that lost the log-order
   race degrades to a no-op rather than overwriting the winner. *)
let apply t ~txn ~key upd =
  match upd with
  | U_register { pri; hb } ->
      if not (Imap.mem txn t.tbl) then set t (pending ~txn ~key ~pri ~hb)
  | U_heartbeat { hb } -> (
      match find t ~txn with
      | Some ({ tr_status = Pending | Staging _; _ } as r) ->
          set t { r with tr_hb = max r.tr_hb hb }
      | Some _ | None -> ())
  | U_stage { pri; ts; inflight; hb } -> (
      let r = get t ~txn ~key ~pri ~hb in
      match r.tr_status with
      | Pending | Staging _ ->
          let tr_hb = max r.tr_hb hb in
          set t { r with tr_status = Staging { ts; inflight }; tr_hb }
      | Committed _ | Aborted _ -> ())
  | U_commit { ts } -> (
      (* A commit decision for a record this table never saw (the record
         was cleaned up, or the finalize raced a lifecycle event) is
         persisted too, so later pushes resolve the intents instead of
         declaring the transaction abandoned. *)
      let r = get t ~txn ~key ~pri:Ts.zero ~hb:0 in
      match r.tr_status with
      | Pending | Staging _ -> set t { r with tr_status = Committed ts }
      | Committed _ | Aborted _ -> ())
  | U_wound { reason } -> (
      match find t ~txn with
      | Some ({ tr_status = Pending; _ } as r) ->
          set t { r with tr_status = Aborted { reason; wound = true } }
      | Some _ | None -> ())
  | U_abandon { reason; if_hb_before } -> (
      match find t ~txn with
      | Some ({ tr_status = Pending; _ } as r) when r.tr_hb <= if_hb_before ->
          set t { r with tr_status = Aborted { reason; wound = false } }
      | Some _ | None -> ())
  | U_recover_abort { reason } -> (
      match find t ~txn with
      | Some ({ tr_status = Staging _; _ } as r) ->
          set t { r with tr_status = Aborted { reason; wound = true } }
      | Some _ | None -> ())
  | U_coord_abort { reason } -> (
      let r = get t ~txn ~key ~pri:Ts.zero ~hb:0 in
      match r.tr_status with
      | Pending | Staging _ ->
          set t { r with tr_status = Aborted { reason; wound = false } }
      | Committed _ | Aborted _ -> ())

let status t ~txn =
  match find t ~txn with Some r -> Some r.tr_status | None -> None

let older (a_ts, a_id) (b_ts, b_id) =
  Ts.(a_ts < b_ts) || (Ts.equal a_ts b_ts && a_id < b_id)

let copy t = { tbl = t.tbl }
let replace_with t src = t.tbl <- src.tbl
let shares t u = t.tbl == u.tbl

let split_off t ~at =
  let right, left = Imap.partition (fun _ r -> r.tr_key >= at) t.tbl in
  t.tbl <- left;
  { tbl = right }

let absorb t ~from = t.tbl <- Imap.union (fun _ _ r -> Some r) t.tbl from.tbl
