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
  mutable tr_status : status;
  mutable tr_hb : int;
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

type t = { tbl : (int, record) Hashtbl.t }

let create () = { tbl = Hashtbl.create 16 }
let find t ~txn = Hashtbl.find_opt t.tbl txn

let ensure t ~txn ~key ~pri ~hb =
  match Hashtbl.find_opt t.tbl txn with
  | Some r -> r
  | None ->
      let r =
        { tr_id = txn; tr_key = key; tr_pri = pri; tr_status = Pending;
          tr_hb = hb }
      in
      Hashtbl.replace t.tbl txn r;
      r

(* First decision wins: Committed and Aborted are terminal. Every guard
   below re-checks the applied state, so an update that lost the log-order
   race degrades to a no-op rather than overwriting the winner. *)
let apply t ~txn ~key upd =
  match upd with
  | U_register { pri; hb } -> ignore (ensure t ~txn ~key ~pri ~hb : record)
  | U_heartbeat { hb } -> (
      match find t ~txn with
      | Some ({ tr_status = Pending | Staging _; _ } as r) ->
          r.tr_hb <- max r.tr_hb hb
      | Some _ | None -> ())
  | U_stage { pri; ts; inflight; hb } -> (
      let r = ensure t ~txn ~key ~pri ~hb in
      match r.tr_status with
      | Pending | Staging _ ->
          r.tr_status <- Staging { ts; inflight };
          r.tr_hb <- max r.tr_hb hb
      | Committed _ | Aborted _ -> ())
  | U_commit { ts } -> (
      match find t ~txn with
      | Some ({ tr_status = Pending | Staging _; _ } as r) ->
          r.tr_status <- Committed ts
      | Some _ -> ()
      | None ->
          (* A commit decision for a record this table never saw (the
             record was cleaned up, or the finalize raced a lifecycle
             event): persist the decision so later pushes resolve the
             intents instead of declaring the transaction abandoned. *)
          let r = ensure t ~txn ~key ~pri:Ts.zero ~hb:0 in
          r.tr_status <- Committed ts)
  | U_wound { reason } -> (
      match find t ~txn with
      | Some ({ tr_status = Pending; _ } as r) ->
          r.tr_status <- Aborted { reason; wound = true }
      | Some _ | None -> ())
  | U_abandon { reason; if_hb_before } -> (
      match find t ~txn with
      | Some ({ tr_status = Pending; _ } as r) when r.tr_hb <= if_hb_before ->
          r.tr_status <- Aborted { reason; wound = false }
      | Some _ | None -> ())
  | U_recover_abort { reason } -> (
      match find t ~txn with
      | Some ({ tr_status = Staging _; _ } as r) ->
          r.tr_status <- Aborted { reason; wound = true }
      | Some _ | None -> ())
  | U_coord_abort { reason } -> (
      let r = ensure t ~txn ~key ~pri:Ts.zero ~hb:0 in
      match r.tr_status with
      | Pending | Staging _ -> r.tr_status <- Aborted { reason; wound = false }
      | Committed _ | Aborted _ -> ())

let status t ~txn =
  match find t ~txn with Some r -> Some r.tr_status | None -> None

let older (a_ts, a_id) (b_ts, b_id) =
  Ts.(a_ts < b_ts) || (Ts.equal a_ts b_ts && a_id < b_id)

let copy_record r =
  { tr_id = r.tr_id; tr_key = r.tr_key; tr_pri = r.tr_pri;
    tr_status = r.tr_status; tr_hb = r.tr_hb }

let copy t =
  let dst = create () in
  Hashtbl.iter (fun id r -> Hashtbl.replace dst.tbl id (copy_record r)) t.tbl;
  dst

let replace_with t src =
  Hashtbl.reset t.tbl;
  Hashtbl.iter (fun id r -> Hashtbl.replace t.tbl id (copy_record r)) src.tbl

let split_move t ~into ~at =
  let moved =
    Hashtbl.fold
      (fun id r acc -> if r.tr_key >= at then (id, r) :: acc else acc)
      t.tbl []
  in
  List.iter
    (fun (id, r) ->
      Hashtbl.remove t.tbl id;
      Hashtbl.replace into.tbl id r)
    moved

let absorb t ~from =
  Hashtbl.iter (fun id r -> Hashtbl.replace t.tbl id (copy_record r)) from.tbl
