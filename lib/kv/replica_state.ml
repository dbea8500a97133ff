module Ivar = Crdb_sim.Ivar
module Ts = Crdb_hlc.Timestamp
module Mvcc = Crdb_storage.Mvcc

type snap = { snap_store : Mvcc.t; snap_closed : Ts.t; snap_txns : Txnrec.t }

type op =
  | Op_put of {
      txn : int;
      ts : Ts.t;
      key : string;
      value : string option;
      pri : Ts.t;
          (* the writer's wound-wait priority, stamped onto the intent *)
      anchor : string;
          (* the writer's anchor key; when [key = anchor] the apply also
             registers the transaction record — registration piggybacks on
             the first write instead of costing its own consensus round *)
    }
  | Op_resolve of { txn : int; keys : string list; commit : Ts.t option }
  | Op_txn of { txn : int; tkey : string; upd : Txnrec.update }
      (* one transaction-record transition, anchored at [tkey] *)
  | Op_prevent of { txn : int; key : string; ts : Ts.t }
      (* QueryIntent-with-prevention (parallel-commit recovery): totally
         ordered against the Op_put it races by going through the same log *)
  | Op_split of { right : int; at : string }
      (* split trigger: each replica forks [at, end) into range [right] *)
  | Op_merge of { right : int; cell : snap Ivar.t }
      (* merge trigger: each replica absorbs [cell], once filled *)

type write_ack = [ `Applied | `Prevented | `Dropped ]

type cmd = {
  closed : Ts.t;
  proposer : int;
  proposed_at : int;
  op : op;
  done_ : write_ack Ivar.t;
}

type t = {
  store : Mvcc.t;
  locks : Lock_table.t;
  txns : Txnrec.t;
  mutable applied_closed : Ts.t;
  mutable side_closed : Ts.t;
  mutable pending_side : (int * Ts.t) list;
}

let of_store store =
  {
    store;
    locks = Lock_table.create ();
    txns = Txnrec.create ();
    applied_closed = Ts.zero;
    side_closed = Ts.zero;
    pending_side = [];
  }

let create () = of_store (Mvcc.create ())

let closed s = Ts.max s.applied_closed s.side_closed

let rec any_ready ~applied = function
  | [] -> false
  | (lai, _) :: rest -> lai <= applied || any_ready ~applied rest

(* Adopt every side-channel closed timestamp whose log prefix has applied.
   Runs on every apply, so it allocates nothing unless one is ready. *)
let promote_side s ~applied =
  if any_ready ~applied s.pending_side then begin
    let ready, pending =
      List.partition (fun (lai, _) -> lai <= applied) s.pending_side
    in
    List.iter (fun (_, ts) -> s.side_closed <- Ts.max s.side_closed ts) ready;
    s.pending_side <- pending
  end

let add_side s ~applied ~lai ts =
  if lai <= applied then s.side_closed <- Ts.max s.side_closed ts
  else s.pending_side <- (lai, ts) :: s.pending_side;
  promote_side s ~applied

let absorb s snap =
  Mvcc.absorb s.store snap.snap_store;
  Txnrec.absorb s.txns ~from:snap.snap_txns

let apply s ~applied cmd =
  s.applied_closed <- Ts.max s.applied_closed cmd.closed;
  promote_side s ~applied;
  match cmd.op with
  | Op_put { txn; ts; key; value; pri; anchor } -> (
      (* The transaction record rides the first (anchor) write: every
         replica of the anchor range learns of the transaction when the
         write applies, with no extra consensus round. *)
      if String.equal key anchor then
        Txnrec.apply s.txns ~txn ~key
          (Txnrec.U_register { pri; hb = cmd.proposed_at });
      match
        Mvcc.put_intent s.store ~pri ~anchor ~key ~txn_id:txn ~ts ~value ()
      with
      | Mvcc.Written -> `Applied
      | Mvcc.Write_prevented ->
          (* Commit-status recovery barred this write while it was in the
             log; the ack must tell the gateway its commit lost. *)
          `Prevented
      | Mvcc.Write_blocked i ->
          (* A serving leaseholder's lock table serializes writers over
             every earlier entry: a foreign intent means divergence. *)
          invalid_arg
            (Printf.sprintf
               "Replica_state.apply: entry %d: txn %d's write to %S blocked \
                by txn %d's intent"
               applied txn key i.Mvcc.txn_id))
  | Op_resolve { txn; keys; commit } ->
      List.iter
        (fun key ->
          Mvcc.resolve_intent s.store ~key ~txn_id:txn ~commit;
          Lock_table.release s.locks ~key ~txn)
        keys;
      `Applied
  | Op_txn { txn; tkey; upd } ->
      Txnrec.apply s.txns ~txn ~key:tkey upd;
      `Applied
  | Op_prevent { txn; key; ts } ->
      ignore
        (Mvcc.prevent s.store ~key ~txn_id:txn ~ts : [ `Found | `Prevented ]);
      `Applied
  | Op_split _ -> `Applied
  | Op_merge { cell; _ } ->
      Option.iter (absorb s) (Ivar.peek cell);
      `Applied

let write_ts = function
  | Op_put { ts; _ }
  | Op_resolve { commit = Some ts; _ }
  | Op_txn { upd = Txnrec.U_commit { ts } | Txnrec.U_stage { ts; _ }; _ } ->
      Some ts
  | Op_resolve _ | Op_txn _ | Op_prevent _ | Op_split _ | Op_merge _ -> None

let take_snapshot s =
  {
    snap_store = Mvcc.copy s.store;
    snap_closed = s.applied_closed;
    snap_txns = Txnrec.copy s.txns;
  }

let install_snapshot s snap =
  Lock_table.clear_locks s.locks;
  s.applied_closed <- Ts.max s.applied_closed snap.snap_closed;
  Mvcc.replace_with s.store snap.snap_store;
  Txnrec.replace_with s.txns snap.snap_txns

let split_off s ~at =
  let right = of_store (Mvcc.split_off s.store ~key:at) in
  right.applied_closed <- s.applied_closed;
  Lock_table.split_move s.locks ~into:right.locks ~at;
  Txnrec.split_move s.txns ~into:right.txns ~at;
  right

let restart s =
  Lock_table.reset s.locks;
  s.side_closed <- Ts.zero;
  s.pending_side <- []
