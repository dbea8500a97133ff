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

(* The store effect of [op], a function of the map and [op] alone. *)
let write store ~applied op =
  match op with
  | Op_put { txn; ts; key; value; pri; anchor } -> (
      match
        Mvcc.put_intent store ~pri ~anchor ~key ~txn_id:txn ~ts ~value ()
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
        (fun key -> Mvcc.resolve_intent store ~key ~txn_id:txn ~commit)
        keys;
      `Applied
  | Op_prevent { txn; key; ts } ->
      ignore
        (Mvcc.prevent store ~key ~txn_id:txn ~ts : [ `Found | `Prevented ]);
      `Applied
  | Op_merge { cell; _ } ->
      Option.iter
        (fun snap -> Mvcc.absorb store snap.snap_store)
        (Ivar.peek cell);
      `Applied
  | Op_txn _ | Op_split _ -> `Applied

(* The replicas of a range reach each entry from the same map as long as
   they started from one and took the same entries and snapshots. So the
   first to apply an entry records the map it started from and the map it
   produced, and a later replica that still holds that starting map adopts
   the result. A recorded effect matches by the physical identity of its
   starting map and its input; a replica that matches none computes, and
   records its own. Both recorded maps are copies: no live store owns a
   record in them, so neither changes after it is recorded. *)
type recorded =
  | Wrote of {
      op : op;
      before : Mvcc.t;
      after : Mvcc.t;
      ack : [ `Applied | `Prevented ];
    }
  | Split of { at : string; before : Mvcc.t; left : Mvcc.t; right : Mvcc.t }

type shared = {
  effects : (int, recorded list) Hashtbl.t; (* by log index *)
  mutable forgotten : int; (* every index up to this one is forgotten *)
  mutable newest : int; (* the highest index recorded *)
}

let shared () = { effects = Hashtbl.create 16; forgotten = 0; newest = 0 }

let recorded sh ~applied =
  match Hashtbl.find sh.effects applied with
  | rs -> rs
  | exception Not_found -> []

let record sh ~applied r =
  Hashtbl.replace sh.effects applied (r :: recorded sh ~applied);
  sh.newest <- Int.max sh.newest applied

let forget sh ~through =
  for i = sh.forgotten + 1 to Int.min through sh.newest do
    Hashtbl.remove sh.effects i
  done;
  (* [remove] never shrinks the buckets a long lag grew. *)
  if Hashtbl.length sh.effects = 0 then Hashtbl.reset sh.effects;
  sh.forgotten <- Int.max sh.forgotten through

let held sh = Hashtbl.length sh.effects

(* Adopt the write recorded for [op] on [store]'s map, if there is one. *)
let rec adopt_write store op = function
  | Wrote w :: _ when w.op == op && Mvcc.shares_map store w.before ->
      Mvcc.replace_with store w.after;
      Some w.ack
  | (Wrote _ | Split _) :: rs -> adopt_write store op rs
  | [] -> None

let apply ?shared s ~applied cmd =
  s.applied_closed <- Ts.max s.applied_closed cmd.closed;
  promote_side s ~applied;
  let op = cmd.op in
  let ack =
    match (shared, op) with
    | Some sh, (Op_put _ | Op_resolve _ | Op_prevent _ | Op_merge _) -> (
        match adopt_write s.store op (recorded sh ~applied) with
        | Some ack -> ack
        | None when applied <= sh.forgotten -> write s.store ~applied op
        | None ->
            let before = Mvcc.copy s.store in
            let ack = write s.store ~applied op in
            record sh ~applied
              (Wrote { op; before; after = Mvcc.copy s.store; ack });
            ack)
    | (Some _ | None), _ -> write s.store ~applied op
  in
  (* The effects on this replica's own records and locks. *)
  (match op with
  | Op_put { txn; key; pri; anchor; _ } when String.equal key anchor ->
      (* The transaction record rides the first (anchor) write: every
         replica of the anchor range learns of the transaction when the
         write applies, with no extra consensus round. *)
      Txnrec.apply s.txns ~txn ~key
        (Txnrec.U_register { pri; hb = cmd.proposed_at })
  | Op_resolve { txn; keys; _ } ->
      List.iter (fun key -> Lock_table.release s.locks ~key ~txn) keys
  | Op_txn { txn; tkey; upd } -> Txnrec.apply s.txns ~txn ~key:tkey upd
  | Op_merge { cell; _ } ->
      Option.iter
        (fun snap -> Txnrec.absorb s.txns ~from:snap.snap_txns)
        (Ivar.peek cell)
  | Op_put _ | Op_prevent _ | Op_split _ -> ());
  ack

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

(* Adopt the split at [at] recorded on [store]'s map, if there is one:
   the right-hand store. *)
let rec adopt_split store at = function
  | Split sp :: _ when String.equal sp.at at && Mvcc.shares_map store sp.before
    ->
      Mvcc.replace_with store sp.left;
      Some (Mvcc.copy sp.right)
  | (Wrote _ | Split _) :: rs -> adopt_split store at rs
  | [] -> None

let split_off sh s ~applied ~at =
  let store =
    match adopt_split s.store at (recorded sh ~applied) with
    | Some right -> right
    | None when applied <= sh.forgotten -> Mvcc.split_off s.store ~key:at
    | None ->
        let before = Mvcc.copy s.store in
        let right = Mvcc.split_off s.store ~key:at in
        record sh ~applied
          (Split { at; before; left = Mvcc.copy s.store; right = Mvcc.copy right });
        right
  in
  let right = of_store store in
  right.applied_closed <- s.applied_closed;
  Lock_table.split_move s.locks ~into:right.locks ~at;
  Txnrec.split_move s.txns ~into:right.txns ~at;
  right

let restart s =
  Lock_table.reset s.locks;
  s.side_closed <- Ts.zero;
  s.pending_side <- []
