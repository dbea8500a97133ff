module Ts = Crdb_hlc.Timestamp
module Smap = Map.Make (String)

type ts = Ts.t

type intent = {
  txn_id : int;
  ts : ts;
  value : string option;
  pri : ts;
  anchor : string;
}

type read_outcome =
  | Value of { value : string option; ts : ts }
  | Uncertain of { value_ts : ts }
  | Intent_blocked of intent

type write_outcome = Written | Write_blocked of intent | Write_prevented

(* A key's committed versions, newest first: one block per version. *)
type 'a versions = Nil | V of { ts : ts; value : 'a; older : 'a versions }

(* [prevented] holds transaction ids whose future intent writes on this
   key were barred by commit-status recovery (the QueryIntent "prevention"
   of parallel commits). *)
type record = {
  mutable versions : string option versions;
  mutable intent : intent option;
  mutable prevented : int list;
}

type t = { mutable records : record Smap.t }

let create () = { records = Smap.empty }

let find t key = Smap.find_opt key t.records

let find_or_add t key =
  match Smap.find_opt key t.records with
  | Some r -> r
  | None ->
      let r = { versions = Nil; intent = None; prevented = [] } in
      t.records <- Smap.add key r t.records;
      r

(* A newest-first chain stays sorted when a new version goes before the
   first version at or below its timestamp: where a stable newest-first
   sort of the versions with the new one first puts it. A new commit is
   usually the newest, so this stops at the head. *)
let rec insert_version ts value = function
  | V v as rest when Ts.(v.ts <= ts) -> V { ts; value; older = rest }
  | V v -> V { v with older = insert_version ts value v.older }
  | Nil -> V { ts; value; older = Nil }

(* The newest version at or below [ts], or [Nil]. *)
let rec version_at ts = function
  | V v as version when Ts.(v.ts <= ts) -> version
  | V v -> version_at ts v.older
  | Nil -> Nil

(* The newest version with timestamp in (lo, hi], or [Nil]. Versions
   below it are older still, so the walk stops at the first one at or
   below [lo]. *)
let rec version_in_window ~lo ~hi = function
  | V v when Ts.(v.ts <= lo) -> Nil
  | V v as version when Ts.(v.ts <= hi) -> version
  | V v -> version_in_window ~lo ~hi v.older
  | Nil -> Nil

let read_record record ~ts ~max_ts ~for_txn =
  let own_intent =
    match (record.intent, for_txn) with
    | Some i, Some txn when i.txn_id = txn -> Some i
    | Some _, (Some _ | None) | None, (Some _ | None) -> None
  in
  match own_intent with
  | Some i -> Value { value = i.value; ts = i.ts }
  | None -> (
      let foreign_blocking =
        match record.intent with
        | Some i when Ts.(i.ts <= max_ts) -> Some i
        | Some _ | None -> None
      in
      match foreign_blocking with
      | Some i -> Intent_blocked i
      | None -> (
          match version_in_window ~lo:ts ~hi:max_ts record.versions with
          | V v -> Uncertain { value_ts = v.ts }
          | Nil -> (
              match version_at ts record.versions with
              | V v -> Value { value = v.value; ts = v.ts }
              | Nil -> Value { value = None; ts = Ts.zero })))

let read t ~key ~ts ~max_ts ~for_txn =
  match find t key with
  | None -> Value { value = None; ts = Ts.zero }
  | Some record -> read_record record ~ts ~max_ts ~for_txn

let put_intent t ?(pri = Ts.zero) ?(anchor = "") ~key ~txn_id ~ts ~value () =
  let record = find_or_add t key in
  if List.mem txn_id record.prevented then Write_prevented
  else
    match record.intent with
    | Some i when i.txn_id <> txn_id -> Write_blocked i
    | Some _ | None ->
        record.intent <- Some { txn_id; ts; value; pri; anchor };
        Written

let prevent t ~key ~txn_id ~ts =
  let record = find_or_add t key in
  let intent_present =
    match record.intent with Some i -> i.txn_id = txn_id | None -> false
  in
  let committed_at_ts =
    match version_at ts record.versions with
    | V v -> Ts.equal v.ts ts
    | Nil -> false
  in
  if intent_present || committed_at_ts then `Found
  else begin
    if not (List.mem txn_id record.prevented) then
      record.prevented <- txn_id :: record.prevented;
    `Prevented
  end

let is_prevented t ~key ~txn_id =
  match find t key with
  | None -> false
  | Some r -> List.mem txn_id r.prevented

let resolve_intent t ~key ~txn_id ~commit =
  match find t key with
  | None -> ()
  | Some record -> (
      match record.intent with
      | Some i when i.txn_id = txn_id ->
          record.intent <- None;
          (match commit with
          | Some commit_ts ->
              record.versions <-
                insert_version commit_ts i.value record.versions
          | None -> ())
      | Some _ | None -> ())

let intent_on t ~key =
  match find t key with None -> None | Some r -> r.intent

let latest_ts t ~key =
  match find t key with
  | None -> Ts.zero
  | Some { versions = Nil; _ } -> Ts.zero
  | Some { versions = V v; _ } -> v.ts

let committed_in_window record ~after ~upto =
  match version_in_window ~lo:after ~hi:upto record.versions with
  | V _ -> true
  | Nil -> false

let has_committed_after t ~key ~after ~upto =
  match find t key with
  | None -> false
  | Some record -> committed_in_window record ~after ~upto

(* The records of keys in [start_key, end_key), in key order, visited
   without reaching the keys outside the span. *)
let span t ~start_key ~end_key =
  Seq.take_while
    (fun (key, _) -> String.compare key end_key < 0)
    (Smap.to_seq_from start_key t.records)

let span_has_writes_in_window t ~start_key ~end_key ~after ~upto ~ignore_txn =
  Seq.exists
    (fun (_, record) ->
      committed_in_window record ~after ~upto
      ||
      match record.intent with
      | Some i ->
          (match ignore_txn with Some x -> i.txn_id <> x | None -> true)
          && Ts.(i.ts <= upto)
      | None -> false)
    (span t ~start_key ~end_key)

let scan t ~start_key ~end_key ~ts ~max_ts ~for_txn ~limit =
  let limit = match limit with None -> max_int | Some l -> l in
  let rec go rows n acc =
    if n >= limit then List.rev acc
    else
      match rows () with
      | Seq.Nil -> List.rev acc
      | Seq.Cons ((key, record), rows) -> (
          match read_record record ~ts ~max_ts ~for_txn with
          | Value { value = None; _ } -> go rows n acc
          | outcome -> go rows (n + 1) ((key, outcome) :: acc))
  in
  go (span t ~start_key ~end_key) 0 []

let live_bytes t =
  Smap.fold
    (fun key record acc ->
      match record.versions with
      | V { value = Some v; _ } -> acc + String.length key + String.length v
      | V { value = None; _ } | Nil -> acc)
    t.records 0

let fold_latest t ~init ~f =
  Smap.fold
    (fun key record acc ->
      match record.versions with
      | V { value = Some v; _ } -> f acc key v
      | V { value = None; _ } | Nil -> acc)
    t.records init

let copy t =
  {
    records =
      Smap.map
        (fun r ->
          { versions = r.versions; intent = r.intent; prevented = r.prevented })
        t.records;
  }

let split_off t ~key =
  let left, at, right = Smap.split key t.records in
  let right = match at with None -> right | Some r -> Smap.add key r right in
  t.records <- left;
  { records = right }

let absorb t src =
  Smap.iter
    (fun key r ->
      t.records <-
        Smap.add key
          { versions = r.versions; intent = r.intent; prevented = r.prevented }
          t.records)
    src.records

let replace_with t src = t.records <- (copy src).records

let put_version t ~key ~ts ~value =
  let record = find_or_add t key in
  record.versions <- insert_version ts value record.versions
