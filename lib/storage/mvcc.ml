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

(* Versions are kept newest-first. [prevented] holds transaction ids whose
   future intent writes on this key were barred by commit-status recovery
   (the QueryIntent "prevention" of parallel commits). *)
type record = {
  mutable versions : (ts * string option) list;
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
      let r = { versions = []; intent = None; prevented = [] } in
      t.records <- Smap.add key r t.records;
      r

(* A newest-first list stays sorted when a new version goes before the
   first version at or below its timestamp: where a stable newest-first
   sort of [v :: versions] puts it. A new commit is usually the newest, so
   this stops at the head. *)
let rec insert_version ((ts, _) as v) = function
  | (vts, _) :: _ as rest when Ts.(vts <= ts) -> v :: rest
  | newer :: rest -> newer :: insert_version v rest
  | [] -> [ v ]

let version_at versions ts =
  List.find_opt (fun (vts, _) -> Ts.(vts <= ts)) versions

(* Newest committed version with timestamp in (lo, hi]. *)
let version_in_window versions ~lo ~hi =
  List.find_opt (fun (vts, _) -> Ts.(vts > lo) && Ts.(vts <= hi)) versions

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
          match version_in_window record.versions ~lo:ts ~hi:max_ts with
          | Some (vts, _) -> Uncertain { value_ts = vts }
          | None -> (
              match version_at record.versions ts with
              | Some (vts, v) -> Value { value = v; ts = vts }
              | None -> Value { value = None; ts = Ts.zero })))

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
    List.exists (fun (vts, _) -> Ts.equal vts ts) record.versions
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
                insert_version (commit_ts, i.value) record.versions
          | None -> ())
      | Some _ | None -> ())

let intent_on t ~key =
  match find t key with None -> None | Some r -> r.intent

let latest_ts t ~key =
  match find t key with
  | None -> Ts.zero
  | Some { versions = []; _ } -> Ts.zero
  | Some { versions = (ts, _) :: _; _ } -> ts

let has_committed_after t ~key ~after ~upto =
  match find t key with
  | None -> false
  | Some record ->
      (match version_in_window record.versions ~lo:after ~hi:upto with
      | Some _ -> true
      | None -> false)

let span_has_writes_in_window t ~start_key ~end_key ~after ~upto ~ignore_txn =
  Smap.exists
    (fun key record ->
      String.compare key start_key >= 0
      && String.compare key end_key < 0
      && ((match version_in_window record.versions ~lo:after ~hi:upto with
          | Some _ -> true
          | None -> false)
         ||
         match record.intent with
         | Some i ->
             (match ignore_txn with Some x -> i.txn_id <> x | None -> true)
             && Ts.(i.ts <= upto)
         | None -> false))
    t.records

let scan t ~start_key ~end_key ~ts ~max_ts ~for_txn ~limit =
  let exception Done of (string * read_outcome) list in
  let count = ref 0 in
  let within_limit () = match limit with None -> true | Some l -> !count < l in
  try
    let acc =
      Smap.fold
        (fun key record acc ->
          if String.compare key start_key < 0 || String.compare key end_key >= 0
          then acc
          else begin
            if not (within_limit ()) then raise (Done acc);
            match read_record record ~ts ~max_ts ~for_txn with
            | Value { value = None; _ } -> acc
            | Value _ as outcome ->
                incr count;
                (key, outcome) :: acc
            | (Uncertain _ | Intent_blocked _) as outcome ->
                incr count;
                (key, outcome) :: acc
          end)
        t.records []
    in
    List.rev acc
  with Done acc -> List.rev acc

let keys_with_intents t =
  Smap.fold
    (fun key record acc ->
      match record.intent with Some _ -> key :: acc | None -> acc)
    t.records []
  |> List.rev

let num_keys t = Smap.cardinal t.records

let live_bytes t =
  Smap.fold
    (fun key record acc ->
      match record.versions with
      | (_, Some v) :: _ -> acc + String.length key + String.length v
      | (_, None) :: _ | [] -> acc)
    t.records 0

let fold_latest t ~init ~f =
  Smap.fold
    (fun key record acc ->
      match record.versions with
      | (_, Some v) :: _ -> f acc key v
      | (_, None) :: _ | [] -> acc)
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
  record.versions <- insert_version (ts, value) record.versions
