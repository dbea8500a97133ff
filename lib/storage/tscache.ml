module Ts = Crdb_hlc.Timestamp

type ts = Ts.t
type entry = { e_ts : ts; e_txn : int option }

(* Per key we keep the two freshest entries with distinct owners: the global
   maximum plus the freshest entry owned by someone else, which is what a
   self-excluding query needs. Span reads are summarized as a bounded list;
   overflow collapses into the low-water mark (coarser entries only ever
   push writers higher, never lower, so safety is preserved). *)
type t = {
  mutable low : ts;
  points : (string, entry * entry option) Hashtbl.t;
  mutable spans : (string * string * entry) list;
  mutable prune_at : int; (* point entries that make a prune due *)
}

let min_prune = 64

let create ~low_water =
  { low = low_water; points = Hashtbl.create 64; spans = []; prune_at = min_prune }
let bump_low_water t ts = if Ts.(ts > t.low) then t.low <- ts

let same_owner a b =
  match (a, b) with Some x, Some y -> x = y | _ -> false

let excluded ~for_txn e =
  match (for_txn, e.e_txn) with Some w, Some o -> w = o | _ -> false

(* Invariant (approximate): [second] is a fresh entry not owned by [best]'s
   owner; over-approximation of [second] is safe — it can only push writers
   higher. *)
let max_entry a b =
  match (a, b) with
  | None, e | e, None -> e
  | Some x, Some y -> if Ts.(x.e_ts >= y.e_ts) then Some x else Some y

let record_read t ~txn ~key ~ts =
  let fresh = { e_ts = ts; e_txn = txn } in
  match Hashtbl.find_opt t.points key with
  | None -> Hashtbl.replace t.points key (fresh, None)
  | Some (best, second) ->
      if same_owner best.e_txn txn then begin
        if Ts.(ts > best.e_ts) then Hashtbl.replace t.points key (fresh, second)
      end
      else if Ts.(ts > best.e_ts) then
        Hashtbl.replace t.points key (fresh, max_entry (Some best) second)
      else Hashtbl.replace t.points key (best, max_entry (Some fresh) second)

let span_max t ~for_txn key =
  List.fold_left
    (fun acc (s, e, entry) ->
      if
        String.compare key s >= 0
        && String.compare key e < 0
        && not (excluded ~for_txn entry)
      then Ts.max acc entry.e_ts
      else acc)
    Ts.zero t.spans

(* The freshest read of a key's entries that [for_txn] does not own. *)
let point_max ~for_txn (best, second) =
  if not (excluded ~for_txn best) then best.e_ts
  else
    match second with
    | Some s when not (excluded ~for_txn s) -> s.e_ts
    | Some _ | None -> Ts.zero

let max_read t ~for_txn ~key =
  let point =
    match Hashtbl.find_opt t.points key with
    | None -> Ts.zero
    | Some entries -> point_max ~for_txn entries
  in
  Ts.max t.low (Ts.max point (span_max t ~for_txn key))

let record_read_span t ~txn ~start_key ~end_key ~ts =
  t.spans <- (start_key, end_key, { e_ts = ts; e_txn = txn }) :: t.spans;
  if List.length t.spans > 256 then begin
    let keep, drop =
      let rec split i acc = function
        | [] -> (List.rev acc, [])
        | rest when i = 0 -> (List.rev acc, rest)
        | x :: rest -> split (i - 1) (x :: acc) rest
      in
      split 128 [] t.spans
    in
    List.iter (fun (_, _, e) -> bump_low_water t e.e_ts) drop;
    t.spans <- keep
  end

let max_read_span t ~for_txn ~start_key ~end_key =
  let spans_max =
    List.fold_left
      (fun acc (s, e, entry) ->
        if
          String.compare s end_key < 0
          && String.compare start_key e < 0
          && not (excluded ~for_txn entry)
        then Ts.max acc entry.e_ts
        else acc)
      Ts.zero t.spans
  in
  let points_max =
    Hashtbl.fold
      (fun key entries acc ->
        if String.compare key start_key >= 0 && String.compare key end_key < 0
        then Ts.max acc (point_max ~for_txn entries)
        else acc)
      t.points Ts.zero
  in
  Ts.max t.low (Ts.max spans_max points_max)

let prune_due t = Hashtbl.length t.points >= t.prune_at

(* A key's freshest read is [best]; [second] is older. *)
let prune t ~closed =
  Hashtbl.filter_map_inplace
    (fun _ ((best, _) as e) -> if Ts.(best.e_ts <= closed) then None else Some e)
    t.points;
  t.prune_at <- max min_prune (2 * Hashtbl.length t.points)
