(* Tests for MVCC storage and the read-timestamp cache. *)

module Ts = Crdb_hlc.Timestamp
module Mvcc = Crdb_storage.Mvcc
module Tscache = Crdb_storage.Tscache

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let ts w = Ts.of_wall w

let commit_put store ~key ~txn ~at ~value =
  (match Mvcc.put_intent store ~key ~txn_id:txn ~ts:(ts at) ~value:(Some value) () with
  | Mvcc.Written -> ()
  | Mvcc.Write_blocked _ | Mvcc.Write_prevented -> Alcotest.fail "unexpected write block");
  Mvcc.resolve_intent store ~key ~txn_id:txn ~commit:(Some (ts at))

let read_value store ~key ~at =
  match Mvcc.read store ~key ~ts:(ts at) ~max_ts:(ts at) ~for_txn:None with
  | Mvcc.Value { value; _ } -> value
  | Mvcc.Uncertain _ -> Alcotest.fail "unexpected uncertainty"
  | Mvcc.Intent_blocked _ -> Alcotest.fail "unexpected intent"

let test_basic_versions () =
  let s = Mvcc.create () in
  commit_put s ~key:"k" ~txn:1 ~at:10 ~value:"v1";
  commit_put s ~key:"k" ~txn:2 ~at:20 ~value:"v2";
  check Alcotest.(option string) "before first" None (read_value s ~key:"k" ~at:5);
  check Alcotest.(option string) "at first" (Some "v1") (read_value s ~key:"k" ~at:10);
  check Alcotest.(option string) "between" (Some "v1") (read_value s ~key:"k" ~at:15);
  check Alcotest.(option string) "latest" (Some "v2") (read_value s ~key:"k" ~at:25);
  check Alcotest.bool "latest_ts" true (Ts.equal (Mvcc.latest_ts s ~key:"k") (ts 20))

let test_tombstone () =
  let s = Mvcc.create () in
  commit_put s ~key:"k" ~txn:1 ~at:10 ~value:"v1";
  (match Mvcc.put_intent s ~key:"k" ~txn_id:2 ~ts:(ts 20) ~value:None () with
  | Mvcc.Written -> ()
  | Mvcc.Write_blocked _ | Mvcc.Write_prevented -> Alcotest.fail "blocked");
  Mvcc.resolve_intent s ~key:"k" ~txn_id:2 ~commit:(Some (ts 20));
  check Alcotest.(option string) "deleted" None (read_value s ~key:"k" ~at:25);
  check Alcotest.(option string) "old still visible" (Some "v1")
    (read_value s ~key:"k" ~at:15)

let test_uncertainty () =
  let s = Mvcc.create () in
  commit_put s ~key:"k" ~txn:1 ~at:100 ~value:"v";
  (* Read at 50 with uncertainty window up to 150: must report uncertain. *)
  (match Mvcc.read s ~key:"k" ~ts:(ts 50) ~max_ts:(ts 150) ~for_txn:None with
  | Mvcc.Uncertain { value_ts } ->
      check Alcotest.bool "offending ts" true (Ts.equal value_ts (ts 100))
  | Mvcc.Value _ | Mvcc.Intent_blocked _ -> Alcotest.fail "expected uncertain");
  (* Window that ends before the write: no uncertainty. *)
  match Mvcc.read s ~key:"k" ~ts:(ts 50) ~max_ts:(ts 99) ~for_txn:None with
  | Mvcc.Value { value = None; _ } -> ()
  | Mvcc.Value _ | Mvcc.Uncertain _ | Mvcc.Intent_blocked _ ->
      Alcotest.fail "expected empty value"

let test_intent_blocking () =
  let s = Mvcc.create () in
  (match Mvcc.put_intent s ~key:"k" ~txn_id:1 ~ts:(ts 10) ~value:(Some "w") () with
  | Mvcc.Written -> ()
  | Mvcc.Write_blocked _ | Mvcc.Write_prevented -> Alcotest.fail "blocked");
  (* Foreign reader above the intent ts blocks. *)
  (match Mvcc.read s ~key:"k" ~ts:(ts 20) ~max_ts:(ts 20) ~for_txn:(Some 2) with
  | Mvcc.Intent_blocked i -> check Alcotest.int "owner" 1 i.Mvcc.txn_id
  | Mvcc.Value _ | Mvcc.Uncertain _ -> Alcotest.fail "expected block");
  (* Foreign reader below the intent ts does not block. *)
  (match Mvcc.read s ~key:"k" ~ts:(ts 5) ~max_ts:(ts 5) ~for_txn:(Some 2) with
  | Mvcc.Value { value = None; _ } -> ()
  | Mvcc.Value _ | Mvcc.Uncertain _ | Mvcc.Intent_blocked _ ->
      Alcotest.fail "expected no block");
  (* The owner reads its own intent. *)
  (match Mvcc.read s ~key:"k" ~ts:(ts 5) ~max_ts:(ts 5) ~for_txn:(Some 1) with
  | Mvcc.Value { value = Some "w"; _ } -> ()
  | Mvcc.Value _ | Mvcc.Uncertain _ | Mvcc.Intent_blocked _ ->
      Alcotest.fail "expected own intent");
  (* A second writer blocks. *)
  (match Mvcc.put_intent s ~key:"k" ~txn_id:2 ~ts:(ts 30) ~value:(Some "x") () with
  | Mvcc.Write_blocked i -> check Alcotest.int "blocker" 1 i.Mvcc.txn_id
  | Mvcc.Written | Mvcc.Write_prevented -> Alcotest.fail "expected write block");
  (* The same txn may bump its own intent. *)
  match Mvcc.put_intent s ~key:"k" ~txn_id:1 ~ts:(ts 40) ~value:(Some "w2") () with
  | Mvcc.Written -> ()
  | Mvcc.Write_blocked _ | Mvcc.Write_prevented -> Alcotest.fail "own intent rewrite blocked"

let test_abort_discards () =
  let s = Mvcc.create () in
  ignore (Mvcc.put_intent s ~key:"k" ~txn_id:1 ~ts:(ts 10) ~value:(Some "w") ());
  Mvcc.resolve_intent s ~key:"k" ~txn_id:1 ~commit:None;
  check Alcotest.(option string) "aborted write invisible" None
    (read_value s ~key:"k" ~at:20);
  check Alcotest.bool "no intent left" true (Mvcc.intent_on s ~key:"k" = None)

let test_has_committed_after () =
  let s = Mvcc.create () in
  commit_put s ~key:"k" ~txn:1 ~at:100 ~value:"v";
  check Alcotest.bool "in window" true
    (Mvcc.has_committed_after s ~key:"k" ~after:(ts 50) ~upto:(ts 150));
  check Alcotest.bool "window below" false
    (Mvcc.has_committed_after s ~key:"k" ~after:(ts 100) ~upto:(ts 150));
  check Alcotest.bool "window above" false
    (Mvcc.has_committed_after s ~key:"k" ~after:(ts 10) ~upto:(ts 99))

let test_scan () =
  let s = Mvcc.create () in
  commit_put s ~key:"a" ~txn:1 ~at:10 ~value:"1";
  commit_put s ~key:"b" ~txn:1 ~at:10 ~value:"2";
  commit_put s ~key:"c" ~txn:1 ~at:10 ~value:"3";
  commit_put s ~key:"d" ~txn:1 ~at:10 ~value:"4";
  let rows =
    Mvcc.scan s ~start_key:"b" ~end_key:"d" ~ts:(ts 20) ~max_ts:(ts 20)
      ~for_txn:None ~limit:None
  in
  check Alcotest.(list string) "keys in order" [ "b"; "c" ] (List.map fst rows);
  let limited =
    Mvcc.scan s ~start_key:"a" ~end_key:"z" ~ts:(ts 20) ~max_ts:(ts 20)
      ~for_txn:None ~limit:(Some 2)
  in
  check Alcotest.int "limit respected" 2 (List.length limited)

let prop_read_latest_below =
  QCheck.Test.make ~name:"mvcc read returns newest version <= ts" ~count:200
    QCheck.(pair (list (int_range 1 100)) (int_range 1 120))
    (fun (write_ts_list, read_at) ->
      let s = Mvcc.create () in
      let sorted = List.sort_uniq Int.compare write_ts_list in
      List.iter
        (fun at -> commit_put s ~key:"k" ~txn:at ~at ~value:(string_of_int at))
        sorted;
      let expected =
        List.fold_left
          (fun acc at -> if at <= read_at then Some (string_of_int at) else acc)
          None sorted
      in
      read_value s ~key:"k" ~at:read_at = expected)

(* [scan] and [span_has_writes_in_window] read only their span, and give
   what a filter over every key of the store gives: random stores of
   committed versions, tombstones and intents, random spans (empty and
   inverted ones included), read timestamps, readers and limits. *)
let prop_span_reads_match_whole_store =
  let key = QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (int_bound 3)) in
  let write = QCheck.Gen.(quad key (int_range 1 20) (int_bound 3) bool) in
  let query =
    QCheck.Gen.(
      pair
        (quad key key (int_bound 22) (int_bound 6))
        (triple (opt (int_range 1 3)) (opt (int_bound 4)) (int_bound 22)))
  in
  let print (writes, ((start_key, end_key, at, window), (txn, limit, after))) =
    Printf.sprintf "writes [%s] span [%S, %S) at %d+%d txn %s limit %s after %d"
      (String.concat "; "
         (List.map
            (fun (k, w, txn, tomb) -> Printf.sprintf "%S@%d txn %d%s" k w txn
               (if tomb then " tombstone" else ""))
            writes))
      start_key end_key at window
      (match txn with Some t -> string_of_int t | None -> "-")
      (match limit with Some l -> string_of_int l | None -> "-")
      after
  in
  QCheck.Test.make ~name:"mvcc span reads match a whole-store filter" ~count:500
    (QCheck.make ~print QCheck.Gen.(pair (list_size (int_bound 30) write) query))
    (fun (writes, ((start_key, end_key, at, window), (for_txn, limit, after))) ->
      let s = Mvcc.create () in
      List.iter
        (fun (key, wall, txn, tomb) ->
          let value = if tomb then None else Some key in
          if txn = 0 then Mvcc.put_version s ~key ~ts:(ts wall) ~value
          else ignore (Mvcc.put_intent s ~key ~txn_id:txn ~ts:(ts wall) ~value ()))
        writes;
      let in_span =
        List.filter
          (fun k -> String.compare k start_key >= 0 && String.compare k end_key < 0)
          (List.sort_uniq String.compare (List.map (fun (k, _, _, _) -> k) writes))
      in
      let read_ts = ts at and max_ts = ts (at + window) in
      let limit_n = Option.value limit ~default:max_int in
      let rec expected n = function
        | _ when n >= limit_n -> []
        | [] -> []
        | key :: rest -> (
            match Mvcc.read s ~key ~ts:read_ts ~max_ts ~for_txn with
            | Mvcc.Value { value = None; _ } -> expected n rest
            | outcome -> (key, outcome) :: expected (n + 1) rest)
      in
      let upto = max_ts and after = ts after in
      let foreign_intent key =
        match Mvcc.intent_on s ~key with
        | Some i -> for_txn <> Some i.txn_id && Ts.(i.ts <= upto)
        | None -> false
      in
      let writes_expected =
        List.exists
          (fun key ->
            Mvcc.has_committed_after s ~key ~after ~upto || foreign_intent key)
          in_span
      in
      Mvcc.scan s ~start_key ~end_key ~ts:read_ts ~max_ts ~for_txn ~limit
      = expected 0 in_span
      && Mvcc.span_has_writes_in_window s ~start_key ~end_key ~after ~upto
           ~ignore_txn:for_txn
         = writes_expected)

(* Inserting a version into a newest-first chain puts it where the stable
   sort it replaces did, equal timestamps included: before the versions at
   its timestamp, after the newer ones. *)
let prop_insert_version_is_stable_sort =
  let ts_gen =
    QCheck.Gen.(
      map2
        (fun wall logical -> Ts.make ~wall ~logical)
        (int_range 1 6) (int_range 0 2))
  in
  let newest_first (a, _) (b, _) = Ts.compare b a in
  (* Versions are tagged with their position so equal timestamps stay
     distinguishable; the inserted one is tagged -1. *)
  let gen =
    QCheck.Gen.(
      map2
        (fun t ts -> ((t, -1), List.mapi (fun i t -> (t, i)) ts))
        ts_gen
        (map (List.stable_sort (fun a b -> Ts.compare b a))
           (list_size (int_bound 12) ts_gen)))
  in
  let print (v, versions) =
    String.concat " "
      (List.map
         (fun (t, i) -> Printf.sprintf "%s#%d" (Ts.to_string t) i)
         (v :: versions))
  in
  QCheck.Test.make ~name:"mvcc version insert matches a stable sort"
    ~count:500 (QCheck.make ~print gen) (fun (((ts, tag) as v), versions) ->
      let chain =
        List.fold_right
          (fun (ts, value) older -> Mvcc.V { ts; value; older })
          versions Mvcc.Nil
      in
      let rec to_list = function
        | Mvcc.Nil -> []
        | Mvcc.V { ts; value; older } -> (ts, value) :: to_list older
      in
      to_list (Mvcc.insert_version ts tag chain)
      = List.stable_sort newest_first (v :: versions))

(* The store [Mvcc] replaced, kept as the oracle of its sharing
   operations: every store owns private mutable records, and [copy],
   [absorb] and [replace_with] copy each record. *)
module Deep = struct
  module Smap = Map.Make (String)

  type record = {
    mutable versions : string option Mvcc.versions;
    mutable intent : Mvcc.intent option;
    mutable prevented : int list;
  }

  type t = { mutable records : record Smap.t }

  let create () = { records = Smap.empty }
  let find t key = Smap.find_opt key t.records

  let find_or_add t key =
    match find t key with
    | Some r -> r
    | None ->
        let r = { versions = Mvcc.Nil; intent = None; prevented = [] } in
        t.records <- Smap.add key r t.records;
        r

  let rec version_at ts = function
    | Mvcc.V v as version when Ts.(v.ts <= ts) -> version
    | Mvcc.V v -> version_at ts v.older
    | Mvcc.Nil -> Mvcc.Nil

  let rec version_in_window ~lo ~hi = function
    | Mvcc.V v when Ts.(v.ts <= lo) -> Mvcc.Nil
    | Mvcc.V v as version when Ts.(v.ts <= hi) -> version
    | Mvcc.V v -> version_in_window ~lo ~hi v.older
    | Mvcc.Nil -> Mvcc.Nil

  let read_record r ~ts ~max_ts ~for_txn =
    match (r.intent, for_txn) with
    | Some i, Some txn when i.Mvcc.txn_id = txn ->
        Mvcc.Value { value = i.value; ts = i.ts }
    | Some i, _ when Ts.(i.Mvcc.ts <= max_ts) -> Mvcc.Intent_blocked i
    | _ -> (
        match version_in_window ~lo:ts ~hi:max_ts r.versions with
        | Mvcc.V v -> Mvcc.Uncertain { value_ts = v.ts }
        | Mvcc.Nil -> (
            match version_at ts r.versions with
            | Mvcc.V v -> Mvcc.Value { value = v.value; ts = v.ts }
            | Mvcc.Nil -> Mvcc.Value { value = None; ts = Ts.zero }))

  let read t ~key ~ts ~max_ts ~for_txn =
    match find t key with
    | None -> Mvcc.Value { value = None; ts = Ts.zero }
    | Some r -> read_record r ~ts ~max_ts ~for_txn

  let put_intent t ~key ~txn_id ~ts ~value =
    let r = find_or_add t key in
    if List.mem txn_id r.prevented then Mvcc.Write_prevented
    else
      match r.intent with
      | Some i when i.Mvcc.txn_id <> txn_id -> Mvcc.Write_blocked i
      | Some _ | None ->
          r.intent <-
            Some { Mvcc.txn_id; ts; value; pri = Ts.zero; anchor = "" };
          Mvcc.Written

  let prevent t ~key ~txn_id ~ts =
    let r = find_or_add t key in
    let intent_present =
      match r.intent with Some i -> i.Mvcc.txn_id = txn_id | None -> false
    in
    let committed_at_ts =
      match version_at ts r.versions with
      | Mvcc.V v -> Ts.equal v.ts ts
      | Mvcc.Nil -> false
    in
    if intent_present || committed_at_ts then `Found
    else begin
      if not (List.mem txn_id r.prevented) then
        r.prevented <- txn_id :: r.prevented;
      `Prevented
    end

  let is_prevented t ~key ~txn_id =
    match find t key with None -> false | Some r -> List.mem txn_id r.prevented

  let resolve_intent t ~key ~txn_id ~commit =
    match find t key with
    | Some ({ intent = Some i; _ } as r) when i.Mvcc.txn_id = txn_id -> (
        r.intent <- None;
        match commit with
        | Some ts -> r.versions <- Mvcc.insert_version ts i.value r.versions
        | None -> ())
    | Some _ | None -> ()

  let intent_on t ~key =
    match find t key with None -> None | Some r -> r.intent

  let scan t ~ts ~max_ts ~for_txn =
    List.filter_map
      (fun (key, r) ->
        match read_record r ~ts ~max_ts ~for_txn with
        | Mvcc.Value { value = None; _ } -> None
        | outcome -> Some (key, outcome))
      (Smap.bindings t.records)

  let put_version t ~key ~ts ~value =
    let r = find_or_add t key in
    r.versions <- Mvcc.insert_version ts value r.versions

  let copy_record r =
    { versions = r.versions; intent = r.intent; prevented = r.prevented }

  let copy t = { records = Smap.map copy_record t.records }

  let split_off t ~key =
    let left, at, right = Smap.split key t.records in
    let right = match at with None -> right | Some r -> Smap.add key r right in
    t.records <- left;
    { records = right }

  let absorb t src =
    Smap.iter
      (fun key r -> t.records <- Smap.add key (copy_record r) t.records)
      src.records

  let replace_with t src = t.records <- (copy src).records
end

type store_op =
  | Put_intent of int * string * int * int * bool
  | Resolve of int * string * int * int option
  | Prevent of int * string * int * int
  | Put_version of int * string * int * bool
  | Copy of int * int
  | Replace_with of int * int
  | Split_off of int * int * string
  | Absorb of int * int

let pp_store_op = function
  | Put_intent (s, k, txn, w, tomb) ->
      Printf.sprintf "put_intent(%d,%s,txn %d,@%d%s)" s k txn w
        (if tomb then ",tombstone" else "")
  | Resolve (s, k, txn, Some w) -> Printf.sprintf "commit(%d,%s,txn %d,@%d)" s k txn w
  | Resolve (s, k, txn, None) -> Printf.sprintf "abort(%d,%s,txn %d)" s k txn
  | Prevent (s, k, txn, w) -> Printf.sprintf "prevent(%d,%s,txn %d,@%d)" s k txn w
  | Put_version (s, k, w, tomb) ->
      Printf.sprintf "put_version(%d,%s,@%d%s)" s k w (if tomb then ",tombstone" else "")
  | Copy (d, s) -> Printf.sprintf "%d:=copy %d" d s
  | Replace_with (d, s) -> Printf.sprintf "replace_with(%d,%d)" d s
  | Split_off (d, s, k) -> Printf.sprintf "%d:=split_off(%d,%s)" d s k
  | Absorb (d, s) -> Printf.sprintf "absorb(%d,%d)" d s

let model_keys = [ "a"; "b"; "c"; "d"; "e" ]
let model_txns = [ 1; 2; 3 ]

(* Store [m] reads as the oracle's [o]: every key at every timestamp (with
   and without an uncertainty window, for every reader), its intent and
   preventions, and a scan of the whole key space. *)
let same_store m o =
  let readers = None :: List.map Option.some model_txns in
  List.for_all
    (fun key ->
      Mvcc.intent_on m ~key = Deep.intent_on o ~key
      && List.for_all
           (fun txn_id ->
             Mvcc.is_prevented m ~key ~txn_id = Deep.is_prevented o ~key ~txn_id)
           model_txns
      && List.for_all
           (fun (at, window) ->
             List.for_all
               (fun for_txn ->
                 let ts = ts at and max_ts = ts (at + window) in
                 Mvcc.read m ~key ~ts ~max_ts ~for_txn
                 = Deep.read o ~key ~ts ~max_ts ~for_txn)
               readers)
           (List.concat_map (fun at -> [ (at, 0); (at, 3) ]) (List.init 12 Fun.id)))
    model_keys
  && List.for_all
       (fun (at, for_txn) ->
         Mvcc.scan m ~start_key:"" ~end_key:"\xff" ~ts:(ts at) ~max_ts:(ts at)
           ~for_txn ~limit:None
         = Deep.scan o ~ts:(ts at) ~max_ts:(ts at) ~for_txn)
       [ (0, None); (5, Some 1); (11, None) ]

(* A pool of four stores takes random intent, prevention and version
   writes and random copies, snapshot installs, splits and merges between
   them; after every step each store reads as the deep-copying oracle's.
   A write that changed a record or map another store shares shows here as
   one store's write appearing in another. *)
let prop_sharing_matches_deep_copies =
  let pool = 4 in
  let key = QCheck.Gen.oneofl model_keys
  and txn = QCheck.Gen.oneofl model_txns
  and wall = QCheck.Gen.int_range 1 10
  and store = QCheck.Gen.int_bound (pool - 1) in
  let two_stores =
    QCheck.Gen.(
      store >>= fun d -> map (fun s -> (d, (d + 1 + s) mod pool)) (int_bound (pool - 2)))
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 6,
            map2
              (fun (s, k, t) (w, tomb) -> Put_intent (s, k, t, w, tomb))
              (triple store key txn) (pair wall (map (fun n -> n = 0) (int_bound 4))) );
          (4, map2 (fun (s, k, t) c -> Resolve (s, k, t, c)) (triple store key txn) (opt wall));
          (2, map2 (fun (s, k, t) w -> Prevent (s, k, t, w)) (triple store key txn) wall);
          ( 3,
            map2
              (fun (s, k) (w, tomb) -> Put_version (s, k, w, tomb))
              (pair store key) (pair wall (map (fun n -> n = 0) (int_bound 4))) );
          (2, map (fun (d, s) -> Copy (d, s)) two_stores);
          (2, map (fun (d, s) -> Replace_with (d, s)) two_stores);
          ( 2,
            map2
              (fun (d, s) k -> Split_off (d, s, k))
              two_stores (oneofl [ "a"; "b"; "bb"; "c"; "d"; "f" ]) );
          (2, map (fun (d, s) -> Absorb (d, s)) two_stores);
        ])
  in
  let print ops = String.concat " " (List.map pp_store_op ops) in
  QCheck.Test.make ~name:"mvcc sharing matches deep copies" ~count:300
    (QCheck.make ~print QCheck.Gen.(list_size (int_bound 40) op))
    (fun ops ->
      let ms = Array.init pool (fun _ -> Mvcc.create ())
      and os = Array.init pool (fun _ -> Deep.create ()) in
      let value tomb k w = if tomb then None else Some (Printf.sprintf "%s@%d" k w) in
      List.for_all
        (fun op ->
          (match op with
          | Put_intent (s, key, txn_id, w, tomb) ->
              let value = value tomb key w in
              let got = Mvcc.put_intent ms.(s) ~key ~txn_id ~ts:(ts w) ~value () in
              if got <> Deep.put_intent os.(s) ~key ~txn_id ~ts:(ts w) ~value then
                QCheck.Test.fail_reportf "%s: write outcomes differ" (pp_store_op op)
          | Resolve (s, key, txn_id, commit) ->
              let commit = Option.map ts commit in
              Mvcc.resolve_intent ms.(s) ~key ~txn_id ~commit;
              Deep.resolve_intent os.(s) ~key ~txn_id ~commit
          | Prevent (s, key, txn_id, w) ->
              if Mvcc.prevent ms.(s) ~key ~txn_id ~ts:(ts w)
                 <> Deep.prevent os.(s) ~key ~txn_id ~ts:(ts w)
              then QCheck.Test.fail_reportf "%s: outcomes differ" (pp_store_op op)
          | Put_version (s, key, w, tomb) ->
              let value = value tomb key w in
              Mvcc.put_version ms.(s) ~key ~ts:(ts w) ~value;
              Deep.put_version os.(s) ~key ~ts:(ts w) ~value
          | Copy (d, s) ->
              ms.(d) <- Mvcc.copy ms.(s);
              os.(d) <- Deep.copy os.(s)
          | Replace_with (d, s) ->
              Mvcc.replace_with ms.(d) ms.(s);
              Deep.replace_with os.(d) os.(s)
          | Split_off (d, s, key) ->
              ms.(d) <- Mvcc.split_off ms.(s) ~key;
              os.(d) <- Deep.split_off os.(s) ~key
          | Absorb (d, s) ->
              Mvcc.absorb ms.(d) ms.(s);
              Deep.absorb os.(d) os.(s));
          List.for_all (fun i -> same_store ms.(i) os.(i)) (List.init pool Fun.id))
        ops)

(* Each way two stores come to share records, followed by a write to each
   side: neither write shows in the other store. The split cases hand the
   right side back to the store it came from, which wrote its records
   before the split. *)
let test_sharing_isolates_writes () =
  let latest s key = read_value s ~key ~at:100 in
  let seeded () =
    let s = Mvcc.create () in
    Mvcc.put_version s ~key:"a" ~ts:(ts 1) ~value:(Some "a0");
    Mvcc.put_version s ~key:"m" ~ts:(ts 1) ~value:(Some "m0");
    s
  in
  let isolated name share =
    let s = seeded () in
    let t = share s in
    Mvcc.put_version s ~key:"m" ~ts:(ts 2) ~value:(Some "s");
    check Alcotest.(option string) (name ^ ": other side unchanged") (Some "m0")
      (latest t "m");
    Mvcc.put_version t ~key:"m" ~ts:(ts 3) ~value:(Some "t");
    check Alcotest.(option string) (name ^ ": writer unchanged") (Some "s")
      (latest s "m")
  in
  isolated "copy" Mvcc.copy;
  isolated "replace_with" (fun s ->
      let t = Mvcc.create () in
      Mvcc.replace_with t s;
      t);
  isolated "absorb" (fun s ->
      let t = Mvcc.create () in
      Mvcc.absorb t s;
      t);
  isolated "split_off then absorb" (fun s ->
      let right = Mvcc.split_off s ~key:"b" in
      Mvcc.absorb s right;
      right);
  isolated "split_off then replace_with" (fun s ->
      let right = Mvcc.split_off s ~key:"b" in
      Mvcc.replace_with s right;
      right)

let test_tscache () =
  let none = None in
  let c = Tscache.create ~low_water:(ts 10) in
  check Alcotest.bool "low water default" true
    (Ts.equal (Tscache.max_read c ~for_txn:none ~key:"k") (ts 10));
  Tscache.record_read c ~txn:None ~key:"k" ~ts:(ts 50);
  check Alcotest.bool "point read" true
    (Ts.equal (Tscache.max_read c ~for_txn:none ~key:"k") (ts 50));
  Tscache.record_read c ~txn:None ~key:"k" ~ts:(ts 30);
  check Alcotest.bool "no regression" true
    (Ts.equal (Tscache.max_read c ~for_txn:none ~key:"k") (ts 50));
  Tscache.bump_low_water c (ts 60);
  check Alcotest.bool "low water dominates" true
    (Ts.equal (Tscache.max_read c ~for_txn:none ~key:"other") (ts 60));
  Tscache.record_read_span c ~txn:None ~start_key:"a" ~end_key:"m" ~ts:(ts 100);
  check Alcotest.bool "span covers" true
    (Ts.equal (Tscache.max_read c ~for_txn:none ~key:"f") (ts 100));
  check Alcotest.bool "span excludes" true
    (Ts.equal (Tscache.max_read c ~for_txn:none ~key:"z") (ts 60));
  check Alcotest.bool "span query overlap" true
    (Ts.equal
       (Tscache.max_read_span c ~for_txn:none ~start_key:"l" ~end_key:"q")
       (ts 100));
  check Alcotest.bool "span query disjoint" true
    (Ts.equal
       (Tscache.max_read_span c ~for_txn:none ~start_key:"n" ~end_key:"q")
       (ts 60))

let test_tscache_self_exclusion () =
  let c = Tscache.create ~low_water:(ts 10) in
  (* A transaction's own reads never push its own writes... *)
  Tscache.record_read c ~txn:(Some 7) ~key:"k" ~ts:(ts 90);
  check Alcotest.bool "self excluded" true
    (Ts.equal (Tscache.max_read c ~for_txn:(Some 7) ~key:"k") (ts 10));
  check Alcotest.bool "others see it" true
    (Ts.equal (Tscache.max_read c ~for_txn:(Some 8) ~key:"k") (ts 90));
  (* ...but another transaction's reads below the max still constrain it. *)
  Tscache.record_read c ~txn:(Some 8) ~key:"k" ~ts:(ts 70);
  check Alcotest.bool "falls back to other txn's read" true
    (Ts.equal (Tscache.max_read c ~for_txn:(Some 7) ~key:"k") (ts 70));
  (* Anonymous reads are never excluded. *)
  Tscache.record_read c ~txn:None ~key:"k" ~ts:(ts 95);
  check Alcotest.bool "anonymous read dominates" true
    (Ts.equal (Tscache.max_read c ~for_txn:(Some 7) ~key:"k") (ts 95));
  (* Spans respect ownership too. *)
  Tscache.record_read_span c ~txn:(Some 7) ~start_key:"a" ~end_key:"z" ~ts:(ts 200);
  check Alcotest.bool "own span excluded" true
    (Ts.equal (Tscache.max_read c ~for_txn:(Some 7) ~key:"m") (ts 10));
  check Alcotest.bool "foreign span seen" true
    (Ts.equal (Tscache.max_read c ~for_txn:(Some 9) ~key:"m") (ts 200))

(* Pruning at the closed timestamp changes no write timestamp: a write is
   pushed above its own reads' cache entries and above the closed
   timestamp, so entries at or below the closed timestamp never decide. *)
type tsc_op =
  | Read of int * int * int option (* key, ts, txn *)
  | Read_span of int * int * int * int option
  | Close of int (* ratchet the closed timestamp by this much *)
  | Write of int * int * int option (* key, requested ts, txn *)
  | Prune

let prop_tscache_prune_exact =
  let open QCheck.Gen in
  let txn = opt (int_range 1 3) in
  let op =
    frequency
      [
        (4, map3 (fun k t x -> Read (k, t, x)) (int_bound 7) (int_range 1 1_000) txn);
        ( 1,
          map3
            (fun (a, b) t x -> Read_span (min a b, max a b + 1, t, x))
            (pair (int_bound 7) (int_bound 7))
            (int_range 1 1_000) txn );
        (2, map (fun d -> Close d) (int_range 0 150));
        (4, map3 (fun k t x -> Write (k, t, x)) (int_bound 7) (int_range 1 1_000) txn);
        (1, return Prune);
      ]
  in
  QCheck.Test.make ~name:"tscache prune keeps write timestamps" ~count:500
    (QCheck.make (list_size (int_range 1 200) op))
    (fun ops ->
      let key k = String.make 1 (Char.chr (Char.code 'a' + k)) in
      let full = Tscache.create ~low_water:(ts 5)
      and pruned = Tscache.create ~low_water:(ts 5) in
      let closed = ref Ts.zero in
      let write c ~key ~ts:want ~txn =
        Ts.max want
          (Ts.max (Ts.next (Tscache.max_read c ~for_txn:txn ~key)) (Ts.next !closed))
      in
      List.for_all
        (fun op ->
          match op with
          | Read (k, t, txn) ->
              List.iter
                (fun c -> Tscache.record_read c ~txn ~key:(key k) ~ts:(ts t))
                [ full; pruned ];
              true
          | Read_span (a, b, t, txn) ->
              List.iter
                (fun c ->
                  Tscache.record_read_span c ~txn ~start_key:(key a)
                    ~end_key:(key b) ~ts:(ts t))
                [ full; pruned ];
              true
          | Close d ->
              closed := Ts.add_wall !closed d;
              true
          | Write (k, t, txn) ->
              Ts.equal
                (write full ~key:(key k) ~ts:(ts t) ~txn)
                (write pruned ~key:(key k) ~ts:(ts t) ~txn)
          | Prune ->
              Tscache.prune pruned ~closed:!closed;
              true)
        ops)

let suite =
  [
    Alcotest.test_case "basic versions" `Quick test_basic_versions;
    Alcotest.test_case "tombstone" `Quick test_tombstone;
    Alcotest.test_case "uncertainty" `Quick test_uncertainty;
    Alcotest.test_case "intent blocking" `Quick test_intent_blocking;
    Alcotest.test_case "abort discards" `Quick test_abort_discards;
    Alcotest.test_case "has_committed_after" `Quick test_has_committed_after;
    Alcotest.test_case "scan" `Quick test_scan;
    qcheck prop_read_latest_below;
    qcheck prop_insert_version_is_stable_sort;
    qcheck prop_span_reads_match_whole_store;
    qcheck prop_sharing_matches_deep_copies;
    Alcotest.test_case "sharing isolates writes" `Quick test_sharing_isolates_writes;
    Alcotest.test_case "tscache" `Quick test_tscache;
    Alcotest.test_case "tscache self exclusion" `Quick test_tscache_self_exclusion;
    qcheck prop_tscache_prune_exact;
  ]
