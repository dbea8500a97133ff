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
    Alcotest.test_case "tscache" `Quick test_tscache;
    Alcotest.test_case "tscache self exclusion" `Quick test_tscache_self_exclusion;
  ]
