(* Fixture tests for the multi-key serializability checker (lib/check):
   hand-crafted transaction histories exercising each anomaly class of the
   taxonomy — G0, G1a, G1c, G2-item, lost update — plus known-serializable
   histories (including with aborted and indeterminate transactions) that
   must pass, and serialization round trips. The register check is tested
   against Wing & Gong's search ([Wing_gong]) on random histories. *)

module Ts = Crdb_hlc.Timestamp
module History = Crdb_check.History
module Checker = Crdb_check.Checker

let check = Alcotest.check

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ts w = Ts.make ~wall:w ~logical:0
let committed w = History.T_committed { commit_ts = ts w }
let r key value = History.T_read { key; value }
let w key value = History.T_write { key; value }

let txn h ~tid ?(client = 0) ~at ~ops status =
  History.record_txn h ~tid ~client ~began:at ~ended:(at + 10) ~ops ~status

let expect_anomaly name expected h =
  match Checker.check_serializable_report h with
  | Some a, Checker.Violation { message; counterexample } ->
      check Alcotest.string
        (name ^ ": classification")
        (Checker.anomaly_to_string expected)
        (Checker.anomaly_to_string a);
      check Alcotest.bool (name ^ ": message names the class") true
        (contains ~sub:(Checker.anomaly_to_string expected) message);
      check Alcotest.bool (name ^ ": counterexample rendered") true
        (counterexample <> "")
  | _, v ->
      Alcotest.failf "%s: expected %s violation, got %s" name
        (Checker.anomaly_to_string expected)
        (Checker.verdict_to_string v)

let expect_valid name h =
  match Checker.check_serializable_report h with
  | None, Checker.Valid _ -> ()
  | _, v -> Alcotest.failf "%s: expected valid, got %s" name (Checker.verdict_to_string v)

(* ------------------------------------------------------------------ *)
(* Serializable histories                                              *)

let test_serializable_chain () =
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ r "x" None; w "x" "x1" ] (committed 10);
  txn h ~tid:2 ~at:20 ~ops:[ r "x" (Some "x1"); w "x" "x2"; w "y" "y2" ] (committed 30);
  txn h ~tid:3 ~at:40 ~ops:[ r "x" (Some "x2"); r "y" (Some "y2") ] (committed 50);
  expect_valid "chain" h

let test_serializable_with_aborted_and_indeterminate () =
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ w "x" "x1" ] (committed 10);
  (* Aborted write whose value nobody observed: correctly ignored. *)
  txn h ~tid:2 ~at:5 ~ops:[ w "x" "dead" ] History.T_aborted;
  (* Unobserved indeterminate: may or may not have committed; the checker
     must not invent dependencies for it. *)
  txn h ~tid:3 ~at:8
    ~ops:[ w "x" "maybe" ]
    (History.T_indeterminate { commit_ts = Some (ts 15) });
  txn h ~tid:4 ~at:20 ~ops:[ r "x" (Some "x1") ] (committed 25);
  (* Observed indeterminate: the read of "y5" proves tid 5 committed, and
     its recorded would-be timestamp places it in the version order. *)
  txn h ~tid:5 ~at:28
    ~ops:[ w "y" "y5" ]
    (History.T_indeterminate { commit_ts = Some (ts 30) });
  txn h ~tid:6 ~at:40 ~ops:[ r "y" (Some "y5") ] (committed 45);
  expect_valid "aborted+indeterminate" h

let test_empty_history () = expect_valid "empty" (History.create ())

(* ------------------------------------------------------------------ *)
(* Anomaly fixtures                                                    *)

let test_g0_write_cycle () =
  (* T1 and T2 install conflicting writes at the same timestamp with
     incoherent per-key winners: later readers see T2's x but T1's y, so
     the two version orders disagree — a pure write cycle. *)
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ w "x" "x1"; w "y" "y1" ] (committed 10);
  txn h ~tid:2 ~at:0 ~ops:[ w "x" "x2"; w "y" "y2" ] (committed 10);
  txn h ~tid:3 ~at:20 ~ops:[ r "x" (Some "x2") ] (committed 20);
  txn h ~tid:4 ~at:20 ~ops:[ r "y" (Some "y1") ] (committed 21);
  expect_anomaly "G0" Checker.G0 h

let test_g1a_aborted_read () =
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ w "x" "dead" ] History.T_aborted;
  txn h ~tid:2 ~at:20 ~ops:[ r "x" (Some "dead") ] (committed 25);
  expect_anomaly "G1a" Checker.G1a h

let test_g1c_circular_information_flow () =
  (* Each transaction reads the other's write: information flowed in a
     circle (wr edges both ways), with no anti-dependency involved. *)
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ r "y" (Some "y2"); w "x" "x1" ] (committed 10);
  txn h ~tid:2 ~at:0 ~ops:[ r "x" (Some "x1"); w "y" "y2" ] (committed 5);
  expect_anomaly "G1c" Checker.G1c h

let test_g2_item_write_skew () =
  (* Classic write skew: each transaction reads the key the other writes,
     and neither write is observed by the other — both proceeded from the
     initial state. Only anti-dependencies close the cycle. *)
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ r "x" None; w "y" "y1" ] (committed 20);
  txn h ~tid:2 ~at:0 ~ops:[ r "y" None; w "x" "x2" ] (committed 10);
  expect_anomaly "G2-item" Checker.G2_item h

let test_lost_update () =
  (* Two read-modify-writes of x both proceeded from the initial version:
     the first committer's update is silently overwritten. *)
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ r "x" None; w "x" "x1" ] (committed 10);
  txn h ~tid:2 ~at:0 ~ops:[ r "x" None; w "x" "x2" ] (committed 20);
  expect_anomaly "lost update" Checker.Lost_update h

let test_minimal_witness_cycle () =
  (* The counterexample names the shortest cycle and renders each member. *)
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ r "x" None; w "x" "x1" ] (committed 10);
  txn h ~tid:2 ~at:0 ~ops:[ r "x" None; w "x" "x2" ] (committed 20);
  match Checker.check_serializable h with
  | Checker.Violation { counterexample; _ } ->
      check Alcotest.bool "shows the cycle" true (contains ~sub:"cycle:" counterexample);
      check Alcotest.bool "names both transactions" true
        (contains ~sub:"T1" counterexample && contains ~sub:"T2" counterexample);
      check Alcotest.bool "labels the edge kinds" true
        (contains ~sub:"--rw(" counterexample || contains ~sub:"--ww(" counterexample)
  | v -> Alcotest.failf "expected violation, got %s" (Checker.verdict_to_string v)

(* ------------------------------------------------------------------ *)
(* Soundness corner cases                                              *)

let test_duplicate_value_inconclusive () =
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ w "x" "same" ] (committed 10);
  txn h ~tid:2 ~at:20 ~ops:[ w "x" "same" ] (committed 30);
  match Checker.check_serializable_report h with
  | None, Checker.Inconclusive msg ->
      check Alcotest.bool "explains the broken assumption" true
        (contains ~sub:"unique-value" msg)
  | _, v -> Alcotest.failf "expected inconclusive, got %s" (Checker.verdict_to_string v)

let test_unknown_value_inconclusive () =
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ r "x" (Some "phantom") ] (committed 10);
  match Checker.check_serializable_report h with
  | None, Checker.Inconclusive _ -> ()
  | _, v -> Alcotest.failf "expected inconclusive, got %s" (Checker.verdict_to_string v)

(* ------------------------------------------------------------------ *)
(* Register linearizability                                            *)

let add h ~at ~dur op outcome =
  let e = History.invoke h ~client:0 ~now:at op in
  match outcome with Some o -> History.complete e ~now:(at + dur) o | None -> ()

let test_read_before_its_write () =
  let h = History.create () in
  add h ~at:0 ~dur:5 (History.Read { key = "x" }) (Some (History.Ok_read (Some "a")));
  add h ~at:10 ~dur:5 (History.Write { key = "x"; value = "a" }) (Some History.Ok_write);
  match Checker.check_linearizable h with
  | Checker.Violation { message; counterexample } ->
      check Alcotest.bool "names the key" true (contains ~sub:"at key x" message);
      check Alcotest.bool "shows the write" true (contains ~sub:"write(x, a)" counterexample)
  | v -> Alcotest.failf "expected a violation, got %s" (Checker.verdict_to_string v)

let test_register_value_written_twice () =
  let h = History.create () in
  add h ~at:0 ~dur:5 (History.Write { key = "x"; value = "a" }) (Some History.Ok_write);
  add h ~at:10 ~dur:5 (History.Write { key = "x"; value = "a" }) (Some History.Ok_write);
  match Checker.check_linearizable h with
  | Checker.Inconclusive msg ->
      check Alcotest.bool "names key and value" true (contains ~sub:"key x: value \"a\"" msg)
  | v -> Alcotest.failf "expected inconclusive, got %s" (Checker.verdict_to_string v)

(* A random single-key history: 1-8 writes with unique values, each ok,
   info, pending or failed; 0-12 reads of nil or of a written value, one in
   five failed; invocations in 0-12, so ties are common. *)
let gen_register_history =
  let open QCheck.Gen in
  let span = pair (int_range 0 12) (int_range 0 6) in
  let* n_writes = int_range 1 8 and* n_reads = int_range 0 12 in
  let* writes = list_repeat n_writes (pair span (int_range 0 3))
  and* reads = list_repeat n_reads (triple span (int_range 0 n_writes) (int_range 0 4)) in
  let write i ((at, dur), status) =
    ( at,
      dur,
      History.Write { key = "x"; value = Printf.sprintf "w%d" i },
      match status with
      | 0 -> Some History.Ok_write
      | 1 -> Some (History.Info "timeout")
      | 2 -> None
      | _ -> Some (History.Failed "aborted") )
  in
  let read ((at, dur), value, status) =
    let value = if value = 0 then None else Some (Printf.sprintf "w%d" (value - 1)) in
    ( at,
      dur,
      History.Read { key = "x" },
      Some (if status = 0 then History.Failed "timeout" else History.Ok_read value) )
  in
  let ops = List.mapi write writes @ List.map read reads in
  let h = History.create () in
  List.iter
    (fun (at, dur, op, outcome) -> add h ~at ~dur op outcome)
    (List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) ops);
  return h

let prop_zones_match_search =
  QCheck.Test.make ~name:"register check agrees with Wing-Gong search" ~count:2_000
    (QCheck.make ~print:History.to_string gen_register_history)
    (fun h ->
      Checker.is_valid (Checker.check_linearizable h)
      = Wing_gong.linearizable (History.entries h))

(* ------------------------------------------------------------------ *)
(* Serialization round trip                                            *)

let roundtrip name h =
  let s = History.serialize h in
  match History.deserialize s with
  | Error msg -> Alcotest.failf "%s: deserialize failed: %s" name msg
  | Ok h' ->
      check Alcotest.string (name ^ ": identical reserialization") s
        (History.serialize h');
      check Alcotest.string
        (name ^ ": identical verdict")
        (Checker.verdict_to_string (Checker.check_serializable h))
        (Checker.verdict_to_string (Checker.check_serializable h'))

let test_roundtrip_txns () =
  let h = History.create () in
  txn h ~tid:1 ~at:0 ~ops:[ r "x" None; w "x" "x1" ] (committed 10);
  txn h ~tid:2 ~at:0 ~ops:[ r "x" None; w "x" "x2" ] (committed 20);
  txn h ~tid:3 ~at:5 ~ops:[ w "y" "quoted \"value\" with\nnewline" ] History.T_aborted;
  txn h ~tid:4 ~at:8 ~ops:[ w "z" "zz" ] (History.T_indeterminate { commit_ts = None });
  txn h ~tid:5 ~at:9 ~ops:[ w "w" "ww" ]
    (History.T_indeterminate { commit_ts = Some (Ts.make ~wall:30 ~logical:7) });
  roundtrip "txns" h

let test_roundtrip_entries () =
  let h = History.create () in
  let e = History.invoke h ~client:0 ~now:0 (History.Write { key = "k"; value = "v 1" }) in
  History.complete e ~now:10 History.Ok_write;
  let e = History.invoke h ~client:1 ~now:5 (History.Read { key = "k" }) in
  History.complete e ~now:15 (History.Ok_read (Some "v 1"));
  let e = History.invoke h ~client:2 ~now:7 (History.Read { key = "k2" }) in
  History.complete e ~now:17 (History.Ok_read None);
  let e =
    History.invoke h ~client:1 ~now:20
      (History.Transfer { src = "a"; dst = "b"; amount = 7 })
  in
  History.complete e ~now:25 (History.Info "rpc timeout");
  let e = History.invoke h ~client:1 ~now:30 History.Snapshot in
  History.complete e ~now:35 (History.Ok_snapshot [ ("a", 93); ("b", 107) ]);
  (* A still-pending entry must survive the round trip too. *)
  ignore (History.invoke h ~client:3 ~now:40 (History.Read { key = "k" }) : History.entry);
  let s = History.serialize h in
  match History.deserialize s with
  | Error msg -> Alcotest.failf "deserialize failed: %s" msg
  | Ok h' ->
      check Alcotest.string "identical reserialization" s (History.serialize h');
      check Alcotest.string "identical rendering" (History.to_string h)
        (History.to_string h')

let test_deserialize_rejects_garbage () =
  (match History.deserialize "not a history" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header accepted");
  match History.deserialize "crdb-history v1\nentry nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated entry accepted"

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "serializable chain accepted" `Quick test_serializable_chain;
    Alcotest.test_case "serializable with aborted and indeterminate" `Quick
      test_serializable_with_aborted_and_indeterminate;
    Alcotest.test_case "empty history accepted" `Quick test_empty_history;
    Alcotest.test_case "G0 write cycle" `Quick test_g0_write_cycle;
    Alcotest.test_case "G1a aborted read" `Quick test_g1a_aborted_read;
    Alcotest.test_case "G1c circular information flow" `Quick
      test_g1c_circular_information_flow;
    Alcotest.test_case "G2-item write skew" `Quick test_g2_item_write_skew;
    Alcotest.test_case "lost update" `Quick test_lost_update;
    Alcotest.test_case "minimal witness cycle rendered" `Quick test_minimal_witness_cycle;
    Alcotest.test_case "duplicate value inconclusive" `Quick
      test_duplicate_value_inconclusive;
    Alcotest.test_case "unknown value inconclusive" `Quick test_unknown_value_inconclusive;
    Alcotest.test_case "register read before its write" `Quick test_read_before_its_write;
    Alcotest.test_case "register value written twice inconclusive" `Quick
      test_register_value_written_twice;
    QCheck_alcotest.to_alcotest prop_zones_match_search;
    Alcotest.test_case "round trip: transactions" `Quick test_roundtrip_txns;
    Alcotest.test_case "round trip: entries" `Quick test_roundtrip_entries;
    Alcotest.test_case "deserialize rejects garbage" `Quick test_deserialize_rejects_garbage;
  ]
