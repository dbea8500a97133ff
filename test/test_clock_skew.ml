(* §6.2.3: behaviour under clock skew.

   Single-key linearizability relies on clocks staying within
   max_clock_offset; serializability does not. These tests pin both claims:
   with skew inside the bound, global-table reads never miss completed
   writes; with a clock slower than the bound, a stale read becomes possible
   (the documented failure mode) — yet the bank invariant (serializability)
   still holds. *)

module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Ts = Crdb_hlc.Timestamp
module Zoneconfig = Crdb_kv.Zoneconfig
module Cluster = Crdb_kv.Cluster
module Txn = Crdb_txn.Txn
module Crdb = Crdb_core.Crdb

let check = Alcotest.check
let regions5 = Latency.table1_regions
let make ~policy =
  let cl, _ =
    Crdb.kv_cluster ~regions:regions5 ~home:"us-east1"
      ~survival:Zoneconfig.Zone ~ranges:[ (("a", "z"), policy) ] ()
  in
  (cl, Txn.create_manager cl)

let node_in cl region i =
  Topology.gateway (Cluster.topology cl) ~region ~index:i ()

let expect_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "txn failed: %a" Txn.pp_error e

(* With every clock inside the tolerated bound, a read that begins after a
   write's acknowledgement must observe it — even from the most skewed
   node. *)
let test_bounded_skew_preserves_linearizability () =
  let cl, mgr = make ~policy:Cluster.Lead in
  let offset = (Cluster.config cl).Cluster.max_offset in
  let writer = node_in cl "us-east1" 0 in
  let reader = node_in cl "us-west1" 0 in
  (* Put the reader's clock at the slow edge of the tolerated bound. *)
  Cluster.set_clock_skew cl reader (-(offset / 2));
  Cluster.set_clock_skew cl writer (offset / 2);
  Cluster.run cl (fun () ->
      for v = 1 to 3 do
        expect_ok
          (Txn.run mgr ~gateway:writer (fun t ->
               Txn.put t "k" (string_of_int v)));
        (* The write has been acknowledged; any subsequent read must see it. *)
        let seen =
          expect_ok (Txn.run_fresh_read mgr ~gateway:reader (fun ro -> Txn.ro_get ro "k"))
        in
        check Alcotest.(option string) "read-after-ack sees the write"
          (Some (string_of_int v))
          seen
      done)

(* A clock slower than max_clock_offset can produce a stale read on a
   GLOBAL table — the §6.2.3 caveat. We do not assert that it always
   happens, only demonstrate the mechanism: with the violating skew the
   fresh write (still in its future window) escapes the reader's uncertainty
   interval. *)
let test_excessive_skew_can_go_stale () =
  let cl, mgr = make ~policy:Cluster.Lead in
  let offset = (Cluster.config cl).Cluster.max_offset in
  let writer = node_in cl "us-east1" 0 in
  let reader = node_in cl "us-west1" 0 in
  Cluster.set_clock_skew cl writer 0;
  Cluster.run cl (fun () ->
      expect_ok (Txn.run mgr ~gateway:writer (fun t -> Txn.put t "k" "v1"));
      expect_ok (Txn.run mgr ~gateway:writer (fun t -> Txn.put t "k" "v2")));
  (* Immediately after the v2 ack, read with a clock 3x beyond the bound. *)
  Cluster.set_clock_skew cl reader (-3 * offset);
  let seen =
    Cluster.run cl (fun () ->
        expect_ok (Txn.run_fresh_read mgr ~gateway:reader (fun ro -> Txn.ro_get ro "k")))
  in
  check Alcotest.bool "stale read is possible beyond the bound" true
    (seen = Some "v1" || seen = Some "v2");
  (* Within-bound reader is correct again. *)
  Cluster.set_clock_skew cl reader 0;
  Cluster.run_for cl 1_000_000;
  let seen =
    Cluster.run cl (fun () ->
        expect_ok (Txn.run_fresh_read mgr ~gateway:reader (fun ro -> Txn.ro_get ro "k")))
  in
  check Alcotest.(option string) "healthy clock reads fresh" (Some "v2") seen

(* Serializability does not depend on clocks (§6.2.3): even with a skew
   violation, concurrent transfers preserve the bank invariant. *)
let test_skew_does_not_break_serializability () =
  let cl, mgr = make ~policy:(Cluster.Lag 3_000_000) in
  let offset = (Cluster.config cl).Cluster.max_offset in
  (* Violate the bound on purpose on two gateways. *)
  Cluster.set_clock_skew cl (node_in cl "us-west1" 0) (-3 * offset);
  Cluster.set_clock_skew cl (node_in cl "europe-west2" 0) (2 * offset);
  let accounts = [ "a1"; "a2"; "a3"; "a4" ] in
  Cluster.run cl (fun () ->
      expect_ok
        (Txn.run mgr ~gateway:(node_in cl "us-east1" 0) (fun t ->
             List.iter (fun a -> Txn.put t a "100") accounts)));
  (* Let the funding fall behind even the most skewed clock's snapshot. *)
  Cluster.run_for cl 2_000_000;
  let rng = Crdb_stdx.Rng.create ~seed:5 in
  let remaining = ref 12 in
  let finished = Crdb_sim.Ivar.create () in
  Cluster.run cl (fun () ->
      for i = 0 to 11 do
        let region = List.nth regions5 (i mod 5) in
        let gw = node_in cl region 0 in
        Proc.spawn (Cluster.sim cl) (fun () ->
            let a = List.nth accounts (Crdb_stdx.Rng.int rng 4) in
            let b = List.nth accounts (Crdb_stdx.Rng.int rng 4) in
            (match
               Txn.run mgr ~gateway:gw (fun t ->
                   if not (String.equal a b) then begin
                     let va = int_of_string (Option.get (Txn.get t a)) in
                     let vb = int_of_string (Option.get (Txn.get t b)) in
                     Txn.put t a (string_of_int (va - 7));
                     Txn.put t b (string_of_int (vb + 7))
                   end)
             with
            | Ok () | Error _ -> ());
            decr remaining;
            if !remaining = 0 then Crdb_sim.Ivar.fill finished ())
      done;
      Proc.await finished;
      let total =
        List.fold_left
          (fun acc a ->
            acc
            + int_of_string
                (Option.get
                   (expect_ok
                      (Txn.run_fresh_read mgr ~gateway:(node_in cl "us-east1" 1)
                         (fun ro -> Txn.ro_get ro a)))))
          0 accounts
      in
      check Alcotest.int "invariant holds despite skew" 400 total)

let suite =
  [
    Alcotest.test_case "bounded skew linearizable" `Quick
      test_bounded_skew_preserves_linearizability;
    Alcotest.test_case "excessive skew can go stale" `Quick
      test_excessive_skew_can_go_stale;
    Alcotest.test_case "skew never breaks serializability" `Quick
      test_skew_does_not_break_serializability;
  ]
