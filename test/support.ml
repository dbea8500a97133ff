(* Cluster helpers shared by the test suites. *)

module Topology = Crdb_net.Topology
module Ts = Crdb_hlc.Timestamp
module Cluster = Crdb_kv.Cluster

(* The [i]th node of [region]. *)
let node_in cl region i =
  Topology.gateway (Cluster.topology cl) ~region ~index:i ()

(* Write [key] and commit: a writer with an [anchor] registers a
   transaction record there and commits it before resolving. *)
let put ?anchor cl ~gateway ~txn key value =
  let ts = Cluster.now_ts cl gateway in
  match
    Cluster.write cl ?anchor ~gateway ~txn ~key ~value:(Some value) ~ts ()
  with
  | `Wounded e | `Err e ->
      Alcotest.failf "write failed: %s" e
  | `Ok commit_ts ->
      Option.iter
        (fun key ->
          match
            Cluster.txn_update cl ~gateway ~name:"kv.txn_commit" ~txn ~key
              (Crdb_kv.Txnrec.U_commit { ts = commit_ts })
          with
          | Some (Crdb_kv.Txnrec.Committed _) -> ()
          | Some _ | None ->
              Alcotest.failf "txn %d's record did not commit" txn)
        anchor;
      Cluster.resolve cl ~gateway ~txn ~commit:(Some commit_ts)
        ~keys:[ key ] ();
      commit_ts

(* Minimal read loop: ratchet the timestamp on uncertainty like a real
   transaction would (the fixed upper bound never changes, §6.1). *)
let get cl ~gateway ?txn key =
  let ts = Cluster.now_ts cl gateway in
  let max_ts = Ts.add_wall ts (Cluster.config cl).Cluster.max_offset in
  let rec go ts attempts =
    match Cluster.read cl ~inline_bump:true ~gateway ~txn ~key ~ts ~max_ts () with
    | `Ok (value, _) -> value
    | `Uncertain value_ts when attempts < 10 ->
        go value_ts (attempts + 1)
    | `Uncertain _ -> Alcotest.fail "uncertainty loop"
    | `Redirect -> Alcotest.fail "unexpected redirect"
    | `Wounded e | `Err e ->
        Alcotest.failf "read error: %s" e
  in
  go ts 0
