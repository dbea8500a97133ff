module Value = Crdb_sql.Value
module Schema = Crdb_sql.Schema
module Ddl = Crdb_sql.Ddl
module Legacy = Crdb_sql.Legacy
module Engine = Crdb_sql.Engine
module Txn = Crdb_txn.Txn
module Cluster = Crdb_kv.Cluster
module Zoneconfig = Crdb_kv.Zoneconfig
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Transport = Crdb_net.Transport
module Timestamp = Crdb_hlc.Timestamp
module Obs = Crdb_obs.Obs
module Trace = Crdb_obs.Trace
module Metrics = Crdb_obs.Metrics
module Events = Crdb_obs.Events
module Timeseries = Crdb_obs.Timeseries
module Phase = Crdb_obs.Phase
module Op = Crdb_obs.Op
module Report = Crdb_obs.Report

let version = "0.1.0"

type t = { cl : Cluster.t; eng : Engine.t }

let start ?config ~regions () =
  let latency =
    if List.for_all (fun r -> List.mem r Latency.table1_regions) regions then
      Latency.table1
    else Latency.gcp
  in
  let topology = Topology.symmetric ~regions ~nodes_per_region:3 in
  let cl = Cluster.create ?config ~topology ~latency () in
  { cl; eng = Engine.create cl }

let cluster t = t.cl
let engine t = t.eng
let obs t = Cluster.obs t.cl
let topology t = Cluster.topology t.cl
let sim_now t = Crdb_sim.Sim.now (Cluster.sim t.cl)
let exec t stmt = Engine.exec t.eng stmt
let exec_all t stmts = Engine.exec_all t.eng stmts
let database t name = Engine.database t.eng name

let gateway t ~region ?index () =
  Topology.gateway (topology t) ~region ?index ()

let run t f = Cluster.run t.cl f
let run_for t d = Cluster.run_for t.cl d
let settle t = Cluster.settle t.cl

let kv_cluster ?config ~regions ~home ~survival ~ranges () =
  let topology = Topology.symmetric ~regions ~nodes_per_region:3 in
  let cl = Cluster.create ?config ~topology ~latency:Latency.table1 () in
  let zone =
    Zoneconfig.derive ~regions ~home ~survival ~placement:Zoneconfig.Default
  in
  let rids =
    List.map
      (fun (span, policy) -> Cluster.add_range cl ~span ~zone ~policy)
      ranges
  in
  Cluster.settle cl;
  (cl, rids)
