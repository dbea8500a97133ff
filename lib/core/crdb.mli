(** Public façade: a simulated multi-region CockroachDB cluster.

    This module ties the substrates together and re-exports the layers a
    user programs against. A typical session:

    {[
      let t =
        Crdb.start ~regions:[ "us-east1"; "us-west1"; "europe-west2" ] ()
      in
      Crdb.exec t
        (Ddl.N_create_database
           { db = "movr"; primary = "us-east1";
             regions = [ "us-west1"; "europe-west2" ] });
      Crdb.exec t (Ddl.N_create_table { db = "movr"; table = users_schema });
      let db = Crdb.database t "movr" in
      let gw = Crdb.gateway t ~region:"us-west1" () in
      Crdb.run t (fun () ->
          Engine.insert db ~gateway:gw ~table:"users" row |> Result.get_ok)
    ]} *)

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
module Report = Crdb_obs.Report

val version : string

type t

val start : ?config:Cluster.config -> regions:string list -> unit -> t
(** Boot a cluster with 3 nodes per region. The latency profile is the
    paper's Table 1 matrix when every region appears in it, otherwise the
    distance-derived GCP profile. *)

val cluster : t -> Cluster.t
val engine : t -> Engine.t

val obs : t -> Obs.t
(** The cluster's observability context ({!Cluster.obs}): metrics are always
    collected; call [Trace.enable (Obs.trace (Crdb.obs t))] before the
    workload to also record spans, then export with [Trace.to_chrome_json]. *)

val topology : t -> Topology.t
val sim_now : t -> int

val exec : t -> Ddl.stmt -> unit
val exec_all : t -> Ddl.stmt list -> unit
val database : t -> string -> Engine.db

val gateway : t -> region:string -> ?index:int -> unit -> Topology.node_id
(** {!Topology.gateway} on the cluster's topology. *)

val run : t -> (unit -> 'a) -> 'a
(** Run a client workload (a {!Crdb_sim.Proc} process) to completion. *)

val run_for : t -> int -> unit
(** Advance simulated time (microseconds). *)

val settle : t -> unit

val kv_cluster :
  ?config:Cluster.config ->
  regions:string list ->
  home:string ->
  survival:Zoneconfig.survival ->
  ranges:((string * string) * Cluster.policy) list ->
  unit ->
  Cluster.t * Cluster.range_id list
(** A bare KV cluster without the SQL layer: 3 nodes per region over the
    Table 1 latency matrix, one range per [(span, policy)] in list order,
    all placed by the same zone config (homed in [home], [survival],
    default placement), then settled so leaseholders are elected. The
    range ids come back in [ranges] order. *)
