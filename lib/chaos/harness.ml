module Proc = Crdb_sim.Proc
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Cluster = Crdb_kv.Cluster
module Zoneconfig = Crdb_kv.Zoneconfig
module Txn = Crdb_txn.Txn
module Checker = Crdb_check.Checker

type setup = {
  regions : int;
  survival : Zoneconfig.survival;
  policy : Cluster.policy;
  cluster_seed : int;
  nemesis_seed : int;
  nemesis : Nemesis.random_config option;
  script : (int * Nemesis.fault) list option;
  duration : int;
  workload : Workload.config;
  cluster_config : Cluster.config option;
}

let default =
  {
    regions = 3;
    survival = Zoneconfig.Region;
    policy = Cluster.Lag;
    cluster_seed = 42;
    nemesis_seed = 42;
    nemesis = Some Nemesis.default_random;
    script = None;
    duration = 20_000_000;
    workload = Workload.default;
    cluster_config = None;
  }

type outcome = {
  cluster : Cluster.t;
  fault_log : string;
  result : Workload.result;
  register_verdict : Checker.verdict;
  bank_verdict : Checker.verdict;
  txn_verdict : Checker.verdict;
}

let passed o =
  Checker.is_valid o.register_verdict
  && Checker.is_valid o.bank_verdict
  && Checker.is_valid o.txn_verdict

(* Build a cluster over the paper's Table 1 regions, run the workload with
   the configured nemesis schedule alongside it, heal, audit, check. [arm]
   runs between range setup and the workload (e.g. to enable tracing). *)
let run ?(arm = fun (_ : Cluster.t) -> ()) s =
  let regions = List.filteri (fun i _ -> i < s.regions) Latency.table1_regions in
  let topology = Topology.symmetric ~regions ~nodes_per_region:3 in
  let base = Option.value s.cluster_config ~default:Cluster.default in
  let cl =
    Cluster.create
      ~config:{ base with Cluster.seed = s.cluster_seed }
      ~topology ~latency:Latency.table1 ()
  in
  Workload.setup ~policy:s.policy cl ~survival:s.survival s.workload;
  arm cl;
  let mgr = Txn.create_manager cl in
  let result, fault_log =
    Cluster.run cl (fun () ->
        let nem =
          match (s.script, s.nemesis) with
          | Some script, _ -> Some (Nemesis.run_script cl script)
          | None, Some config ->
              Some
                (Nemesis.run_random ~config cl ~seed:s.nemesis_seed
                   ~duration:s.duration ())
          | None, None -> None
        in
        let r = Workload.run cl mgr s.workload in
        (match nem with
        | Some n ->
            Nemesis.stop n;
            Nemesis.heal_all n
        | None -> ());
        (* Let replication catch up and leases move home before the audit. *)
        Proc.sleep (Cluster.sim cl) 5_000_000;
        Cluster.rebalance_leases cl;
        Proc.sleep (Cluster.sim cl) 2_000_000;
        Workload.finale cl mgr s.workload r;
        (r, match nem with Some n -> Nemesis.log_to_string n | None -> ""))
  in
  let register_verdict = Checker.check_linearizable result.Workload.registers in
  let bank_verdict =
    if s.workload.Workload.accounts > 1 then
      Checker.check_bank ~total:(Workload.bank_total s.workload) result.Workload.bank
    else Checker.Valid { ops = 0 }
  in
  let txn_verdict =
    if s.workload.Workload.txn.Workload.Txn_config.clients > 0 then
      Checker.check_serializable result.Workload.txns
    else Checker.Valid { ops = 0 }
  in
  { cluster = cl; fault_log; result; register_verdict; bank_verdict; txn_verdict }
