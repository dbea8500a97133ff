(** One-call chaos runs: cluster + workload + nemesis + checkers.

    The harness is what the [crdb_sim chaos] subcommand, [bench/perf]'s
    chaos workload and the test suites share: build a Table-1 cluster, run
    the register/bank workload with a nemesis schedule injected alongside
    it, heal everything, append the post-chaos audit, and return both checker
    verdicts with the deterministic fault log. Identical [setup] values
    (seeds included) produce byte-identical fault logs and verdicts. *)

module Cluster = Crdb_kv.Cluster
module Checker = Crdb_check.Checker

type setup = {
  regions : int;  (** first N of the paper's Table 1 regions, 3 nodes each *)
  survival : Crdb_kv.Zoneconfig.survival;
  policy : Cluster.policy;
  cluster_seed : int;
  nemesis_seed : int;
  nemesis : Nemesis.random_config option;  (** random schedule (if no script) *)
  script : (int * Nemesis.fault) list option;  (** timed script, wins over random *)
  duration : int;  (** µs the random nemesis stays active *)
  workload : Workload.config;
  cluster_config : Cluster.config option;
      (** base KV config; [seed] is overridden by [cluster_seed]. [None]
          means {!Cluster.default} *)
}

val default : setup
(** 3 regions, SURVIVE REGION, lagging closed timestamps, random nemesis of
    every fault kind for 20 s, the default workload. *)

type outcome = {
  cluster : Cluster.t;
  fault_log : string;
  result : Workload.result;
  register_verdict : Checker.verdict;
  bank_verdict : Checker.verdict;
  txn_verdict : Checker.verdict;
      (** {!Checker.check_serializable} over the multi-key transactional
          history; trivially valid when [txn.clients = 0] *)
}

val passed : outcome -> bool
(** All verdicts valid. *)

val run : ?arm:(Cluster.t -> unit) -> setup -> outcome
(** Execute the run. [arm] is called after range setup and before the
    workload (e.g. to [Trace.enable] the cluster's trace). *)
