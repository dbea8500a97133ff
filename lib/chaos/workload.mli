(** Chaos workloads: register and bank clients that record every operation
    into a {!Crdb_check.History} for offline checking.

    The register workload is a YCSB-A-style mix (scrambled-Zipfian keys,
    configurable read/write ratio) of single-key serializable transactions;
    its history feeds {!Crdb_check.Checker.check_linearizable}. The bank
    workload runs transfers between preloaded accounts plus periodic
    full-table snapshots; its history feeds
    {!Crdb_check.Checker.check_bank}. Clients pick a live gateway in their
    home region per operation (reconnecting around kills), classify
    unknown-outcome errors as [Info], and are fully deterministic given the
    cluster seed and the workload seed. *)

module Cluster = Crdb_kv.Cluster
module History = Crdb_check.History

(** Configuration of the multi-key transactional workload, the one the
    serializability checker consumes. One record instead of five loose
    fields so harnesses and CLIs thread it around as a unit. *)
module Txn_config : sig
  type t = {
    clients : int;
        (** multi-key transactional clients; 0 (the default) disables the
            workload and leaves all pre-existing seeded histories
            unchanged *)
    ops_per_client : int;
    keys : int;  (** transactional keyspace ([tk00] ...) *)
    ranges : int;
        (** ranges the transactional keyspace is carved into, so every
            transaction spans range boundaries *)
    hot_keys : int;
        (** when [>= 2], transactional clients pick all their keys from the
            first [hot_keys] keys, forcing write-write conflicts that
            exercise the conflict-resolution machinery; 0 (the default)
            keeps the uniform key picker and leaves seeded histories
            unchanged *)
  }

  val default : t
  (** [{ clients = 0; ops_per_client = 12; keys = 12; ranges = 3;
      hot_keys = 0 }] *)
end

type config = {
  seed : int;
  clients_per_region : int;
  ops_per_client : int;
  keys : int;  (** register keyspace ([key000] ...) *)
  write_ratio : float;  (** YCSB-A = 0.5 *)
  accounts : int;  (** bank accounts; < 2 disables the bank workload *)
  txn : Txn_config.t;  (** the multi-key transactional workload *)
}

val default : config
(** Fixed for every config: clients think 150 ms on average between
    operations, retry a transaction at most 3 times, and the bank runs 3
    clients of 12 operations each over accounts preloaded with 100. *)

val key_of : int -> string

val bank_total : config -> int
(** The conserved quantity: [accounts * 100]. *)

val setup :
  ?policy:Cluster.policy -> Cluster.t -> survival:Crdb_kv.Zoneconfig.survival -> config -> unit
(** Create the register and bank ranges (zone config derived from
    [survival], leaseholder in the first region), settle the cluster, and
    preload the account balances. *)

type result = {
  registers : History.t;
  bank : History.t;
  txns : History.t;  (** whole-transaction records of the multi-key workload *)
  mutable ok : int;
  mutable failed : int;
  mutable info : int;
}

val run : Cluster.t -> Crdb_txn.Txn.manager -> config -> result
(** Run every client to completion and return the recorded histories.
    Call inside {!Cluster.run}, typically with a nemesis schedule running
    concurrently. *)

val finale : Cluster.t -> Crdb_txn.Txn.manager -> config -> result -> unit
(** Post-chaos audit (call after healing): a fresh read of every register
    and a final bank snapshot, appended to the same histories. *)
