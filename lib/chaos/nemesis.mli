(** Declarative fault injection (the "nemesis") for chaos runs.

    A nemesis drives the cluster's failure-injection surfaces — transport
    kills and partitions, clock skew, lease transfers — either from a timed
    script or from a seeded random schedule, as a {!Crdb_sim.Proc} coroutine
    inside the simulator. Every injected or healed fault is recorded once, as
    a [Fault]/[Heal] entry in the cluster's {!Crdb_obs.Events} log (each
    injection also bumps the [chaos.injected] counter), so one seed
    reproduces one byte-identical schedule. *)

module Cluster = Crdb_kv.Cluster

type fault =
  | Kill_node of int
  | Revive_node of int  (** process-restart semantics: volatile state lost *)
  | Kill_zone of string * string  (** region, zone *)
  | Revive_zone of string * string
  | Kill_region of string
  | Revive_region of string
  | Partition_regions of string * string
  | Heal_partition of string * string
  | Heal_all_partitions
  | Clock_jump of int * int  (** node, new absolute skew in microseconds *)
  | Lease_transfer of Cluster.range_id * int  (** range, target node *)
  | Split_range of Cluster.range_id * string  (** range, split key *)
  | Merge_range of Cluster.range_id
      (** propose subsuming the range's right-hand neighbor *)
  | Rebalance of Cluster.range_id
      (** one allocator-driven replica move (add-then-remove) *)

val apply : Cluster.t -> fault -> unit
(** Apply one fault immediately, without recording it. Revivals use
    {!Cluster.restart_node} (crash-restart semantics). *)

type t
(** A running (or finished) schedule. *)

val run_script : Cluster.t -> (int * fault) list -> t
(** Spawn a coroutine that injects each fault at its offset (microseconds
    from now; entries are sorted first). Scripted heals are explicit
    entries. *)

type kind =
  | K_kill_node
  | K_kill_zone
  | K_kill_region
  | K_partition
  | K_clock_jump
  | K_lease_transfer
  | K_split_range
  | K_merge_range
  | K_rebalance

val all_kinds : kind list
(** The original six kinds. The range-lifecycle kinds are excluded on
    purpose — the kinds list length feeds the schedule RNG, so including
    them would reshuffle every existing seeded schedule; enable them via
    [kinds] (e.g. [all_kinds @ lifecycle_kinds]) to race splits, merges and
    rebalances against kills, partitions and lease transfers. *)

val lifecycle_kinds : kind list
(** [[K_split_range; K_merge_range; K_rebalance]]. *)

type random_config = {
  mean_interval : int;  (** µs between injections (uniform around mean) *)
  mean_duration : int;  (** µs a fault stays active before healing *)
  kinds : kind list;  (** enabled fault kinds *)
  enforce_quorum : bool;  (** refuse kills that would cost a range its
                             live voter quorum *)
}

val default_random : random_config
(** 2 s between faults, 4 s outages, every kind, quorum guard on. Clock
    jumps are always drawn within ±100 ms (inside the default 250 ms
    [max_offset]). *)

val run_random :
  ?config:random_config -> Cluster.t -> seed:int -> duration:int -> unit -> t
(** Spawn a coroutine drawing faults from a dedicated RNG seeded with
    [seed] (independent of the cluster's stream) until [duration]
    microseconds have elapsed, then heal everything it left in force. One
    fault is active at a time; each is healed after a random hold. *)

val stop : t -> unit
(** Ask the schedule to stop at its next wake-up (it will not inject
    further faults; call {!heal_all} to clean up immediately). *)

val heal_all : t -> unit
(** Revive every dead node (restart semantics), heal all partitions, and
    restore every clock to its baseline skew. Recorded in the event log. *)

val log_to_string : t -> string
(** The fault log: one line per [Fault]/[Heal] event in the cluster's event
    log, oldest first — byte-identical for a given seed and workload. *)
