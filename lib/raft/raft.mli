(** Raft consensus for one Range replica group.

    Faithful to the Raft paper (leader election with randomized timeouts,
    log matching, commit rules) with the extensions CRDB's replication layer
    requires:

    - {b learners} (non-voting replicas, §5.2): receive the log and apply
      committed entries but are excluded from quorums and elections;
    - {b quiescence}: an idle leader stops heartbeating after telling its
      followers, and followers of a quiesced range only campaign if a node
      liveness oracle reports the leader's node dead — this is what makes
      simulating hundreds of mostly-idle ranges cheap, and mirrors CRDB's
      epoch-based leases;
    - {b pre-vote}: timed-out followers probe for electability before
      bumping terms, so a rejoining replica with a stale log cannot depose
      a healthy leader;
    - {b leadership transfer}: [transfer_leadership] implements lease
      preference placement (§3.2), deferred until the target's log is
      caught up;
    - {b joint-free reconfiguration}: a replicated configuration entry adds,
      removes or re-kinds one peer, one entry at a time; new replicas are
      seeded with a state snapshot.

    The module is network-agnostic: it emits messages through a [send]
    callback and receives them via {!handle}. One instance exists per
    (range, node) pair; transport and state-machine wiring live in
    [Crdb_kv]. *)

type peer_kind = Voter | Learner

type config_change = (int * peer_kind) list
(** A peer set. A configuration entry carries the whole new set, built by
    Raft from the applied one by a single-peer change. *)

type 'cmd payload =
  | Command of 'cmd
  | Config of config_change
  | Noop  (** appended by a fresh leader to commit entries from prior terms *)

type 'cmd entry = { term : int; index : int; payload : 'cmd payload }

type ('cmd, 'snap) message =
  | Pre_vote of { term : int; last_log_index : int; last_log_term : int }
      (** electability probe; grants change no state (Raft pre-vote) *)
  | Pre_vote_reply of { term : int; granted : bool }
  | Request_vote of { term : int; last_log_index : int; last_log_term : int }
  | Vote of { term : int; granted : bool }
  | Append of {
      term : int;
      prev_index : int;
      prev_term : int;
      entries : 'cmd entry list;
      commit : int;
    }
  | Append_reply of { term : int; success : bool; match_index : int }
  | Install_snapshot of {
      term : int;
      last_index : int;
      last_term : int;
      peers : config_change;
      snap : 'snap;
    }
  | Quiesce of { term : int; commit : int }
  | Timeout_now of { term : int }

type role = Leader | Follower | Candidate

type ('cmd, 'snap) callbacks = {
  send : int -> ('cmd, 'snap) message -> unit;
      (** deliver a message to a peer (asynchronously, may drop) *)
  on_apply : index:int -> 'cmd -> unit;
      (** a committed command reached this replica's state machine *)
  on_role : role -> unit;  (** role transitions, for lease maintenance *)
  on_config : config_change -> unit;
      (** a configuration entry was applied on this replica *)
  take_snapshot : unit -> 'snap;
      (** leader-side: capture state machine for a lagging/new peer *)
  install_snapshot : 'snap -> unit;  (** follower-side: replace state *)
  is_node_live : int -> bool;
      (** liveness oracle: may this node's leader still be alive? Campaigns
          are suppressed while the current leader's node is reported live. *)
  node_epoch : int -> int;
      (** liveness epoch (incarnation counter) of a node; bumped by restarts.
          A quiesced follower only trusts [is_node_live] for the leader
          incarnation it quiesced under — a restarted leader is a follower
          again, and must not keep suppressing elections. *)
  on_discard : 'cmd -> unit;
      (** a log entry was discarded from this replica's log without having
          been committed here — overwritten by a new leader's conflicting
          suffix, or dropped by a snapshot install covering uncommitted
          tail entries. Fired on every replica that drops a copy, in
          particular the proposer's, so pipelined callers waiting on the
          command's completion can fail fast instead of timing out. This is
          a strong hint, not a verdict: callers must treat a discarded
          proposal as indeterminate (it is overwhelmingly likely lost, but
          another surviving copy can in principle still commit). *)
}

type ('cmd, 'snap) t

type 'cmd committed
(** The committed entries of one group's log, held once for all its
    replicas: each replica keeps only the entries after its own commit
    index and moves each newly committed prefix here. Append-only. *)

val committed : unit -> 'cmd committed
(** An empty store, for the replicas of one group. *)

val committed_count : _ committed -> int
(** Entries the store holds. *)

val create :
  sim:Crdb_sim.Sim.t ->
  rng:Crdb_stdx.Rng.t ->
  id:int ->
  peers:config_change ->
  callbacks:('cmd, 'snap) callbacks ->
  ?obs:Crdb_obs.Obs.t ->
  ?range:int ->
  ?boundary:int * int ->
  ?shared:'cmd committed ->
  unit ->
  ('cmd, 'snap) t
(** [peers] must include [id] itself. Timers: election 3s (randomized up
    to 2x), heartbeat 1s. [obs] receives
    [raft.*] counters (elections, leadership changes, append/snapshot
    rounds, quiescence) and the commit-latency histogram, scoped to this
    node and shared by its replicas of every range, plus election spans
    (scoped to [range] too) when tracing is enabled.
    [boundary] is an [(index, term)] snapshot boundary the log starts
    after (default [(0, 0)]): replicas of a group whose initial state was
    installed out-of-band (e.g. the right half of a range split) are
    created with a non-zero boundary so that replicas added later are
    seeded with a state snapshot instead of replaying a log that does not
    contain that initial state. All initial replicas of a group must use
    the same boundary. [shared] is the group's committed store, made once
    with {!committed} and passed to every replica of the group (default: a
    store private to this replica).
    @raise Invalid_argument when a replica commits, at an index [shared]
    already holds, an entry other than the one held there. *)

val is_leader : _ t -> bool

val serving : _ t -> bool
(** A leader that has applied every entry committed before its term. *)

val leader_id : _ t -> int option
val term : _ t -> int
val commit_index : _ t -> int
val last_index : _ t -> int
val applied_index : _ t -> int

val tail_length : _ t -> int
(** Entries this replica holds itself: those after its commit index. *)

val peers : _ t -> config_change
val quiesced : _ t -> bool

val last_quorum_contact : _ t -> int
(** Simulation time of the last successful contact with a follower (or of
    assuming leadership). A leader whose contact is stale cannot be sure it
    still holds the lease; the KV layer refuses to serve consistent reads
    from it unless the range is quiesced (in which case followers are
    gated on the liveness oracle instead and cannot have elected another
    leader). *)

val propose : ('cmd, 'snap) t -> 'cmd -> int option
(** Append a command (leader only; [None] otherwise). The returned log index
    is applied on this replica via [on_apply] once committed. *)

val set_peer : ('cmd, 'snap) t -> int -> peer_kind -> int option
(** [set_peer t node kind] proposes adding [node] as a peer of [kind], or
    changing a peer's kind; its replica is created (and snapshot-seeded) once
    the entry commits and [on_config] fires. [remove_peer t node] proposes
    removing [node]. Changes are single-peer and one at a time, so any quorum
    of the old configuration meets any quorum of the new one (Raft thesis
    §4.1). A configuration takes effect when applied and a change is built on
    the applied peers, so both return [None], proposing nothing, when this
    replica is not the leader, when a configuration entry in its log is
    unapplied (etcd raft's [pendingConfIndex]), when [node] is the leader
    (transfer leadership first) or when nothing would change. *)

val remove_peer : ('cmd, 'snap) t -> int -> int option

val handle : ('cmd, 'snap) t -> from:int -> ('cmd, 'snap) message -> unit

val transfer_leadership : _ t -> int -> unit
(** Ask the given voter to take over (no-op if not leader). *)

val start : ?preferred:int -> _ t -> unit
(** Arm the initial election machinery. Call once after all replicas of the
    group exist. The replica whose id is [preferred] (default: the smallest
    voter id) campaigns immediately so groups start with a deterministic
    leader in the desired locality. *)

val stop : _ t -> unit
(** Halt all timers (replica removed or node decommissioned). *)

val commit_target : commit:int -> last:int -> term_start:int -> int array -> int
(** The commit rule, allocating nothing: the largest index a quorum holds,
    given one match index per voter (the leader's own is [last]), if the
    leader's term wrote it (from [term_start] on); else [commit]. *)

val restart : _ t -> unit
(** Model a process restart after a crash: durable state (term, vote, log,
    snapshot boundary, commit/applied indices) is retained, volatile state
    (role, known leader, quiescence, vote tallies, per-peer replication
    progress, pending leadership transfer, timers) is discarded. The replica
    resumes as a follower and waits a full election timeout before
    campaigning. Also reverses {!stop}. *)

