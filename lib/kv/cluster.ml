module Sim = Crdb_sim.Sim
module Ivar = Crdb_sim.Ivar
module Proc = Crdb_sim.Proc
module Rng = Crdb_stdx.Rng
module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Transport = Crdb_net.Transport
module Ts = Crdb_hlc.Timestamp
module Clock = Crdb_hlc.Clock
module Mvcc = Crdb_storage.Mvcc
module Tscache = Crdb_storage.Tscache
module Raft = Crdb_raft.Raft
module Obs = Crdb_obs.Obs
module Trace = Crdb_obs.Trace
module Metrics = Crdb_obs.Metrics
module Events = Crdb_obs.Events
module Phase = Crdb_obs.Phase
module Op = Crdb_obs.Op
module Timeseries = Crdb_obs.Timeseries
module Smap = Map.Make (String)

type policy = Lag | Lead

(* Deliberately broken modes, each of which the checkers must catch. *)
type broken = No_refresh | No_recovery | Stale_reads

type config = {
  max_offset : int;
  push_delay : int;
  seed : int;
  autopilot : bool;
  broken : broken option;
}

let default =
  {
    max_offset = 250_000;
    push_delay = 100_000;
    seed = 0xC0C;
    autopilot = false;
    broken = None;
  }

(* How far behind real time a [Lag] range closes timestamps. *)
let close_lag = 3_000_000
let lease_duration = 4_500_000
let conflict_wait_timeout = 10_000_000
let txn_heartbeat_interval = 1_000_000

(* Period of the node-level closed-timestamp side channel. *)
let publish_interval = 100_000

type range_id = int

type write_ack = Replica_state.write_ack

type replica = {
  r_node : int;
  r_range : range;
  r_raft : (Replica_state.cmd, Replica_state.snap) Raft.t;
  r_sm : Replica_state.t;
  mutable r_latch : (string * write_ack Ivar.t) option;
      (* the last split trigger proposed here: until it applies here or is
         discarded, proposals touching keys at or above its key are refused *)
}

and range = {
  rg_id : range_id;
  mutable rg_span : string * string;
  mutable rg_zone : Zoneconfig.t;
  mutable rg_policy : policy;
  rg_replicas : (int, replica) Hashtbl.t;
  rg_at : replica option array;
      (* [rg_replicas] by node, for lookups; the table gives the iteration
         order. Only [make_replica] and [drop_replica] write either. *)
  mutable rg_closed_target : Ts.t;
  rg_tscache : Tscache.t;
  mutable rg_dropped : bool;
  mutable rg_split_index : int; (* log index of the last split trigger *)
  mutable rg_merge_index : int; (* log index of the last merge trigger *)
  rg_shared : Replica_state.shared;
      (* the store effects of entries some live replica has yet to apply *)
  mutable rg_walk : Allocator.placement option; (* target of [walk] *)
  rg_samples : key_samples;
      (* bounded ring of recently served request keys — the autopilot split
         queue's load-based split point *)
}

and key_samples = { ring : string array; mutable seen : int }

type t = {
  sim : Sim.t;
  cfg : config;
  topo : Topology.t;
  latency : Latency.t;
  net : Transport.t;
  live : Liveness.t;
  clocks : Clock.t array;
  rng : Rng.t;
  ranges_tbl : (range_id, range) Hashtbl.t;
  mutable routing : range_id Smap.t; (* start_key -> range id *)
      (* Both hold live ranges only: a drop or merge sets [rg_dropped] and
         removes the range from both at once, so [rg_dropped] matters only
         to stale [r_range] references held by in-flight evaluations. *)
  mutable next_range_id : int;
  load : int array; (* replicas per node *)
  obs : Obs.t;
  mutable waiting : int; (* parked conflict waiters, mirrors g_waiters *)
  mutable bg_pending : int; (* background tasks {!run} drains before exiting *)
  (* Cached per-node counters for per-operation paths. *)
  c_fr_hit : Metrics.counter array;
  c_fr_miss : Metrics.counter array;
  c_ct_publish : Metrics.counter array;
  c_conflict_timeout : Metrics.counter array;
  c_push : Metrics.counter array;
  c_cleanup : Metrics.counter array;
  g_ranges : Metrics.gauge;
  g_waiters : Metrics.gauge;
}

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let sim t = t.sim
let net t = t.net
let obs t = t.obs
let topology t = t.topo
let config t = t.cfg
let clock t node = t.clocks.(node)
let now_ts t node = Clock.now t.clocks.(node)
let set_clock_skew t node skew = Clock.set_skew t.clocks.(node) skew

let range_opt t rid = Hashtbl.find_opt t.ranges_tbl rid

let range t rid =
  match range_opt t rid with
  | Some rg -> rg
  | None -> invalid_arg (Printf.sprintf "Cluster: unknown range %d" rid)

let ranges t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.ranges_tbl []
  |> List.sort Int.compare

let span_of t rid = (range t rid).rg_span
let policy_of t rid = (range t rid).rg_policy
let zone_of t rid = (range t rid).rg_zone

(* Request-key sampling: every request served through [with_leaseholder]
   drops its key into a small per-range ring. The ring is cheap, bounded,
   and biased to recent traffic — the sample a load-based split point
   wants. Weighted by request volume (duplicates retained), so the median
   sampled key is the key that halves recent traffic, not the keyspace. *)
let sample_cap = 128

let sample_key rg key =
  let ks = rg.rg_samples in
  ks.ring.(ks.seen mod sample_cap) <- key;
  ks.seen <- ks.seen + 1

let sampled_keys t rid =
  let ks = (range t rid).rg_samples in
  List.init (min ks.seen sample_cap) (fun i -> ks.ring.(i))

let range_of_key t key =
  match Smap.find_last_opt (fun start -> String.compare start key <= 0) t.routing with
  | Some (_, rid) ->
      let rg = range t rid in
      let _, end_key = rg.rg_span in
      if String.compare key end_key < 0 then rid else raise Not_found
  | None -> raise Not_found

let replica_at rg node = rg.rg_at.(node)

(* The range's current placement: each replica's node and peer kind, as its
   own Raft group sees it. *)
let current_placement rg =
  Hashtbl.fold
    (fun node r acc ->
      match List.assoc_opt node (Raft.peers r.r_raft) with
      | Some kind -> (node, kind) :: acc
      | None -> acc)
    rg.rg_replicas []

let replica_nodes t rid = List.sort compare (current_placement (range t rid))

(* ------------------------------------------------------------------ *)
(* Closed timestamps                                                   *)

(* The voters among [peers] and the size of their quorum. *)
let voters_quorum peers =
  let voters = List.filter (fun (_, k) -> k = Raft.Voter) peers in
  (voters, (List.length voters / 2) + 1)

(* L_raft + L_replicate for the current placement (§6.2.1). *)
let lead_components t rg =
  let home =
    match rg.rg_zone.Zoneconfig.lease_preferences with
    | h :: _ -> h
    | [] -> List.hd (Topology.regions t.topo)
  in
  let placements = current_placement rg in
  let rtt_to node = Latency.rtt t.latency home (Topology.region_of t.topo node) in
  let voters, quorum = voters_quorum placements in
  let voter_rtts = List.sort Int.compare (List.map (fun (n, _) -> rtt_to n) voters) in
  (* The leader acks itself; it needs [quorum - 1] other acks, and the
     cheapest ones come from the nearest voters (skip the leader's own 0). *)
  let l_raft =
    match voter_rtts with
    | [] -> Latency.intra_region_rtt
    | _ :: rest ->
        if quorum - 1 = 0 then 0
        else
          Option.value (List.nth_opt rest (quorum - 2))
            ~default:Latency.intra_region_rtt
  in
  let l_replicate =
    List.fold_left (fun acc (n, _) -> max acc (rtt_to n / 2)) 0 placements
  in
  (l_raft, l_replicate)

(* §6.2.1: the leaseholder must close L_raft + L_replicate + max_offset into
   the future; on top of the paper's formula we budget for the side-channel
   publication period and for reader/leaseholder clock skew (half the
   tolerated maximum), without which skewed readers' uncertainty windows
   would not be fully closed and reads would redirect. *)
let lead_duration_of t ~l_raft ~l_replicate =
  l_raft + l_replicate + t.cfg.max_offset + (t.cfg.max_offset / 2)
  + publish_interval + 25_000

let closed_lead_duration t rid =
  let rg = range t rid in
  let l_raft, l_replicate = lead_components t rg in
  lead_duration_of t ~l_raft ~l_replicate

(* Compute and ratchet the range's closed-timestamp target, as seen by the
   leaseholder clock at [node]. *)
let next_closed_target t rg node =
  let phys = Clock.physical_now t.clocks.(node) in
  let target =
    match rg.rg_policy with
    | Lag -> Ts.of_wall (max 0 (phys - close_lag))
    | Lead ->
        let l_raft, l_replicate = lead_components t rg in
        Ts.of_wall (phys + lead_duration_of t ~l_raft ~l_replicate)
  in
  rg.rg_closed_target <- Ts.max rg.rg_closed_target target;
  rg.rg_closed_target

(* ------------------------------------------------------------------ *)
(* Conflict resolution: lock table waits plus the push/wound protocol  *)

let in_span rg key =
  let s, e = rg.rg_span in
  String.compare key s >= 0 && String.compare key e < 0

(* How the waiting transaction itself has fared, as known to its own
   gateway (the coordinator learns of a wound from heartbeat responses and
   cancels its in-flight requests). Checked at the head of every evaluation
   and on every wait tick: a wounded writer must not lay new intents after
   a pusher started cleaning up its old ones. *)
type fate = [ `Live | `Wounded of string | `Aborted ]

let live_fate : unit -> fate = fun () -> `Live

(* ------------------------------------------------------------------ *)
(* Replica construction and Raft wiring                                *)

let lease_valid t r =
  Raft.is_leader r.r_raft
  && Transport.is_alive t.net r.r_node
  && (Raft.quiesced r.r_raft
     || Sim.now t.sim - Raft.last_quorum_contact r.r_raft < lease_duration)

(* The first replica of [rid] (in table order) that satisfies [p]. *)
let find_replica t rid p =
  Seq.find p (Hashtbl.to_seq_values (range t rid).rg_replicas)

let lease_replica t rid = find_replica t rid (lease_valid t)
let leaseholder t rid = Option.map (fun r -> r.r_node) (lease_replica t rid)

(* The live replica leading [rid]'s group, lease or not. *)
let leader_replica t rid =
  find_replica t rid (fun r ->
      Raft.is_leader r.r_raft && Transport.is_alive t.net r.r_node)

(* The applied peers of [rid]'s live leader; [[]] when it has none. *)
let leader_peers t rid =
  match leader_replica t rid with Some r -> Raft.peers r.r_raft | None -> []

let leaseholder_region t rid =
  Option.map (Topology.region_of t.topo) (leaseholder t rid)

let preferred_leaseholder_node t rg =
  Allocator.preferred_leaseholder ~topology:t.topo
    ~live:(Transport.is_alive t.net) ~zone:rg.rg_zone (current_placement rg)

(* Hand [r]'s lease (Raft leadership) to [target], noting the transfer. *)
let hand_off_lease t r ~target =
  let node = r.r_node and range = r.r_range.rg_id in
  Events.log (Obs.events t.obs) ~node ~range
    ~attrs:[ ("target", string_of_int target) ]
    Events.Lease_transfer;
  Raft.transfer_leadership r.r_raft target

let note_range_count t = Metrics.set t.g_ranges (Hashtbl.length t.ranges_tbl)

(* Register a new range (with no replicas yet) and route its span to it. *)
let new_range t rid ~span ~zone ~policy ~closed ~low_water =
  let rg =
    {
      rg_id = rid;
      rg_span = span;
      rg_zone = zone;
      rg_policy = policy;
      rg_replicas = Hashtbl.create 8;
      rg_at = Array.make (Topology.num_nodes t.topo) None;
      rg_closed_target = closed;
      rg_tscache = Tscache.create ~low_water;
      rg_dropped = false;
      rg_split_index = 0;
      rg_merge_index = 0;
      rg_shared = Replica_state.shared ();
      rg_walk = None;
      rg_samples = { ring = Array.make sample_cap ""; seen = 0 };
    }
  in
  Hashtbl.replace t.ranges_tbl rid rg;
  t.routing <- Smap.add (fst span) rid t.routing;
  rg

let drop_range t rid =
  let rg = range t rid in
  rg.rg_dropped <- true;
  Hashtbl.iter
    (fun node r ->
      Raft.stop r.r_raft;
      t.load.(node) <- max 0 (t.load.(node) - 1))
    rg.rg_replicas;
  let start_key, _ = rg.rg_span in
  t.routing <- Smap.remove start_key t.routing;
  Hashtbl.remove t.ranges_tbl rid;
  note_range_count t

(* Whether [r] leads and has applied every entry committed before its term. *)
let is_leader_now r = Raft.serving r.r_raft

(* Whether [r] may answer for [key]: a split, merge or drop may have moved
   it while a request was in flight, and a replica that has not applied
   its range's last merge trigger lacks the absorbed span's data. *)
let owns r key =
  (not r.r_range.rg_dropped)
  && in_span r.r_range key
  && Raft.applied_index r.r_raft >= r.r_range.rg_merge_index

(* Stop and forget [node]'s replica of [rg], if it still has one. *)
let drop_replica t rg node =
  Option.iter
    (fun r ->
      Raft.stop r.r_raft;
      Hashtbl.remove rg.rg_replicas node;
      rg.rg_at.(node) <- None;
      t.load.(node) <- max 0 (t.load.(node) - 1))
    (replica_at rg node)

(* Forget the shared store effects every replica of [rg] that the log still
   reaches has applied: one on a dead node, or cut off from the leaseholder
   by a partition, holds none back. With no leaseholder, every live replica
   counts. *)
let forget_applied t rg =
  let lh = ref (-1) in
  for node = 0 to Array.length rg.rg_at - 1 do
    match rg.rg_at.(node) with
    | Some r when !lh < 0 && lease_valid t r -> lh := node
    | Some _ | None -> ()
  done;
  let through = ref max_int in
  for node = 0 to Array.length rg.rg_at - 1 do
    match rg.rg_at.(node) with
    | Some r
      when if !lh < 0 then Transport.is_alive t.net node
           else Transport.reachable t.net !lh node ->
        through := Int.min !through (Raft.applied_index r.r_raft)
    | Some _ | None -> ()
  done;
  if !through < max_int then Replica_state.forget rg.rg_shared ~through:!through

(* Create [node]'s replica of [rg], a member of its own Raft group over
   [peers]. The group draws its RNG stream from the cluster's, so callers
   must construct replicas in a fixed order. *)
let rec make_replica ?(sm = Replica_state.create ()) t rg node ~peers ?boundary
    () =
  let rec r =
    lazy
      {
        r_node = node;
        r_range = rg;
        r_raft =
          Raft.create ~sim:t.sim ~rng:(Rng.split t.rng) ~id:node ~peers
            ~callbacks:(raft_callbacks t rg node sm r) ~obs:t.obs
            ~range:rg.rg_id ?boundary ();
        r_sm = sm;
        r_latch = None;
      }
  in
  let r = Lazy.force r in
  Hashtbl.replace rg.rg_replicas node r;
  rg.rg_at.(node) <- Some r;
  t.load.(node) <- t.load.(node) + 1;
  r

(* [r] is the replica under construction, over state [sm]; [Raft.create]
   calls no callback, so each forces it only once it exists. *)
and raft_callbacks t rg node sm r =
  {
    Raft.send =
      (let deliver dst msg =
         match replica_at rg dst with
         | Some peer -> Raft.handle peer.r_raft ~from:node msg
         | None -> ()
       in
       fun dst msg -> Transport.send t.net ~src:node ~dst deliver msg);
    on_apply =
      (fun ~index cmd ->
        (* HLC receive rule: a replica observes every replicated write
           timestamp, so no future leaseholder's clock is ever behind an
           applied write — the observed-timestamp uncertainty clamp in
           [eval_read] is sound only under this invariant. Future-time
           (Lead) writes are synthetic timestamps and must not drag clocks
           forward (CRDB's synthetic-timestamp rule); the read clamp
           exempts Lead ranges for the same reason. *)
        (match (rg.rg_policy, Replica_state.write_ts cmd.op) with
        | Lag, Some ts -> Clock.update t.clocks.(node) ts
        | (Lag | Lead), _ -> ());
        (match cmd.op with
        | Op_merge { right; cell } when index > rg.rg_merge_index ->
            capture_merge t rg ~node ~index ~right cell
        | Op_merge _ | Op_put _ | Op_resolve _ | Op_txn _ | Op_prevent _
        | Op_split _ -> ());
        let ack =
          Replica_state.apply ~shared:rg.rg_shared sm ~applied:index cmd
        in
        if cmd.proposer = node then
          ignore (Ivar.try_fill cmd.done_ (ack :> write_ack) : bool);
        (match cmd.op with
        | Op_split { right; at } ->
            apply_split t (Lazy.force r) ~index ~right ~at cmd
        | Op_put _ | Op_resolve _ | Op_txn _ | Op_prevent _ | Op_merge _ -> ());
        forget_applied t rg);
    on_role =
      (fun role ->
        match role with
        | Raft.Leader ->
            Events.log (Obs.events t.obs) ~node ~range:rg.rg_id
              ~attrs:[ ("region", Topology.region_of t.topo node) ]
              Events.Lease_acquired;
            (* New leaseholder: no write may land below the lease start.
               The hybrid clock reading is ahead of every applied write
               (HLC receive rule at apply) and every read served here is
               recorded exactly in the shared timestamp cache, so this is
               the lease-start lower bound CRDB uses — not physical time
               plus max_offset, which would mint a timestamp above every
               clock in the cluster and defeat hybrid-clock commit-wait. *)
            Tscache.bump_low_water rg.rg_tscache (Clock.now t.clocks.(node));
            (* Honor lease preferences. *)
            let prefs = rg.rg_zone.Zoneconfig.lease_preferences in
            let preferred n = List.mem (Topology.region_of t.topo n) prefs in
            if prefs <> [] && not (preferred node) then begin
              match preferred_leaseholder_node t rg with
              | Some target when target <> node && preferred target ->
                  (* Defer: transferring synchronously inside the role
                     callback would re-enter Raft. *)
                  let r = Lazy.force r in
                  Sim.schedule t.sim ~after:1_000 (fun () ->
                      if Raft.is_leader r.r_raft then
                        hand_off_lease t r ~target)
              | Some _ | None -> ()
            end
        | Raft.Follower | Raft.Candidate -> ());
    on_config =
      (fun change ->
        if not (List.mem_assoc node change) then drop_replica t rg node
        else if Raft.is_leader (Lazy.force r).r_raft then
          (* Materialize replicas for newly added peers. *)
          List.iter
            (fun (peer, _) ->
              if replica_at rg peer = None then
                Raft.start ~preferred:node
                  (make_replica t rg peer ~peers:change ()).r_raft)
            change);
    take_snapshot = (fun () -> Replica_state.take_snapshot sm);
    install_snapshot = Replica_state.install_snapshot sm;
    is_node_live = (fun node -> Liveness.believed_live t.live node);
    node_epoch = (fun node -> Liveness.epoch t.live node);
    on_discard =
      (fun cmd ->
        (* The proposer's copy of an uncommitted entry was dropped (log
           truncation by a new leader, or a snapshot covering the tail).
           Fail the pipelined waiter fast — as indeterminate, since in rare
           interleavings another surviving copy can still commit. *)
        if cmd.proposer = node then
          ignore (Ivar.try_fill cmd.done_ `Dropped : bool));
  }

(* Apply the split trigger at [index] on [r], a replica of the left range:
   fork [r]'s own store, locks, waiters and transaction records at [at]
   into its node's replica of range [right], whose group starts with the
   left peers behind a snapshot boundary — unless the node already holds one
   (seeded by snapshot), the right range is gone, or its group no longer
   lists the node. The first replica to apply creates the right range, with
   the left's closed target and a timestamp-cache low water over the left's
   reads in [at, end), so no write after the split undercuts either. *)
and apply_split t r ~index ~right ~at { proposer; _ } =
  let rg = r.r_range in
  if index > rg.rg_split_index then begin
    let s, e = rg.rg_span in
    ignore
      (new_range t right ~span:(at, e) ~zone:rg.rg_zone ~policy:rg.rg_policy
         ~closed:rg.rg_closed_target
         ~low_water:
           (Tscache.max_read_span rg.rg_tscache ~for_txn:None ~start_key:at
              ~end_key:e)
        : range);
    rg.rg_span <- (s, at);
    rg.rg_split_index <- index;
    (* Pre-split samples straddle both halves; restart sampling so the
       next load-based split point reflects post-split traffic only. *)
    rg.rg_samples.seen <- 0;
    Events.log (Obs.events t.obs) ~node:r.r_node ~range:rg.rg_id
      ~attrs:[ ("at", at); ("right", string_of_int right) ]
      Events.Split;
    note_range_count t
  end;
  let sm =
    Replica_state.split_off rg.rg_shared r.r_sm ~applied:index ~at
  in
  match range_opt t right with
  | Some rrg
    when replica_at rrg r.r_node = None
         && Hashtbl.fold
              (fun _ p ok ->
                ok && List.mem_assoc r.r_node (Raft.peers p.r_raft))
              rrg.rg_replicas true
    ->
      let peers = Raft.peers r.r_raft in
      let rr = make_replica t rrg r.r_node ~sm ~peers ~boundary:(1, 0) () in
      (* Only nodes that applied the trigger can vote: the proposer's replica
         campaigns once a quorum of voters hold one; the others wait. *)
      let voters, quorum = voters_quorum peers in
      let held =
        List.length (List.filter (fun (n, _) -> replica_at rrg n <> None) voters)
      in
      if r.r_node <> proposer then Raft.start ~preferred:proposer rr.r_raft;
      if
        if r.r_node = proposer then held >= quorum
        else List.mem_assoc r.r_node voters && held = quorum
      then
        Option.iter
          (fun p -> Raft.start ~preferred:proposer p.r_raft)
          (replica_at rrg proposer)
  | Some _ | None -> ()

(* The first replica of [rg] to apply the merge trigger at [index]: if
   [right] still adjoins [rg] with the same zone and policy and has a
   serving leaseholder, capture that replica's state into [cell] for every
   replica to absorb, wake [right]'s waiters, ratchet the timestamp cache
   and closed target over [right]'s and subsume it; its in-flight
   proposals die unacked. Otherwise the trigger is a no-op. *)
and capture_merge t rg ~node ~index ~right cell =
  rg.rg_merge_index <- index;
  let s, e = rg.rg_span in
  match range_opt t right with
  | Some rrg
    when fst rrg.rg_span = e && rrg.rg_zone = rg.rg_zone
         && rrg.rg_policy = rg.rg_policy -> (
      match
        find_replica t right (fun r -> lease_valid t r && is_leader_now r)
      with
      | Some rl ->
          let _, re = rrg.rg_span in
          Ivar.fill cell (Replica_state.take_snapshot rl.r_sm);
          Hashtbl.iter
            (fun _ rrep -> Lock_table.wake_all rrep.r_sm.locks)
            rrg.rg_replicas;
          Tscache.bump_low_water rg.rg_tscache
            (Tscache.max_read_span rrg.rg_tscache ~for_txn:None ~start_key:e
               ~end_key:re);
          rg.rg_closed_target <-
            Ts.max rg.rg_closed_target rrg.rg_closed_target;
          drop_range t right;
          rg.rg_span <- (s, re);
          Events.log (Obs.events t.obs) ~node ~range:rg.rg_id
            ~attrs:[ ("subsumed", string_of_int right) ]
            Events.Merge
      | None -> ())
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Range administration                                                *)

let add_range t ~span ~zone ~policy =
  let start_key, end_key = span in
  if String.compare start_key end_key >= 0 then
    invalid_arg "Cluster.add_range: empty span";
  Smap.iter
    (fun other_start rid ->
      let _, other_end = (range t rid).rg_span in
      if
        String.compare other_start end_key < 0
        && String.compare start_key other_end < 0
      then invalid_arg "Cluster.add_range: overlapping span")
    t.routing;
  let rid = t.next_range_id in
  t.next_range_id <- rid + 1;
  let rg =
    new_range t rid ~span ~zone ~policy ~closed:Ts.zero ~low_water:Ts.zero
  in
  let placement =
    Allocator.place ~topology:t.topo ~latency:t.latency
      ~load:(fun n -> t.load.(n))
      ~zone
  in
  let preferred =
    Allocator.preferred_leaseholder ~topology:t.topo
      ~live:(Transport.is_alive t.net) ~zone placement
  in
  (* The boundary places the group's (possibly out-of-band seeded) initial
     state behind a snapshot index, so replicas added later are seeded with
     a store snapshot rather than replaying a log that does not contain it
     (bulk loads, split forks). *)
  let replicas =
    List.map
      (fun (node, _) ->
        make_replica t rg node ~peers:placement ~boundary:(1, 0) ())
      placement
  in
  List.iter (fun r -> Raft.start ?preferred r.r_raft) replicas;
  note_range_count t;
  rid

(* The one way a range's replicas change: walk [rg]'s group from its
   leader's applied peers to [target], one single-peer change per 0.5 s
   tick (the call's and up to 41 more): each addition or kind change in
   [target] order, once the replica last added has applied the commit
   index it joined at; then each removal. A leader that must change or go
   first hands its lease to a live target voter. A removed replica is
   reaped 2 s later (a dead one never applies its removal) unless the
   leader lists it. A new walk supersedes the one in flight; one that ends
   otherwise runs [finally]. [true] iff the walk is still in flight. *)
let walk t rg target ~finally =
  let mine = Some target and joined = ref None in
  rg.rg_walk <- mine;
  let reap node =
    if not (rg.rg_dropped || List.mem_assoc node (leader_peers t rg.rg_id))
    then drop_replica t rg node
  in
  (* An addition the leader lists (not lost, not in flight) has caught up. *)
  let caught_up peers =
    Option.fold !joined ~none:true ~some:(fun (node, goal) ->
        (not (List.mem_assoc node peers))
        || Option.fold (replica_at rg node) ~none:false ~some:(fun r ->
               Raft.applied_index r.r_raft >= goal))
  in
  (* [true] once the leader's applied peers are [target]. *)
  let step () =
    match leader_replica t rg.rg_id with
    | Some l when caught_up (Raft.peers l.r_raft) -> (
        let peers = Raft.peers l.r_raft in
        let changes =
          List.filter (fun (n, k) -> List.assoc_opt n peers <> Some k) target
        and removals =
          List.filter (fun (n, _) -> not (List.mem_assoc n target)) peers
        and other (n, _) = n <> l.r_node in
        match (List.find_opt other changes, List.find_opt other removals) with
        | Some (node, kind), _ ->
            if
              Raft.set_peer l.r_raft node kind <> None
              && not (List.mem_assoc node peers)
            then joined := Some (node, Raft.commit_index l.r_raft);
            false
        | None, Some (node, _) ->
            if Raft.remove_peer l.r_raft node <> None then
              Sim.schedule t.sim ~after:2_000_000 (fun () -> reap node);
            false
        | None, None when changes = [] && removals = [] -> true
        | None, None ->
            Option.iter
              (fun target -> hand_off_lease t l ~target)
              (Allocator.preferred_leaseholder ~topology:t.topo
                 ~live:(Transport.is_alive t.net) ~zone:rg.rg_zone
                 (List.filter other target));
            false)
    | Some _ | None -> false
  in
  let rec tick attempts =
    if rg.rg_walk == mine && not rg.rg_dropped then
      if step () || attempts = 0 then begin
        rg.rg_walk <- None;
        finally ()
      end
      else Sim.schedule t.sim ~after:500_000 (fun () -> tick (attempts - 1))
  in
  tick 41;
  rg.rg_walk == mine

(* Hand [rg]'s lease to its preferred leaseholder, if another replica. *)
let move_lease t rg =
  match (leader_replica t rg.rg_id, preferred_leaseholder_node t rg) with
  | Some r, Some target when r.r_node <> target -> hand_off_lease t r ~target
  | (Some _ | None), (Some _ | None) -> ()

let alter_range t rid ~zone ~policy =
  let rg = range t rid in
  rg.rg_zone <- zone;
  rg.rg_policy <- policy;
  if not (Allocator.satisfies ~topology:t.topo ~zone (current_placement rg))
  then begin
    (* Bias the allocator towards nodes that already host a replica so the
       reconfiguration moves as little data as possible. *)
    let load n =
      if Hashtbl.mem rg.rg_replicas n then t.load.(n) - 1_000_000 else t.load.(n)
    in
    let place = Allocator.place ~topology:t.topo ~latency:t.latency in
    (* Move the lease once the walk is over: an entry it appends while the
       lease's target campaigns would fail that election. *)
    ignore (walk t rg (place ~load ~zone) ~finally:(fun () -> move_lease t rg)
      : bool)
  end
  else move_lease t rg

(* The guard at the head of every leaseholder evaluation: the replica must
   still [owns] [key] and lead its range. *)
let guard r ~key eval =
  if not (owns r key) then `Range_mismatch
  else if not (is_leader_now r) then `Not_leader
  else eval ()

(* ------------------------------------------------------------------ *)
(* Proposals                                                           *)

(* Bound on waiting for a proposed command to apply locally. A proposal can
   be lost forever when its leader is deposed or crash-restarts before the
   entry commits (a restart wipes the volatile log tail's completion ivars);
   the waiter must not hang — it errors out and the transaction retries,
   with the outcome reported as ambiguous if retries are exhausted. *)
let propose_timeout = 8_000_000

(* Whether one consensus round on this replica's group must leave the
   leader's region: the leader acks itself, so a quorum is WAN-free exactly
   when enough voters are co-located with it. Computed from the live
   placement at proposal time — after a rebalance or failover the same range
   can flip between answers, which is the point: the measurement tracks the
   actual placement, not the static model. *)
let replication_needs_wan t r =
  let voters, quorum = voters_quorum (Raft.peers r.r_raft) in
  let leader_region = Topology.region_of t.topo r.r_node in
  let local =
    List.length
      (List.filter
         (fun (n, _) ->
           String.equal (Topology.region_of t.topo n) leader_region)
         voters)
  in
  local < quorum

(* The split key [r]'s in-flight split trigger holds, if any. *)
let latch r =
  match r.r_latch with
  | Some (at, done_) when not (Ivar.is_full done_) -> Some at
  | Some _ | None -> None

(* Whether [r] may log [op]: every key it touches must lie in [r]'s span and
   below its split latch. *)
let admits r (op : Replica_state.op) =
  let ok key =
    in_span r.r_range key
    && match latch r with Some at -> String.compare key at < 0 | None -> true
  in
  match op with
  | Op_put { key; _ } | Op_prevent { key; _ } | Op_txn { tkey = key; _ } ->
      ok key
  | Op_resolve { keys; _ } -> List.for_all ok keys
  | Op_split _ | Op_merge _ -> true

(* Propose [op] through [r]'s Raft log, carrying the range's closed
   timestamp target, ratcheted first even when the proposal is refused;
   [None] when [r] is not a serving leader or does not admit [op].
   With [op], the round is traced as a [raft.replicate] child span and
   counts as a WAN round trip of [op] when its quorum leaves the leader's
   region; whoever awaits it charges the wait ([await_applied]). *)
let propose t r ?op req =
  let closed = next_closed_target t r.r_range r.r_node in
  if not (is_leader_now r && admits r req) then None
  else
    let proposed_at = Sim.now t.sim in
    let cmd =
      { Replica_state.closed; proposer = r.r_node; proposed_at; op = req;
        done_ = Ivar.create () }
    in
    (match op with
    | None -> ignore (Raft.propose r.r_raft cmd : int option)
    | Some op ->
        let tr = Obs.trace t.obs in
        let rsp =
          Trace.span tr ~parent:(Op.span op) ~node:r.r_node
            ~range:r.r_range.rg_id "raft.replicate"
        in
        ignore (Raft.propose r.r_raft cmd : int option);
        if replication_needs_wan t r then Op.add_wan op;
        if rsp != Trace.nil then
          Ivar.on_fill cmd.done_ (fun _ -> Trace.finish tr rsp));
    Some cmd

(* Await [cmd]'s local apply, charging the wait to [op] as replication;
   [None] when the proposal was lost. *)
let await_applied t ?(op = Op.nil) (cmd : Replica_state.cmd) =
  let t0 = Sim.now t.sim in
  let res = Proc.await_timeout t.sim cmd.done_ ~timeout:propose_timeout in
  Op.add op Phase.Replication (Sim.now t.sim - t0);
  res

(* ------------------------------------------------------------------ *)
(* Range lifecycle: splits, merges, rebalancing                        *)

(* Split [rid] at key [at] by proposing a split trigger through its log
   (see [apply_split]); [propose]'s latch keeps right-hand keys out of the
   entries after it. Returns the reserved right-hand range id, or [None]
   when the range has no serving leaseholder or a split in flight. *)
let split_range t rid ~at =
  let rg = range t rid in
  let s, e = rg.rg_span in
  if not (String.compare at s > 0 && String.compare at e < 0) then
    invalid_arg "Cluster.split_range: split key outside span";
  match leader_replica t rid with
  | Some lr when is_leader_now lr && latch lr = None -> (
      let right = t.next_range_id in
      match propose t lr (Op_split { right; at }) with
      | None -> None
      | Some cmd ->
          t.next_range_id <- right + 1;
          lr.r_latch <- Some (at, cmd.done_);
          Some right)
  | Some _ | None -> None

(* Merge [rid] with its right-hand neighbor (the range starting exactly at
   its end key) by proposing a merge trigger through its log (see
   [capture_merge]). [true] iff proposed: the neighbor has the same zone
   and policy, and [rid] a serving leaseholder with no split in flight. *)
let merge_range t rid =
  match range_opt t rid with
  | None -> false
  | Some rg -> (
      match Option.map (range t) (Smap.find_opt (snd rg.rg_span) t.routing) with
      | Some right
        when rg.rg_zone = right.rg_zone && rg.rg_policy = right.rg_policy -> (
          match leader_replica t rid with
          | Some lr when is_leader_now lr && latch lr = None ->
              let cell = Ivar.create () in
              propose t lr (Op_merge { right = right.rg_id; cell }) <> None
          | Some _ | None -> false)
      | Some _ | None -> false)

let split_point t rid =
  match range_opt t rid with
  | None -> None
  | Some rg -> (
      match leader_replica t rid with
      | None -> None
      | Some lr ->
          let keys =
            Mvcc.fold_latest lr.r_sm.store ~init:[] ~f:(fun acc k _ -> k :: acc)
          in
          let keys = List.rev keys in
          let n = List.length keys in
          if n < 2 then None
          else
            let at = List.nth keys (n / 2) in
            let s, _ = rg.rg_span in
            if String.compare at s > 0 then Some at else None)

let live_bytes t rid =
  match leader_replica t rid with
  | None -> None
  | Some lr -> Some (Mvcc.live_bytes lr.r_sm.store)

let load_split_point t rid =
  match range_opt t rid with
  | None -> None
  | Some rg -> (
      let s, _ = rg.rg_span in
      let keys =
        sampled_keys t rid |> List.filter (in_span rg)
        |> List.sort String.compare
      in
      let n = List.length keys in
      if n < 2 then split_point t rid
      else
        let at = List.nth keys (n / 2) in
        if String.compare at s > 0 then Some at
        else
          (* The median equals the span start (one key dominates the
             sample): split just after it if any other key was seen. *)
          match List.find_opt (fun k -> String.compare k s > 0) keys with
          | Some at -> Some at
          | None -> split_point t rid)

let ranges_in_span t ~start_key ~end_key =
  Smap.fold
    (fun _ rid acc ->
      let s, e = (range t rid).rg_span in
      if String.compare s end_key < 0 && String.compare start_key e < 0 then
        rid :: acc
      else acc)
    t.routing []
  |> List.rev

(* One allocator-driven rebalance step: if the current placement can be
   improved, walk the group to it with the victim replaced — add the
   replacement, then remove the victim once the replacement has caught up.
   The leaseholder is never removed out from under itself — when it is the
   victim, the lease moves to another live voter first and a later pass
   moves the replica. No step starts while a walk is in flight. Returns
   [true] iff a step was initiated. *)
let rebalance_step t rid =
  match range_opt t rid with
  | Some ({ rg_walk = None; _ } as rg) -> (
      match leader_replica t rid with
      | None -> false
      | Some lr -> (
          let placement = Raft.peers lr.r_raft in
          (* Score candidates by the load a node carries *besides* this
             range: a member's own replica must not make every empty node
             look like an improvement, or the allocator ping-pongs replicas
             between idle nodes forever. *)
          let other_load n =
            if List.mem_assoc n placement then max 0 (t.load.(n) - 1)
            else t.load.(n)
          in
          match
            Allocator.rebalance_move ~topology:t.topo
              ~live:(Transport.is_alive t.net)
              ~load:other_load ~zone:rg.rg_zone placement
          with
          | None -> false
          | Some { Allocator.victim; replacement; kind } ->
              if victim = lr.r_node then begin
                match
                  List.find_opt
                    (fun (n, k) ->
                      k = Raft.Voter && n <> lr.r_node
                      && Transport.is_alive t.net n)
                    placement
                with
                | None -> false
                | Some (target, _) ->
                    hand_off_lease t lr ~target;
                    true
              end
              else
                let target =
                  (replacement, kind) :: List.remove_assoc victim placement
                in
                let started = walk t rg target ~finally:ignore in
                if started then
                  Events.log (Obs.events t.obs) ~node:lr.r_node ~range:rid
                    ~attrs:
                      [
                        ("victim", string_of_int victim);
                        ("replacement", string_of_int replacement);
                      ]
                    Events.Rebalance;
                started))
  | Some _ | None -> false

let rebalance_leases t = Hashtbl.iter (fun _ -> move_lease t) t.ranges_tbl

let transfer_lease t rid ~target =
  match leader_replica t rid with
  | Some r when r.r_node <> target && replica_at (range t rid) target <> None ->
      hand_off_lease t r ~target
  | Some _ | None -> ()

let restart_node t node =
  Transport.revive_node t.net node;
  Hashtbl.iter
    (fun _ rg ->
      match replica_at rg node with
      | Some r ->
          (* A restart loses everything held only in process memory: the
             lock table and parked waiters (connections are gone), and the
             side-channel closed-timestamp state, which is re-learned from
             the next publications. Applied MVCC data and the Raft log are
             disk-backed and survive. *)
          Replica_state.restart r.r_sm;
          Raft.restart r.r_raft
      | None -> ())
    t.ranges_tbl

let run_for t d = Sim.run ~until:(Sim.now t.sim + d) t.sim

let settle t =
  let attempts = ref 0 in
  let all_have_lease () =
    List.for_all (fun rid -> leaseholder t rid <> None) (ranges t)
  in
  run_for t 200_000;
  while (not (all_have_lease ())) && !attempts < 40 do
    incr attempts;
    run_for t 500_000
  done;
  (* Let initial closed timestamps propagate to all replicas. *)
  run_for t ((3 * publish_interval) + 200_000)

(* Post-ack work (e.g. making a parallel commit explicit and resolving its
   intents) runs in the background after the client already has its answer.
   {!run} drains these before returning so that tests and tools inspecting
   raw replica state between [run] calls observe a quiescent cluster. *)
let spawn_background t f =
  t.bg_pending <- t.bg_pending + 1;
  Proc.spawn t.sim (fun () ->
      Fun.protect ~finally:(fun () -> t.bg_pending <- t.bg_pending - 1) f)

let run t f =
  let horizon = Sim.now t.sim + 3_600_000_000 in
  let iv = Proc.async t.sim f in
  while
    (not (Ivar.is_full iv && t.bg_pending = 0))
    && Sim.now t.sim < horizon && Sim.step t.sim
  do
    ()
  done;
  match Ivar.peek iv with
  | Some v -> v
  | None -> failwith "Cluster.run: process did not complete (deadlock?)"

let bulk_load t ?ts kvs =
  (* Install safely in the past so no clock in the cluster can still read
     below the load timestamp (versions normally acquire their timestamp
     from the leaseholder clock; this backdoor must not produce "future"
     values). *)
  let ts =
    match ts with
    | Some ts -> ts
    | None -> Ts.of_wall (max 1 (Sim.now t.sim - (2 * t.cfg.max_offset)))
  in
  let batches = Hashtbl.create 16 in
  List.iter
    (fun (key, value) ->
      match range_of_key t key with
      | rid ->
          let batch = Option.value (Hashtbl.find_opt batches rid) ~default:[] in
          Hashtbl.replace batches rid ((key, Some value) :: batch)
      | exception Not_found ->
          invalid_arg (Printf.sprintf "Cluster.bulk_load: no range for %s" key))
    kvs;
  Hashtbl.iter
    (fun rid batch ->
      (* Replicas whose stores share one map take one load between them:
         the first loads the batch, the others share its result. *)
      let groups =
        Hashtbl.fold
          (fun _ r groups ->
            let store = r.r_sm.store in
            match
              List.find_opt (fun (first, _) -> Mvcc.shares_map first store) groups
            with
            | Some (_, others) ->
                others := store :: !others;
                groups
            | None -> (store, ref []) :: groups)
          (range t rid).rg_replicas []
      in
      let batch = List.rev batch in
      List.iter
        (fun (first, others) ->
          List.iter
            (fun (key, value) -> Mvcc.put_version first ~key ~ts ~value)
            batch;
          List.iter (fun store -> Mvcc.replace_with store first) !others)
        groups)
    batches

(* ------------------------------------------------------------------ *)
(* Closed-timestamp side channel (node-level transport)                *)

let deliver_side dst items =
  List.iter
    (fun (rg, lai, ts) ->
      match replica_at rg dst with
      | Some r ->
          Replica_state.add_side r.r_sm ~applied:(Raft.applied_index r.r_raft)
            ~lai ts
      | None -> ())
    items

let publish t node =
  let batches : (int, (range * int * Ts.t) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let add dst item =
    match Hashtbl.find_opt batches dst with
    | Some l -> l := item :: !l
    | None -> Hashtbl.replace batches dst (ref [ item ])
  in
  Hashtbl.iter
    (fun _ rg ->
      match replica_at rg node with
      | Some r when Raft.is_leader r.r_raft ->
          let target = next_closed_target t rg node in
          let lai = Raft.last_index r.r_raft in
          List.iter
            (fun (peer, _) -> if peer <> node then add peer (rg, lai, target))
            (Raft.peers r.r_raft)
      | Some _ | None -> ())
    t.ranges_tbl;
  if Hashtbl.length batches > 0 then Metrics.inc t.c_ct_publish.(node);
  Hashtbl.iter
    (fun dst items -> Transport.send t.net ~src:node ~dst deliver_side !items)
    batches

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(config = default) ~topology ~latency () =
  let sim = Sim.create () in
  let obs = Obs.create ~now:(fun () -> Sim.now sim) () in
  let rng = Rng.create ~seed:config.seed in
  let net =
    Transport.create ~rng:(Rng.split rng) ~obs ~sim ~topology ~latency ()
  in
  let n = Topology.num_nodes topology in
  let m = Obs.metrics obs in
  let clocks =
    Array.init n (fun _ ->
        (* Independent per-node skew. Real deployments keep actual skew well
           below the configured tolerance; a quarter of max_offset per node
           (half pairwise) models a healthy NTP/chrony setup. *)
        let bound = config.max_offset / 4 in
        let skew = if bound = 0 then 0 else Rng.int rng (2 * bound) - bound in
        Clock.create ~skew_micros:skew ~now_micros:(fun () -> Sim.now sim) ())
  in
  let t =
    {
      sim;
      cfg = config;
      topo = topology;
      latency;
      net;
      live = Liveness.create net;
      clocks;
      rng;
      ranges_tbl = Hashtbl.create 64;
      routing = Smap.empty;
      next_range_id = 1;
      load = Array.make n 0;
      obs;
      waiting = 0;
      bg_pending = 0;
      c_fr_hit = Array.init n (fun i -> Metrics.counter m ~node:i "kv.follower_read_hits");
      c_fr_miss = Array.init n (fun i -> Metrics.counter m ~node:i "kv.follower_read_misses");
      c_ct_publish = Array.init n (fun i -> Metrics.counter m ~node:i "kv.ct_publishes");
      c_conflict_timeout =
        Array.init n (fun i -> Metrics.counter m ~node:i "kv.conflict_timeouts");
      c_push = Array.init n (fun i -> Metrics.counter m ~node:i "kv.txn_pushes");
      c_cleanup = Array.init n (fun i -> Metrics.counter m ~node:i "kv.intent_cleanups");
      g_ranges = Metrics.gauge m "kv.ranges";
      g_waiters = Metrics.gauge m "kv.conflict_waiters";
    }
  in
  (* Every node publishes its leaseholders' closed timestamps, the first
     round staggered per node. *)
  for node = 0 to n - 1 do
    let rec tick () =
      if Transport.is_alive t.net node then publish t node;
      Sim.schedule t.sim ~after:publish_interval tick
    in
    Sim.schedule t.sim ~after:(1 + (node * 7919 mod publish_interval)) tick
  done;
  t

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

type 'a reply = [ `Ok of 'a | `Wounded of string | `Err of string ]
type 'a read_reply = [ 'a reply | `Uncertain of Ts.t | `Redirect ]

(* Feed a served request into its range's [kv.range.qps] and
   [kv.range.latency] timeseries, the autopilot's load signal. *)
let note_range_op t rid ~start =
  let ts = Obs.timeseries t.obs in
  Timeseries.observe ts ~range:rid "kv.range.qps" 1;
  Timeseries.record_sample ts ~range:rid "kv.range.latency"
    (Sim.now t.sim - start)

(* Reply-wait bound before a routed op re-resolves and re-sends. Must
   cover a full failover (election timeout 3-6s + lease acquisition) so a
   healthy-but-slow reply is not duplicated, but no longer: every extra
   second a lost reply waits is a second the client-visible op stays open,
   and the chaos history checkers pay for long-open ops combinatorially. *)
let rpc_timeout = 8_000_000
let op_deadline = 120_000_000

(* Route [op] for [key] to the current leaseholder of the key's range. The
   key → range binding is re-resolved on every attempt, never cached, so an
   operation survives splits, merges, and rebalances landing while it is
   queued, waiting on a conflict, or in flight: an eval that finds its
   replica no longer owns the key answers [`Range_mismatch] and the gateway
   immediately retries against the new owner. *)
let with_leaseholder t ~gateway ?(op = Op.nil) ~name ~key
    ~(on_fail : string -> 'a)
    (eval : replica -> Op.t -> [ `Done of 'a | `Not_leader | `Range_mismatch ])
    : 'a =
  let tr = Obs.trace t.obs in
  let op =
    let range =
      match range_of_key t key with
      | rid -> Some rid
      | exception Not_found -> None
    in
    Op.child tr op ~node:gateway ?range name
  in
  let sp = Op.span op in
  let op_start = Sim.now t.sim in
  (* Each wait joins the caller's operation as it ends, so concurrent
     requests of one operation count once. *)
  let lease_wait d = Op.scope op Phase.Lease_wait (fun _ -> Proc.sleep t.sim d) in
  let deadline = Sim.now t.sim + op_deadline in
  let rec go () =
    if Sim.now t.sim > deadline then begin
      Trace.annotate sp "error" "deadline exceeded";
      Trace.finish tr sp;
      on_fail "range unavailable: no leaseholder"
    end
    else
      match range_of_key t key with
      | exception Not_found ->
          Trace.annotate sp "error" "no range";
          Trace.finish tr sp;
          on_fail ("no range for key " ^ key)
      | rid -> (
          match lease_replica t rid with
          | None ->
              lease_wait 250_000;
              go ()
          | Some r -> (
              (* The server evaluates under a one-branch fork; the rest of
                 the gateway's wait — request/response travel and
                 queueing — is routing. *)
              let server = Op.fork op in
              let reply =
                Transport.rpc ~op:server t.net ~src:gateway ~dst:r.r_node
                  (fun out ->
                    Proc.spawn t.sim (fun () ->
                        ignore (Ivar.try_fill out (eval r server) : bool)))
              in
              let res = Proc.await_timeout t.sim reply ~timeout:rpc_timeout in
              Op.join_rpc op server;
              match res with
              | Some (`Done res) ->
                  Op.annotate op;
                  Trace.finish tr sp;
                  note_range_op t r.r_range.rg_id ~start:op_start;
                  sample_key r.r_range key;
                  res
              | Some `Range_mismatch ->
                  (* The range split, merged, or was dropped while the
                     request was in flight; re-resolve and retry now. *)
                  go ()
              | Some `Not_leader ->
                  lease_wait 100_000;
                  go ()
              | None -> go ()))
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Transaction-record transitions, pushes, commit-status recovery      *)

(* Propose one record transition through this replica's Raft log and await
   its local apply. First-decision-wins is enforced at apply time, so the
   caller must re-read the applied record to learn which decision actually
   won — its own proposal may have lost the race. *)
let propose_txn_update t r ?op ~txn ~key upd =
  match propose t r ?op (Op_txn { txn; tkey = key; upd }) with
  | None -> `Not_leader
  | Some cmd -> (
      match await_applied t ?op cmd with Some _ -> `Applied | None -> `Lost)

let eval_txn_update t r ~op ~txn ~key upd =
  guard r ~key @@ fun () ->
  match propose_txn_update t r ~op ~txn ~key upd with
  | `Applied -> `Done (Txnrec.status r.r_sm.txns ~txn)
  | `Lost -> `Done None
  | `Not_leader -> `Not_leader

(* One record transition as an ordinary routed RPC: resolve the anchor
   key's leaseholder, propose, await apply, return the applied status. *)
let txn_update t ?op ~gateway ~name ~txn ~key upd =
  with_leaseholder t ~gateway ?op ~name ~key
    ~on_fail:(fun _ -> None)
    (fun r op -> eval_txn_update t r ~op ~txn ~key upd)

let txn_status t ?op ~gateway ~txn ~key () =
  with_leaseholder t ~gateway ?op ~name:"kv.txn_status" ~key
    ~on_fail:(fun _ -> None)
    (fun r _op -> guard r ~key (fun () -> `Done (Txnrec.status r.r_sm.txns ~txn)))

let eval_query_intent t r ~op ~txn ~key ~ts =
  guard r ~key @@ fun () ->
  match propose t r ~op (Op_prevent { txn; key; ts }) with
  | None -> `Not_leader
  | Some cmd -> (
      match await_applied t ~op cmd with
      | None -> `Done `Unknown
      | Some _ ->
          if Mvcc.is_prevented r.r_sm.store ~key ~txn_id:txn then `Done `Missing
          else `Done `Found)

(* QueryIntent with prevention (parallel-commit recovery, CRDB §3); see the
   interface for its verdicts. *)
let query_intent t ~gateway ?op ~txn ~key ~ts () =
  with_leaseholder t ~gateway ?op ~name:"kv.query_intent" ~key
    ~on_fail:(fun _ -> `Unknown)
    (fun r op -> eval_query_intent t r ~op ~txn ~key ~ts)

(* Commit-status recovery against someone else's STAGING record (see the
   interface). Either finalization races the coordinator's own transition,
   so the applied record — not our proposal — is the verdict we report. *)
let recover_txn t ~gateway ?(op = Op.nil) ~txn ~anchor_key ~ts
    ~inflight () =
  Op.scope op Phase.Recovery @@ fun op ->
  let verdict =
    if t.cfg.broken = Some No_recovery then `Abort
    else
      let rec probe = function
        | [] -> `Commit
        | key :: rest -> (
            match query_intent t ~gateway ~op ~txn ~key ~ts () with
            | `Found -> probe rest
            | `Missing -> `Abort
            | `Unknown -> `Inconclusive)
      in
      probe inflight
  in
  let finalize upd =
    match
      txn_update t ~gateway ~op ~name:"kv.txn_recover" ~txn ~key:anchor_key
        upd
    with
    | Some (Txnrec.Committed cts) -> Some (Some cts)
    | Some (Txnrec.Aborted _) -> Some None
    | Some (Txnrec.Pending | Txnrec.Staging _) | None -> None
  in
  let out =
    match verdict with
    | `Inconclusive -> None
    | `Commit -> finalize (Txnrec.U_commit { ts })
    | `Abort ->
        finalize (Txnrec.U_recover_abort { reason = "commit recovery" })
  in
  (match out with
  | Some commit ->
      Events.log (Obs.events t.obs) ~node:gateway ~txn
        ~attrs:
          [ ("result", match commit with Some _ -> "committed" | None -> "aborted") ]
        Events.Txn_recovered
  | None -> ());
  out

type push_verdict =
  | Push_wait
  | Push_wound of string
  | Push_cleanup of Ts.t option
  | Push_recover of { ts : Ts.t; inflight : string list }

(* What a decided record tells its pushers; an undecided one, to wait. *)
let verdict_of = function
  | Txnrec.Committed ts -> Push_cleanup (Some ts)
  | Txnrec.Aborted { reason; wound = true } -> Push_wound reason
  | Txnrec.Aborted _ -> Push_cleanup None
  | Txnrec.Pending | Txnrec.Staging _ -> Push_wait

(* One push evaluation at the blocker's anchor-range leaseholder. Proposed
   transitions (wound, abandon, stub registration) go through the anchor
   log; the applied record decides. *)
let eval_push t r ~blocker ~anchor_key ~blocker_pri ~pusher =
  guard r ~key:anchor_key @@ fun () ->
  let now = Sim.now t.sim in
  let liveness = 3 * txn_heartbeat_interval in
  let propose_record upd =
    ignore
      (propose_txn_update t r ~txn:blocker ~key:anchor_key upd
        : [ `Applied | `Lost | `Not_leader ])
  in
  match Txnrec.find r.r_sm.txns ~txn:blocker with
  | None ->
      (* No record yet: the blocker left an intent (or lock) but its
         registering write hasn't applied here, or it never registers
         (raw writer). Create an unwoundable stub so abandonment can
         reclaim the key if no coordinator ever shows up. *)
      propose_record (Txnrec.U_register { pri = blocker_pri; hb = now });
      `Done Push_wait
  | Some rec_ -> (
      let decide upd =
        propose_record upd;
        `Done
          (Option.fold ~none:Push_wait ~some:verdict_of
             (Txnrec.status r.r_sm.txns ~txn:blocker))
      in
      match rec_.Txnrec.tr_status with
      | Txnrec.Staging { ts; inflight } ->
          (* A staging record is never wounded: the transaction holds no
             future lock acquisitions, so waiting for it is deadlock-free.
             Recovery only fires once the coordinator looks dead (or
             immediately in the deliberately broken mode). *)
          if t.cfg.broken = Some No_recovery || now - rec_.Txnrec.tr_hb > liveness
          then `Done (Push_recover { ts; inflight })
          else `Done Push_wait
      | Txnrec.Pending ->
          if now - rec_.Txnrec.tr_hb > liveness then
            decide
              (Txnrec.U_abandon
                 {
                   reason = "abandoned (stale heartbeat)";
                   if_hb_before = rec_.Txnrec.tr_hb;
                 })
          else
            let wound =
              match pusher with
              | Some (p_pri, p_id) ->
                  Txnrec.older (p_pri, p_id)
                    (rec_.Txnrec.tr_pri, rec_.Txnrec.tr_id)
              | None -> false
            in
            if wound then
              decide (Txnrec.U_wound { reason = "wounded by older txn" })
            else `Done Push_wait
      | (Txnrec.Committed _ | Txnrec.Aborted _) as status ->
          `Done (verdict_of status))

(* Pushes are latency-bound, not reliability-bound: a push that cannot
   reach the anchor leaseholder right now simply reports Wait and the next
   tick retries, so it uses a short timeout and a single routing attempt
   instead of [with_leaseholder]'s full retry loop. *)
let push_rpc_timeout = 3_000_000

let push_once t ~src ~blocker ~anchor_key ~blocker_pri ~pusher =
  match lease_replica t (range_of_key t anchor_key) with
  | exception Not_found -> Push_wait
  | None -> Push_wait
  | Some r -> (
      let reply =
        Transport.rpc t.net ~src ~dst:r.r_node (fun out ->
            Proc.spawn t.sim (fun () ->
                ignore
                  (Ivar.try_fill out
                     (eval_push t r ~blocker ~anchor_key ~blocker_pri ~pusher)
                    : bool)))
      in
      match Proc.await_timeout t.sim reply ~timeout:push_rpc_timeout with
      | Some (`Done v) -> v
      | Some (`Not_leader | `Range_mismatch) | None -> Push_wait)

(* Park on the conflicting key and periodically push the blocker's record
   at its anchor range — a genuine RPC now that records live with their
   anchor key rather than in a cluster-global table. The wait ends when the
   key's waiters are woken (intent resolved / lock released), when routing
   moves, or when a push verdict lets this waiter clean up the blocker. *)
let wait_on_conflict t r ~op ~key ~blocker ~waiter ~waiter_pri ~fate =
  let blocker, blocker_pri, blocker_anchor =
    match blocker with
    | `Lock l ->
        (Lock_table.holder l, Lock_table.lock_pri l, Lock_table.lock_anchor l)
    | `Intent i -> (i.Mvcc.txn_id, i.Mvcc.pri, i.Mvcc.anchor)
  in
  let iv = Lock_table.park r.r_sm.locks ~key in
  t.waiting <- t.waiting + 1;
  Metrics.set t.g_waiters t.waiting;
  (* A raw (transaction-less) writer leaves no anchor; its record — if a
     pusher ever creates the stub — lives at the conflicted key itself. *)
  let anchor_key = if String.equal blocker_anchor "" then key else blocker_anchor in
  let pusher =
    match (waiter, waiter_pri) with
    | Some w, Some p -> Some (p, w)
    | _ -> None
  in
  let deadline = ref (Sim.now t.sim + conflict_wait_timeout) in
  let progressed () =
    deadline := Sim.now t.sim + conflict_wait_timeout
  in
  let finish outcome =
    Lock_table.unpark r.r_sm.locks ~key iv;
    t.waiting <- t.waiting - 1;
    Metrics.set t.g_waiters t.waiting;
    (match outcome with
    | Lock_table.Timed_out -> Metrics.inc t.c_conflict_timeout.(r.r_node)
    | Lock_table.Acquired | Lock_table.Wounded _ | Lock_table.Pusher_aborted ->
        ());
    outcome
  in
  (* Fire-and-forget resolution of a finished (wounded / aborted /
     committed / abandoned) blocker's intent on [key]. Its apply both
     removes the intent and wakes the key's waiters, so the pusher simply
     goes back to waiting for that wakeup. Idempotent: resolving an
     already-resolved intent is a no-op. Not proposable once this replica
     lost leadership — the next wait tick notices and re-routes instead. *)
  let cleanup commit =
    Metrics.inc t.c_cleanup.(r.r_node);
    if is_leader_now r then
      ignore
        (propose t r (Op_resolve { txn = blocker; keys = [ key ]; commit })
          : Replica_state.cmd option)
  in
  let rec loop () =
    let now = Sim.now t.sim in
    if now >= !deadline then finish Lock_table.Timed_out
    else
      let slice = min t.cfg.push_delay (!deadline - now) in
      match Proc.await_timeout t.sim iv ~timeout:slice with
      | Some () -> finish Lock_table.Acquired
      | None ->
          if not (owns r key && is_leader_now r) then
            (* Routing moved while we were parked; force a re-evaluation,
               which redirects to the current leaseholder. *)
            finish Lock_table.Acquired
          else begin
            match (fate () : fate) with
            | `Wounded reason -> finish (Lock_table.Wounded reason)
            | `Aborted -> finish Lock_table.Pusher_aborted
            | `Live -> (
                Metrics.inc t.c_push.(r.r_node);
                match
                  push_once t ~src:r.r_node ~blocker ~anchor_key ~blocker_pri
                    ~pusher
                with
                | Push_wait -> loop ()
                | Push_wound _reason ->
                    progressed ();
                    Events.log (Obs.events t.obs) ~node:r.r_node
                      ~range:r.r_range.rg_id ~txn:blocker
                      ~attrs:
                        [
                          ("blocker", string_of_int blocker);
                          ("key", key);
                          ( "pusher",
                            match waiter with
                            | Some w -> string_of_int w
                            | None -> "-" );
                        ]
                      Events.Wound;
                    cleanup None;
                    loop ()
                | Push_cleanup commit ->
                    progressed ();
                    (match commit with
                    | None ->
                        Events.log (Obs.events t.obs) ~node:r.r_node
                          ~range:r.r_range.rg_id ~txn:blocker
                          ~attrs:[ ("key", key) ]
                          Events.Abandoned_cleanup
                    | Some _ -> ());
                    cleanup commit;
                    loop ()
                | Push_recover { ts; inflight } -> (
                    progressed ();
                    match
                      recover_txn t ~gateway:r.r_node ~op ~txn:blocker
                        ~anchor_key ~ts ~inflight ()
                    with
                    | Some commit ->
                        cleanup commit;
                        loop ()
                    | None -> loop ()))
          end
  in
  loop ()

(* Evaluate [live] unless the transaction was wounded or aborted meanwhile. *)
let when_live ~fate live =
  match (fate () : fate) with
  | `Wounded reason -> `Done (`Wounded reason)
  | `Aborted -> `Done (`Err "transaction aborted")
  | `Live -> live ()

(* Park on [blocker] (a lock or intent on [key]), charging the wait to the
   operation's lock_wait phase, and [retry] the evaluation once the key is
   free or routing moved. *)
let conflict_wait t r ~op ~key ~txn ~pri ~fate ~retry blocker =
  let outcome =
    Op.scope op Phase.Lock_wait (fun op ->
        wait_on_conflict t r ~op ~key ~blocker ~waiter:txn ~waiter_pri:pri
          ~fate)
  in
  match outcome with
  | Lock_table.Acquired -> retry ()
  | Lock_table.Wounded reason -> `Done (`Wounded reason)
  | Lock_table.Pusher_aborted -> `Done (`Err "transaction aborted")
  | Lock_table.Timed_out -> `Done (`Err "conflict timeout")

(* The lock or foreign intent a writer of [key] must wait on. *)
let write_blocker r ~key ~txn =
  match Lock_table.foreign_for r.r_sm.locks ~key ~txn with
  | Some l -> Some (`Lock l)
  | None -> (
      match Mvcc.intent_on r.r_sm.store ~key with
      | Some i when i.Mvcc.txn_id <> txn -> Some (`Intent i)
      | Some _ | None -> None)

(* Observed timestamps: values above the leaseholder's own clock cannot have
   committed before this request arrived, so they are outside the real-time
   ordering obligation and the uncertainty window shrinks to the
   leaseholder's now. Sound only because of the HLC receive rule: replicas
   ratchet their clock over every write timestamp they evaluate or apply,
   so an acked write is never above the serving clock (a write can carry a
   faster gateway clock's timestamp). Future-time (Lead) ranges are exempt:
   their committed writes are synthetic timestamps that legitimately sit
   above every clock (§6.2). *)
let observed_max_ts t r ~ts ~max_ts =
  match r.r_range.rg_policy with
  | Lag -> Ts.max ts (Ts.min max_ts (Clock.now t.clocks.(r.r_node)))
  | Lead -> max_ts

let rec eval_read t r ~inline_bump ~op ~txn ~pri ~fate ~key ~ts ~max_ts =
  guard r ~key @@ fun () ->
  when_live ~fate @@ fun () ->
  let max_ts = observed_max_ts t r ~ts ~max_ts in
  let wait =
    conflict_wait t r ~op ~key ~txn ~pri ~fate ~retry:(fun () ->
        eval_read t r ~inline_bump ~op ~txn ~pri ~fate ~key ~ts ~max_ts)
  in
  match Lock_table.foreign r.r_sm.locks ~key ~txn ~max_ts with
  | Some l -> wait (`Lock l)
  | None -> (
      match Mvcc.read r.r_sm.store ~key ~ts ~max_ts ~for_txn:txn with
      | Mvcc.Intent_blocked i -> wait (`Intent i)
      | Mvcc.Value { value; _ } ->
          Tscache.record_read r.r_range.rg_tscache ~txn ~key ~ts;
          `Done (`Ok value)
      | Mvcc.Uncertain { value_ts } ->
          (* Server-side retry: when the transaction has no prior reads to
             refresh, ratchet the timestamp in place instead of bouncing the
             uncertainty error back across the network. *)
          if inline_bump then
            eval_read t r ~inline_bump ~op ~txn ~pri ~fate ~key ~ts:value_ts
              ~max_ts
          else `Done (`Uncertain value_ts))

let read t ?(inline_bump = false) ?op ?pri ?(fate = live_fate) ~gateway ~txn
    ~key ~ts ~max_ts () =
  with_leaseholder t ~gateway ?op ~name:"kv.read" ~key
    ~on_fail:(fun msg -> `Err msg)
    (fun r op -> eval_read t r ~inline_bump ~op ~txn ~pri ~fate ~key ~ts ~max_ts)

(* The follower path (§5): serve [eval] at [at]'s own replica of [rg] —
   after [local_sleep], the cost of the local storage access — or else at
   the live replica nearest to [at], over a routed RPC traced under and
   charged to [op], bounded by [rpc_timeout]. *)
let follower_serve t rg ~at ?local_sleep ?(op = Op.nil) eval =
  match replica_at rg at with
  | Some r ->
      Option.iter
        (fun d -> Op.scope op Phase.Routing (fun _ -> Proc.sleep t.sim d))
        local_sleep;
      `Served (eval r)
  | None -> (
      let from_region = Topology.region_of t.topo at in
      let score node =
        if Transport.is_alive t.net node then
          Latency.rtt t.latency from_region (Topology.region_of t.topo node)
        else max_int
      in
      let nearest =
        Hashtbl.fold
          (fun node r acc ->
            match acc with
            | None -> if score node < max_int then Some (node, r) else None
            | Some (b, _) ->
                if score node < score b then Some (node, r) else acc)
          rg.rg_replicas None
      in
      match nearest with
      | None -> `No_replica
      | Some (node, r) -> (
          let server = Op.fork op in
          let reply =
            Transport.rpc ~op:server t.net ~src:at ~dst:node (fun out ->
                Ivar.fill out (eval r))
          in
          let res = Proc.await_timeout t.sim reply ~timeout:rpc_timeout in
          Op.join_rpc op server;
          match res with
          | Some res -> `Served res
          | None -> `Timed_out))

(* One follower-served fragment of range [rid] (§5), traced as [op]: [at]'s
   own replica or the nearest live one answers [serve] if it still owns
   [key] and has closed [max_ts], and redirects to the leaseholder
   otherwise. Counts the follower-read hit or miss at [at]. *)
let follower_fragment t ~op ~at ~rid ~name ~timeout ~key ~max_ts serve =
  let tr = Obs.trace t.obs in
  let op = Op.child tr op ~node:at ~range:rid name in
  let sp = Op.span op in
  let eval r =
    (* A split or merge may land between resolution and evaluation;
       redirect to the gateway path, which re-resolves the key. *)
    if not (owns r key && Ts.(Replica_state.closed r.r_sm >= max_ts)) then
      `Redirect
    else serve r
  in
  let res =
    match
      follower_serve t (range t rid) ~at ~local_sleep:50 ~op eval
    with
    | `Served res -> res
    | `No_replica -> `Err "no live replica"
    | `Timed_out -> `Err timeout
  in
  (match res with
  | `Ok _ | `Uncertain _ -> Metrics.inc t.c_fr_hit.(at)
  | `Redirect ->
      Trace.annotate sp "redirect" "true";
      Metrics.inc t.c_fr_miss.(at)
  | `Wounded _ | `Err _ -> ());
  Trace.finish tr sp;
  res

let read_follower t ?(op = Op.nil) ~at ~txn ~key ~ts ~max_ts () =
  match range_of_key t key with
  | exception Not_found -> `Err ("no range for key " ^ key)
  | rid ->
      let start = Sim.now t.sim in
      let res =
        follower_fragment t ~op ~at ~rid ~name:"kv.follower_read"
          ~timeout:"follower read timeout" ~key ~max_ts (fun r ->
            match Mvcc.read r.r_sm.store ~key ~ts ~max_ts ~for_txn:txn with
            | Mvcc.Value { value; _ } -> `Ok value
            | Mvcc.Uncertain { value_ts } -> `Uncertain value_ts
            | Mvcc.Intent_blocked _ -> `Redirect)
      in
      (match res with
      | `Ok _ | `Uncertain _ -> note_range_op t rid ~start
      | `Redirect | `Wounded _ | `Err _ -> ());
      res

let clamp_span rg ~start_key ~end_key =
  let s, e = rg.rg_span in
  let lo = if String.compare start_key s > 0 then start_key else s in
  let hi = if String.compare end_key e < 0 then end_key else e in
  (lo, hi)

(* One fragment's MVCC rows, classified: the first intent blocking the scan,
   else the highest uncertain value, else the visible rows in key order. *)
let classify_rows rows =
  match
    List.find_map
      (fun (key, o) ->
        match o with Mvcc.Intent_blocked i -> Some (key, i) | _ -> None)
      rows
  with
  | Some blocked -> `Blocked blocked
  | None -> (
      let uncertain =
        List.fold_left
          (fun acc (_, o) ->
            match o with
            | Mvcc.Uncertain { value_ts } -> (
                match acc with
                | None -> Some value_ts
                | Some best -> Some (Ts.max best value_ts))
            | Mvcc.Value _ | Mvcc.Intent_blocked _ -> acc)
          None rows
      in
      match uncertain with
      | Some value_ts -> `Uncertain value_ts
      | None ->
          `Rows
            (List.filter_map
               (fun (key, o) ->
                 match o with
                 | Mvcc.Value { value = Some v; _ } -> Some (key, v)
                 | Mvcc.Value { value = None; _ }
                 | Mvcc.Uncertain _ | Mvcc.Intent_blocked _ ->
                     None)
               rows))

let rec eval_scan t r ~op ~txn ~pri ~fate ~start_key ~end_key ~ts ~max_ts
    ~limit =
  guard r ~key:start_key @@ fun () ->
  when_live ~fate @@ fun () ->
  (* A scan covers at most one range: clamp to the replica's current span
     (re-clamped on every retry, since a split may have shrunk it). *)
  let start_key, end_key = clamp_span r.r_range ~start_key ~end_key in
  let max_ts = observed_max_ts t r ~ts ~max_ts in
  let rows =
    Mvcc.scan r.r_sm.store ~start_key ~end_key ~ts ~max_ts ~for_txn:txn ~limit
  in
  let wait ~key =
    conflict_wait t r ~op ~key ~txn ~pri ~fate ~retry:(fun () ->
        eval_scan t r ~op ~txn ~pri ~fate ~start_key ~end_key ~ts ~max_ts
          ~limit)
  in
  (* A scan must also respect locks on keys it covers. *)
  match Lock_table.foreign_in_span r.r_sm.locks ~start_key ~end_key ~txn ~max_ts with
  | Some (key, l) -> wait ~key (`Lock l)
  | None -> (
      match classify_rows rows with
      | `Blocked (key, i) -> wait ~key (`Intent i)
      | `Uncertain value_ts -> `Done (`Uncertain value_ts)
      | `Rows out ->
          Tscache.record_read_span r.r_range.rg_tscache ~txn ~start_key
            ~end_key ~ts;
          `Done (`Ok (out, snd r.r_range.rg_span)))

(* The fragment-stitch loop behind every span request. The span may cover
   several ranges (splits land at any time), so it is served left to right,
   one covering range at a time: [step acc ~cursor rid] serves the part of
   the span from [cursor] that range [rid] owns and answers [Ok (acc, next)]
   to go on at [next], or [Error res] to stop with [res]. [finish ~gap acc]
   ends the walk, [gap] naming the first key of an uncovered remainder. *)
let stitch t ~start_key ~end_key ~init ~step ~finish =
  let rec go acc cursor =
    if String.compare cursor end_key >= 0 then finish ~gap:None acc
    else
      let covering =
        match range_of_key t cursor with
        | rid -> Some (cursor, rid)
        | exception Not_found -> (
            (* A routing gap: go on at the next range's start, if it is
               still inside the span. *)
            match
              Smap.find_first_opt
                (fun s -> String.compare s cursor > 0)
                t.routing
            with
            | Some (s, rid) when String.compare s end_key < 0 -> Some (s, rid)
            | Some _ | None -> None)
      in
      match covering with
      | None -> finish ~gap:(Some cursor) acc
      | Some (cursor, rid) -> (
          match step acc ~cursor rid with
          | Ok (acc, next) -> go acc next
          | Error res -> res)
  in
  go init start_key

(* Stitch a scan: rows in key order, [limit] counting down across fragments.
   [fragment ~cursor ~limit rid] scans one range's part of the span and
   answers its rows with the end of the range that served them: where the
   next fragment starts under the routing in force at evaluation time. *)
let stitch_rows t ~start_key ~end_key ~limit fragment =
  let full = function Some n -> n <= 0 | None -> false in
  stitch t ~start_key ~end_key ~init:([], limit)
    ~finish:(fun ~gap (acc, remaining) ->
      match gap with
      | Some cursor when acc = [] && not (full remaining) ->
          `Err ("no range for key " ^ cursor)
      | Some _ | None -> `Ok (List.rev acc))
    ~step:(fun (acc, remaining) ~cursor rid ->
      if full remaining then Error (`Ok (List.rev acc))
      else
        match fragment ~cursor ~limit:remaining rid with
        | `Ok (rows, next) ->
            let remaining =
              Option.map (fun n -> n - List.length rows) remaining
            in
            Ok ((List.rev_append rows acc, remaining), next)
        | (`Uncertain _ | `Redirect | `Wounded _ | `Err _) as res ->
            (* Propagate; the transaction restarts the whole scan. *)
            Error res)

let scan t ?op ?pri ?(fate = live_fate) ~gateway ~txn ~start_key ~end_key ~ts
    ~max_ts ~limit () =
  stitch_rows t ~start_key ~end_key ~limit (fun ~cursor ~limit _ ->
      with_leaseholder t ~gateway ?op ~name:"kv.scan" ~key:cursor
        ~on_fail:(fun msg -> `Err msg)
        (fun r op ->
          eval_scan t r ~op ~txn ~pri ~fate ~start_key:cursor ~end_key ~ts
            ~max_ts ~limit))

let scan_follower t ?(op = Op.nil) ~at ~txn ~start_key ~end_key ~ts ~max_ts
    ~limit () =
  (* Each fragment is served by the local (or nearest) replica; one that
     cannot be served there redirects the whole request. *)
  stitch_rows t ~start_key ~end_key ~limit (fun ~cursor ~limit rid ->
      follower_fragment t ~op ~at ~rid ~name:"kv.follower_scan"
        ~timeout:"follower scan timeout" ~key:cursor ~max_ts (fun r ->
          let start_key, end_key =
            clamp_span r.r_range ~start_key:cursor ~end_key
          in
          match
            classify_rows
              (Mvcc.scan r.r_sm.store ~start_key ~end_key ~ts ~max_ts
                 ~for_txn:txn ~limit)
          with
          | `Blocked _ -> `Redirect
          | `Uncertain value_ts -> `Uncertain value_ts
          | `Rows out -> `Ok (out, snd r.r_range.rg_span)))

let rec eval_write t r ~applied ~op ~gateway ~txn ~pri ~anchor ~fate ~key
    ~value ~ts =
  guard r ~key @@ fun () ->
  (* A wounded or aborted writer must not lay new intents: a pusher may
     already have cleaned up its old ones, and nothing would remove a
     late-laid intent until abandonment kicked in. *)
  when_live ~fate @@ fun () ->
  match write_blocker r ~key ~txn with
  | Some blocker ->
      conflict_wait t r ~op ~key ~txn:(Some txn) ~pri ~fate
        ~retry:(fun () ->
          eval_write t r ~applied ~op ~gateway ~txn ~pri ~anchor ~fate ~key
            ~value ~ts)
        blocker
  | None -> (
      let rg = r.r_range in
      let target = next_closed_target t rg r.r_node in
      let ts =
        Ts.max ts
          (Ts.next (Tscache.max_read rg.rg_tscache ~for_txn:(Some txn) ~key))
      in
      let ts =
        let latest = Mvcc.latest_ts r.r_sm.store ~key in
        if Ts.(latest >= ts) then Ts.next latest else ts
      in
      (* Above the closed target [propose] stamps: no time passes between. *)
      let ts = Ts.max ts (Ts.next target) in
      (* HLC receive rule at request receipt: the leaseholder's clock must
         not lag a timestamp it is about to write, or the observed-timestamp
         clamp would hide the value from reads arriving after the writer's
         commit ack. *)
      (match rg.rg_policy with
      | Lag -> Clock.update t.clocks.(r.r_node) ts
      | Lead -> ());
      let wpri = Option.value pri ~default:Ts.zero in
      let created =
        Lock_table.acquire r.r_sm.locks ~pri:wpri ~anchor ~key ~txn ~ts ()
      in
      (* A pipelined write replicates on a branch of its own, which the
         confirmation carries back for the transaction to join where it
         awaits it. *)
      let rop = if applied = None then op else Op.fork op in
      match
        propose t r ~op:rop
          (Op_put { txn; ts; key; value; pri = wpri; anchor })
      with
      | None ->
          if created then Lock_table.release r.r_sm.locks ~key ~txn;
          `Not_leader
      | Some cmd -> (
          Timeseries.observe (Obs.timeseries t.obs) ~range:rg.rg_id
            "kv.range.write_bytes"
            (String.length key
            + match value with Some v -> String.length v | None -> 0);
          match applied with
          | Some ack ->
              (* Pipelined write (CRDB write pipelining): reply as soon as
                 the intent is in the log; confirm its application — and its
                 fate — to the gateway asynchronously. The transaction
                 awaits all confirmations at commit. *)
              Ivar.on_fill cmd.done_ (fun result ->
                  Transport.send t.net ~src:r.r_node ~dst:gateway
                    (fun _ result ->
                      Op.stop rop;
                      ignore (Ivar.try_fill ack (result, rop) : bool))
                    result);
              `Done (`Ok ts)
          | None -> (
              match await_applied t ~op cmd with
              | Some `Applied -> `Done (`Ok ts)
              | Some `Prevented -> `Done (`Err "write prevented by recovery")
              | Some `Dropped | None ->
                  `Done (`Err "proposal lost (leader gone)"))))

(* One-phase commit: evaluate, then propose the intent and its commit
   resolution back to back in the same Raft log. The lock exists only
   between the two proposals (no simulated time passes), so concurrent
   readers never observe it — CRDB's 1PC fast path for transactions whose
   writes all land on one range. *)
let eval_write_and_commit t r ~gateway ~op ~txn ~key ~value ~ts =
  match
    eval_write t r ~applied:(Some (Ivar.create ())) ~op ~gateway ~txn
      ~pri:None ~anchor:"" ~fate:live_fate ~key ~value ~ts
  with
  | (`Not_leader | `Range_mismatch) as other -> other
  | `Done (`Wounded reason) -> `Done (Error reason)
  | `Done (`Err e) -> `Done (Error e)
  | `Done (`Ok final_ts) -> (
      match
        propose t r ~op
          (Op_resolve { txn; keys = [ key ]; commit = Some final_ts })
      with
      | None ->
          Lock_table.release r.r_sm.locks ~key ~txn;
          `Not_leader
      | Some cmd -> (
          match await_applied t ~op cmd with
          | Some _ -> `Done (Ok final_ts)
          | None -> `Done (Error "proposal lost (leader gone)")))

let write_and_commit t ?op ~gateway ~txn ~key ~value ~ts () =
  with_leaseholder t ~gateway ?op ~name:"kv.write_1pc" ~key
    ~on_fail:(fun msg -> Error msg)
    (fun r op -> eval_write_and_commit t r ~gateway ~op ~txn ~key ~value ~ts)

let write t ?applied ?op ?pri ?(anchor = "") ?(fate = live_fate) ~gateway ~txn
    ~key ~value ~ts () =
  with_leaseholder t ~gateway ?op ~name:"kv.write" ~key
    ~on_fail:(fun msg -> `Err msg)
    (fun r op ->
      eval_write t r ~applied ~op ~gateway ~txn ~pri ~anchor ~fate ~key ~value
        ~ts)

(* [keys] grouped by the range that owns each, in order of first appearance,
   each group's keys in reverse; keys no range owns are left out. *)
let group_by_range t keys =
  let groups = Hashtbl.create 4 in
  let order =
    List.fold_left
      (fun order key ->
        match range_of_key t key with
        | exception Not_found -> order
        | rid -> (
            match Hashtbl.find_opt groups rid with
            | Some l ->
                l := key :: !l;
                order
            | None ->
                Hashtbl.replace groups rid (ref [ key ]);
                rid :: order))
      [] keys
  in
  List.rev_map (fun rid -> (rid, !(Hashtbl.find groups rid))) order

(* Resolve the subset of [keys] this replica's range owns; the rest — keys
   stranded on the wrong leaseholder by a split racing the resolution — are
   handed back for the gateway to re-group. *)
let eval_resolve t r ~op ~txn ~keys ~commit =
  if r.r_range.rg_dropped then `Range_mismatch
  else
    let mine, leftover = List.partition (in_span r.r_range) keys in
    if mine = [] then `Range_mismatch
    else if not (is_leader_now r) then `Not_leader
    else
      match
        propose t r ~op (Op_resolve { txn; keys = mine; commit })
      with
      | None -> `Not_leader
      | Some cmd ->
          (* Resolution has no error channel: on a lost proposal, give up
             and let readers clean up the orphaned intents lazily. *)
          ignore (await_applied t ~op cmd : write_ack option);
          `Done leftover

let resolve t ?(op = Op.nil) ~gateway ~txn ~commit ~keys () =
  match keys with
  | [] -> ()
  | anchor_key :: _ ->
      (* Resolve one group of keys, chasing keys that end up owned by a
         different range than the one the group was formed against (splits
         and merges race resolution). Each round re-resolves the remaining
         keys' leaseholder; a few rounds bound pathological churn. *)
      let resolve_group ~op ks =
        let rec go ks rounds =
          match ks with
          | [] -> ()
          | key :: _ ->
              let leftover =
                with_leaseholder t ~gateway ~op ~name:"kv.resolve" ~key
                  ~on_fail:(fun _ -> [])
                  (fun r op -> eval_resolve t r ~op ~txn ~keys:ks ~commit)
              in
              if rounds > 0 then go leftover (rounds - 1)
        in
        go ks 4
      in
      let groups = group_by_range t keys in
      let anchor_rid =
        match range_of_key t anchor_key with
        | rid -> rid
        | exception Not_found -> (
            match groups with [] -> -1 | (rid, _) :: _ -> rid)
      in
      (* Each group resolves on a branch; only the awaited anchor group's
         is joined. *)
      let results =
        List.map
          (fun (rid, ks) ->
            let branch = Op.fork op in
            (rid, branch, Proc.async t.sim (fun () -> resolve_group ~op:branch ks)))
          groups
      in
      List.iter
        (fun (rid, branch, iv) ->
          if rid = anchor_rid then begin
            Proc.await iv;
            Op.join op branch
          end)
        results

let eval_refresh r ~txn ~key ~from_ts ~to_ts =
  guard r ~key @@ fun () ->
  let lock_conflict =
    match Lock_table.foreign r.r_sm.locks ~key ~txn:(Some txn) ~max_ts:to_ts with
    | Some _ -> true
    | None -> false
  in
  let intent_conflict =
    match Mvcc.intent_on r.r_sm.store ~key with
    | Some i when i.Mvcc.txn_id <> txn && Ts.(i.Mvcc.ts <= to_ts) -> true
    | Some _ | None -> false
  in
  if lock_conflict || intent_conflict then `Done false
  else if Mvcc.has_committed_after r.r_sm.store ~key ~after:from_ts ~upto:to_ts
  then `Done false
  else begin
    Tscache.record_read r.r_range.rg_tscache ~txn:(Some txn) ~key ~ts:to_ts;
    `Done true
  end

let refresh t ?op ~gateway ~txn ~key ~from_ts ~to_ts () =
  with_leaseholder t ~gateway ?op ~name:"kv.refresh" ~key
    ~on_fail:(fun _ -> false)
    (fun r _op -> eval_refresh r ~txn ~key ~from_ts ~to_ts)

let eval_refresh_span r ~txn ~start_key ~end_key ~from_ts ~to_ts =
  guard r ~key:start_key @@ fun () ->
  let start_key, end_key = clamp_span r.r_range ~start_key ~end_key in
  let lock_conflict =
    Lock_table.foreign_in_span r.r_sm.locks ~start_key ~end_key ~txn:(Some txn)
      ~max_ts:to_ts
    <> None
  in
  let version_conflict =
    Mvcc.span_has_writes_in_window r.r_sm.store ~start_key ~end_key
      ~after:from_ts ~upto:to_ts ~ignore_txn:(Some txn)
  in
  if lock_conflict || version_conflict then `Done false
  else begin
    Tscache.record_read_span r.r_range.rg_tscache ~txn:(Some txn) ~start_key
      ~end_key ~ts:to_ts;
    `Done true
  end

let refresh_span t ?op ~gateway ~txn ~start_key ~end_key ~from_ts ~to_ts () =
  (* Stitched like {!scan}: every range covering part of the request span
     must confirm the absence of conflicting writes in the window, however
     the span is carved up at validation time. *)
  stitch t ~start_key ~end_key ~init:()
    ~finish:(fun ~gap:_ () -> true)
    ~step:(fun () ~cursor _ ->
      let ok, next =
        with_leaseholder t ~gateway ?op ~name:"kv.refresh_span" ~key:cursor
          ~on_fail:(fun _ -> (false, end_key))
          (fun r _op ->
            match
              eval_refresh_span r ~txn ~start_key:cursor ~end_key ~from_ts
                ~to_ts
            with
            | `Done ok -> `Done (ok, snd r.r_range.rg_span)
            | (`Not_leader | `Range_mismatch) as other -> other)
      in
      if ok then Ok ((), next) else Error false)

let local_closed t ~at rid =
  let rg = range t rid in
  match replica_at rg at with
  | Some r -> Replica_state.closed r.r_sm
  | None -> Ts.zero

let negotiate t ~at ~keys =
  (* Query the nearest replica of each range the keys touch. *)
  List.fold_left
    (fun acc (rid, ks) ->
      let eval r =
        (* A valid leaseholder can serve any timestamp up to the present;
           followers are bounded by their closed timestamp. *)
        let base =
          if lease_valid t r then
            Ts.of_wall (Clock.physical_now t.clocks.(r.r_node))
          else Replica_state.closed r.r_sm
        in
        List.fold_left
          (fun safe key ->
            match Mvcc.intent_on r.r_sm.store ~key with
            | Some i when Ts.(i.Mvcc.ts <= safe) -> Ts.prev i.Mvcc.ts
            | Some _ | None -> safe)
          base ks
      in
      match follower_serve t (range t rid) ~at eval with
      | `Served ts -> Ts.min acc ts
      | `No_replica | `Timed_out -> Ts.zero)
    Ts.max_value (group_by_range t keys)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let shared_effects t rid = Replica_state.held (range t rid).rg_shared

let applied_index t rid node =
  Option.map
    (fun r -> Raft.applied_index r.r_raft)
    (replica_at (range t rid) node)

let state_of t rid node =
  Option.map (fun r -> r.r_sm) (replica_at (range t rid) node)
