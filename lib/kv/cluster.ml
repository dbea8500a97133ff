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
module Timeseries = Crdb_obs.Timeseries
module Smap = Map.Make (String)

type policy = Lag of int | Lead

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

let close_lag = 3_000_000
let conflict_wait_timeout = 10_000_000
let txn_heartbeat_interval = 1_000_000

(* Period of the node-level closed-timestamp side channel. *)
let publish_interval = 100_000

type range_id = int

type op =
  | Op_put of {
      txn : int;
      ts : Ts.t;
      key : string;
      value : string option;
      pri : Ts.t;
          (* the writer's wound-wait priority, stamped onto the intent *)
      anchor : string;
          (* the writer's anchor key; when [key = anchor] the apply also
             registers the transaction record — registration piggybacks on
             the first write instead of costing its own consensus round *)
    }
  | Op_resolve of { txn : int; keys : string list; commit : Ts.t option }
  | Op_txn of { txn : int; tkey : string; upd : Txnrec.update }
      (* one transaction-record transition, anchored at [tkey] *)
  | Op_prevent of { txn : int; key : string; ts : Ts.t }
      (* QueryIntent-with-prevention (parallel-commit recovery): totally
         ordered against the Op_put it races by going through the same log *)

type write_ack = [ `Applied | `Prevented | `Dropped ]

type cmd = {
  closed : Ts.t;
  proposer : int;
  op : op;
  done_ : unit Ivar.t;
  mutable fate : write_ack;
      (* outcome observed at apply (or discard) time, read by the proposer
         once [done_] fills; [`Applied] unless prevention or a log discard
         intervened *)
}

type snap = { snap_store : Mvcc.t; snap_closed : Ts.t; snap_txns : Txnrec.t }

type replica = {
  r_node : int;
  r_range : range;
  r_store : Mvcc.t;
  mutable r_raft : (cmd, snap) Raft.t option;
  mutable r_applied_closed : Ts.t;
  mutable r_side_closed : Ts.t;
  mutable r_pending_side : (int * Ts.t) list;
  r_lt : Lock_table.t;
  r_txns : Txnrec.t;
      (* this range's transaction records — replicated state, mutated only
         by [Op_txn]/[Op_put] applies, snapshotted and split/merged with
         the store *)
}

and range = {
  rg_id : range_id;
  mutable rg_span : string * string;
  mutable rg_zone : Zoneconfig.t;
  mutable rg_policy : policy;
  rg_replicas : (int, replica) Hashtbl.t;
  mutable rg_closed_target : Ts.t;
  rg_tscache : Tscache.t;
  mutable rg_dropped : bool;
}

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
  mutable next_range_id : int;
  load : int array; (* replicas per node *)
  obs : Obs.t;
  mutable waiting : int; (* parked conflict waiters, mirrors g_waiters *)
  mutable bg_pending : int; (* background tasks {!run} drains before exiting *)
  samples : (range_id, key_samples) Hashtbl.t;
      (* bounded ring of recently served request keys per range — the
         autopilot split queue's load-based split point *)
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

and key_samples = { ring : string array; mutable seen : int }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let lease_duration = 4_500_000

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
    samples = Hashtbl.create 64;
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

let sim t = t.sim
let net t = t.net
let obs t = t.obs
let topology t = t.topo
let config t = t.cfg
let clock t node = t.clocks.(node)
let now_ts t node = Clock.now t.clocks.(node)
let set_clock_skew t node skew = Clock.set_skew t.clocks.(node) skew

let range t rid =
  match Hashtbl.find_opt t.ranges_tbl rid with
  | Some rg when not rg.rg_dropped -> rg
  | Some _ | None -> invalid_arg (Printf.sprintf "Cluster: unknown range %d" rid)

let ranges t =
  Hashtbl.fold (fun id rg acc -> if rg.rg_dropped then acc else id :: acc) t.ranges_tbl []
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

let sample_key t rid key =
  let ks =
    match Hashtbl.find_opt t.samples rid with
    | Some ks -> ks
    | None ->
        let ks = { ring = Array.make sample_cap ""; seen = 0 } in
        Hashtbl.replace t.samples rid ks;
        ks
  in
  ks.ring.(ks.seen mod sample_cap) <- key;
  ks.seen <- ks.seen + 1

let sampled_keys t rid =
  match Hashtbl.find_opt t.samples rid with
  | None -> []
  | Some ks -> List.init (min ks.seen sample_cap) (fun i -> ks.ring.(i))

let clear_samples t rid = Hashtbl.remove t.samples rid

let range_of_key t key =
  match Smap.find_last_opt (fun start -> String.compare start key <= 0) t.routing with
  | Some (_, rid) ->
      let rg = range t rid in
      let _, end_key = rg.rg_span in
      if String.compare key end_key < 0 then rid else raise Not_found
  | None -> raise Not_found

let replica_at rg node = Hashtbl.find_opt rg.rg_replicas node

(* The range's current placement: each replica's node and peer kind, as its
   own Raft group sees it. *)
let current_placement rg =
  Hashtbl.fold
    (fun node r acc ->
      match r.r_raft with
      | Some raft -> (
          match List.assoc_opt node (Raft.peers raft) with
          | Some kind -> (node, kind) :: acc
          | None -> acc)
      | None -> acc)
    rg.rg_replicas []

let replica_nodes t rid = List.sort compare (current_placement (range t rid))

(* ------------------------------------------------------------------ *)
(* Closed timestamps                                                   *)

(* L_raft + L_replicate for the current placement (§6.2.1). *)
let lead_components t rg =
  let home =
    match rg.rg_zone.Zoneconfig.lease_preferences with
    | h :: _ -> h
    | [] -> List.hd (Topology.regions t.topo)
  in
  let placements = current_placement rg in
  let rtt_to node = Latency.rtt t.latency home (Topology.region_of t.topo node) in
  let voters = List.filter (fun (_, k) -> k = Raft.Voter) placements in
  let quorum = (List.length voters / 2) + 1 in
  let voter_rtts = List.sort Int.compare (List.map (fun (n, _) -> rtt_to n) voters) in
  (* The leader acks itself; it needs [quorum - 1] other acks, and the
     cheapest ones come from the nearest voters (skip the leader's own 0). *)
  let l_raft =
    match voter_rtts with
    | [] -> Latency.intra_region_rtt
    | _ :: rest ->
        let rec nth i = function
          | [] -> Latency.intra_region_rtt
          | x :: xs -> if i = 0 then x else nth (i - 1) xs
        in
        if quorum - 1 = 0 then 0 else nth (quorum - 2) rest
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
    | Lag d -> Ts.of_wall (max 0 (phys - d))
    | Lead ->
        let l_raft, l_replicate = lead_components t rg in
        Ts.of_wall (phys + lead_duration_of t ~l_raft ~l_replicate)
  in
  rg.rg_closed_target <- Ts.max rg.rg_closed_target target;
  rg.rg_closed_target

let replica_closed r = Ts.max r.r_applied_closed r.r_side_closed

let promote_side r =
  match r.r_raft with
  | None -> ()
  | Some raft ->
      let applied = Raft.applied_index raft in
      let ready, pending =
        List.partition (fun (lai, _) -> lai <= applied) r.r_pending_side
      in
      List.iter
        (fun (_, ts) -> r.r_side_closed <- Ts.max r.r_side_closed ts)
        ready;
      r.r_pending_side <- pending

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
(* Command application (the replicated state machine)                  *)

let apply_cmd t r cmd =
  r.r_applied_closed <- Ts.max r.r_applied_closed cmd.closed;
  (* A log entry can predate a split or merge of its range, in which case
     the key no longer belongs to the log owner's span. Route the effect to
     this node's replica of the current owner: the owner's store was seeded
     with the committed prefix at the split, so replay there is idempotent.
     With no owner replica on this node the effect is dropped — the owning
     group carries the authoritative state. *)
  let owner key =
    if (not r.r_range.rg_dropped) && in_span r.r_range key then Some r
    else
      match Smap.find_last_opt (fun s -> String.compare s key <= 0) t.routing with
      | None -> None
      | Some (_, rid) -> (
          match Hashtbl.find_opt t.ranges_tbl rid with
          | Some rg when (not rg.rg_dropped) && in_span rg key ->
              replica_at rg r.r_node
          | Some _ | None -> None)
  in
  (match cmd.op with
  | Op_put { txn; ts; key; value; pri; anchor } -> (
      match owner key with
      | None -> ()
      | Some owner -> (
          (* The transaction record rides the first (anchor) write: every
             replica of the anchor range learns of the transaction when the
             write applies, with no extra consensus round. *)
          if String.equal key anchor then
            Txnrec.apply owner.r_txns ~txn ~key
              (Txnrec.U_register { pri; hb = Sim.now t.sim });
          match
            Mvcc.put_intent owner.r_store ~pri ~anchor ~key ~txn_id:txn ~ts
              ~value ()
          with
          | Mvcc.Written -> ()
          | Mvcc.Write_prevented ->
              (* Commit-status recovery barred this write while it was in
                 the log; the ack must tell the gateway its commit lost. *)
              cmd.fate <- `Prevented
          | Mvcc.Write_blocked _ ->
              (* The leaseholder's lock table serializes writers, so a foreign
                 intent here means replay after a lease transfer; drop it. *)
              ()))
  | Op_resolve { txn; keys; commit } ->
      List.iter
        (fun key ->
          match owner key with
          | None -> ()
          | Some owner ->
              Mvcc.resolve_intent owner.r_store ~key ~txn_id:txn ~commit;
              Lock_table.release owner.r_lt ~key ~txn)
        keys
  | Op_txn { txn; tkey; upd } -> (
      match owner tkey with
      | None -> ()
      | Some owner -> Txnrec.apply owner.r_txns ~txn ~key:tkey upd)
  | Op_prevent { txn; key; ts } -> (
      match owner key with
      | None -> ()
      | Some owner ->
          ignore
            (Mvcc.prevent owner.r_store ~key ~txn_id:txn ~ts
              : [ `Found | `Prevented ])));
  promote_side r;
  if cmd.proposer = r.r_node then ignore (Ivar.try_fill cmd.done_ ())

(* ------------------------------------------------------------------ *)
(* Replica construction and Raft wiring                                *)

let lease_valid t r =
  match r.r_raft with
  | None -> false
  | Some raft ->
      Raft.is_leader raft
      && Transport.is_alive t.net r.r_node
      && (Raft.quiesced raft
         || Sim.now t.sim - Raft.last_quorum_contact raft < lease_duration)

let leaseholder t rid =
  let rg = range t rid in
  Hashtbl.fold
    (fun node r acc ->
      match acc with Some _ -> acc | None -> if lease_valid t r then Some node else acc)
    rg.rg_replicas None

let leaseholder_region t rid =
  Option.map (Topology.region_of t.topo) (leaseholder t rid)

let preferred_leaseholder_node t rg =
  Allocator.preferred_leaseholder ~topology:t.topo
    ~live:(Transport.is_alive t.net) ~zone:rg.rg_zone (current_placement rg)

(* Hand [r]'s lease (Raft leadership) to [target], noting the transfer. *)
let hand_off_lease t r raft ~target =
  let node = r.r_node and range = r.r_range.rg_id in
  Events.log (Obs.events t.obs) ~node ~range
    ~attrs:[ ("target", string_of_int target) ]
    Events.Lease_transfer;
  Raft.transfer_leadership raft target

let rec make_replica t rg node =
  let r =
    {
      r_node = node;
      r_range = rg;
      r_store = Mvcc.create ();
      r_raft = None;
      r_applied_closed = Ts.zero;
      r_side_closed = Ts.zero;
      r_pending_side = [];
      r_lt = Lock_table.create ();
      r_txns = Txnrec.create ();
    }
  in
  Hashtbl.replace rg.rg_replicas node r;
  t.load.(node) <- t.load.(node) + 1;
  r

and raft_callbacks t rg r =
  {
    Raft.send =
      (fun dst msg ->
        Transport.send t.net ~src:r.r_node ~dst (fun () ->
            match replica_at rg dst with
            | Some peer -> (
                match peer.r_raft with
                | Some raft -> Raft.handle raft ~from:r.r_node msg
                | None -> ())
            | None -> ()));
    on_apply =
      (fun ~index:_ cmd ->
        (* HLC receive rule: a replica observes every replicated write
           timestamp, so no future leaseholder's clock is ever behind an
           applied write — the observed-timestamp uncertainty clamp in
           [eval_read] is sound only under this invariant. Future-time
           (Lead) writes are synthetic timestamps and must not drag clocks
           forward (CRDB's synthetic-timestamp rule); the read clamp
           exempts Lead ranges for the same reason. *)
        (match rg.rg_policy with
        | Lag _ -> (
            match cmd.op with
            | Op_put { ts; _ } -> Clock.update t.clocks.(r.r_node) ts
            | Op_resolve { commit = Some c; _ } ->
                Clock.update t.clocks.(r.r_node) c
            | Op_txn { upd = Txnrec.U_commit { ts } | Txnrec.U_stage { ts; _ }; _ }
              ->
                Clock.update t.clocks.(r.r_node) ts
            | Op_resolve { commit = None; _ } | Op_txn _ | Op_prevent _ -> ())
        | Lead -> ());
        apply_cmd t r cmd);
    on_role =
      (fun role ->
        match role with
        | Raft.Leader ->
            Events.log (Obs.events t.obs) ~node:r.r_node ~range:rg.rg_id
              ~attrs:[ ("region", Topology.region_of t.topo r.r_node) ]
              Events.Lease_acquired;
            (* New leaseholder: no write may land below the lease start.
               The hybrid clock reading is ahead of every applied write
               (HLC receive rule at apply) and every read served here is
               recorded exactly in the shared timestamp cache, so this is
               the lease-start lower bound CRDB uses — not physical time
               plus max_offset, which would mint a timestamp above every
               clock in the cluster and defeat hybrid-clock commit-wait. *)
            Tscache.bump_low_water rg.rg_tscache
              (Clock.now t.clocks.(r.r_node));
            (* Honor lease preferences. *)
            let home_ok =
              match rg.rg_zone.Zoneconfig.lease_preferences with
              | [] -> true
              | prefs -> List.mem (Topology.region_of t.topo r.r_node) prefs
            in
            let target_in_prefs target =
              List.mem
                (Topology.region_of t.topo target)
                rg.rg_zone.Zoneconfig.lease_preferences
            in
            if not home_ok then begin
              match preferred_leaseholder_node t rg with
              | Some target when target <> r.r_node && target_in_prefs target -> (
                  match r.r_raft with
                  | Some raft ->
                      (* Defer: transferring synchronously inside the role
                         callback would re-enter Raft. *)
                      Sim.schedule t.sim ~after:1_000 (fun () ->
                          if Raft.is_leader raft then
                            hand_off_lease t r raft ~target)
                  | None -> ())
              | Some _ | None -> ()
            end
        | Raft.Follower | Raft.Candidate -> ());
    on_config =
      (fun change ->
        if not (List.mem_assoc r.r_node change) then begin
          (* May already have been reaped by [rebalance_step] (a dead
             victim never applies its own removal); only account once. *)
          if Hashtbl.mem rg.rg_replicas r.r_node then begin
            Hashtbl.remove rg.rg_replicas r.r_node;
            t.load.(r.r_node) <- max 0 (t.load.(r.r_node) - 1)
          end
        end
        else begin
          match r.r_raft with
          | Some raft when Raft.is_leader raft ->
              (* Materialize replicas for newly added peers. *)
              List.iter
                (fun (node, _) ->
                  match replica_at rg node with
                  | Some _ -> ()
                  | None -> add_replica t rg node ~preferred:(Some r.r_node))
                change
          | Some _ | None -> ()
        end);
    take_snapshot =
      (fun () ->
        {
          snap_store = Mvcc.copy r.r_store;
          snap_closed = r.r_applied_closed;
          snap_txns = Txnrec.copy r.r_txns;
        });
    install_snapshot =
      (fun s ->
        Lock_table.clear_locks r.r_lt;
        r.r_applied_closed <- Ts.max r.r_applied_closed s.snap_closed;
        Mvcc.replace_with r.r_store s.snap_store;
        Txnrec.replace_with r.r_txns s.snap_txns);
    is_node_live = (fun node -> Liveness.believed_live t.live node);
    node_epoch = (fun node -> Liveness.epoch t.live node);
    on_discard =
      (fun cmd ->
        (* The proposer's copy of an uncommitted entry was dropped (log
           truncation by a new leader, or a snapshot covering the tail).
           Fail the pipelined waiter fast — as indeterminate, since in rare
           interleavings another surviving copy can still commit. *)
        if cmd.proposer = r.r_node && not (Ivar.is_full cmd.done_) then begin
          cmd.fate <- `Dropped;
          ignore (Ivar.try_fill cmd.done_ () : bool)
        end);
  }

(* Create [r]'s Raft group over [peers]. Draws the group's RNG stream from
   the cluster's, so callers must construct groups in a fixed order. *)
and create_raft t rg r ~peers ?boundary () =
  let raft =
    Raft.create ~sim:t.sim ~rng:(Rng.split t.rng) ~id:r.r_node ~peers
      ~callbacks:(raft_callbacks t rg r) ~obs:t.obs ~range:rg.rg_id ?boundary
      ()
  in
  r.r_raft <- Some raft;
  raft

and add_replica t rg node ~preferred =
  let r = make_replica t rg node in
  let peers =
    (* Peer set comes from the leader's current config via snapshot/appends;
       start with just enough to participate. *)
    match
      Hashtbl.fold
        (fun _ peer acc ->
          match acc with
          | Some _ -> acc
          | None -> (
              match peer.r_raft with
              | Some raft when Raft.is_leader raft -> Some (Raft.peers raft)
              | Some _ | None -> acc))
        rg.rg_replicas None
    with
    | Some ps -> ps
    | None -> [ (node, Raft.Learner) ]
  in
  let peers =
    if List.mem_assoc node peers then peers else (node, Raft.Learner) :: peers
  in
  Raft.start ?preferred (create_raft t rg r ~peers ())

(* ------------------------------------------------------------------ *)
(* Range administration                                                *)

let note_range_count t =
  Metrics.set t.g_ranges
    (Hashtbl.fold
       (fun _ rg n -> if rg.rg_dropped then n else n + 1)
       t.ranges_tbl 0)

let add_range t ~span ~zone ~policy =
  let start_key, end_key = span in
  if String.compare start_key end_key >= 0 then
    invalid_arg "Cluster.add_range: empty span";
  Smap.iter
    (fun other_start rid ->
      let rg = Hashtbl.find t.ranges_tbl rid in
      if not rg.rg_dropped then begin
        let _, other_end = rg.rg_span in
        if
          String.compare other_start end_key < 0
          && String.compare start_key other_end < 0
        then invalid_arg "Cluster.add_range: overlapping span"
      end)
    t.routing;
  let rid = t.next_range_id in
  t.next_range_id <- rid + 1;
  let rg =
    {
      rg_id = rid;
      rg_span = span;
      rg_zone = zone;
      rg_policy = policy;
      rg_replicas = Hashtbl.create 8;
      rg_closed_target = Ts.zero;
      rg_tscache = Tscache.create ~low_water:Ts.zero;
      rg_dropped = false;
    }
  in
  Hashtbl.replace t.ranges_tbl rid rg;
  t.routing <- Smap.add start_key rid t.routing;
  let placement =
    Allocator.place ~topology:t.topo ~latency:t.latency
      ~load:(fun n -> t.load.(n))
      ~zone
  in
  let preferred =
    Allocator.preferred_leaseholder ~topology:t.topo
      ~live:(Transport.is_alive t.net) ~zone placement
  in
  List.iter (fun (node, _) -> ignore (make_replica t rg node : replica)) placement;
  (* The boundary places the group's (possibly out-of-band seeded) initial
     state behind a snapshot index, so replicas added later are seeded with
     a store snapshot rather than replaying a log that does not contain it
     (bulk loads, split forks). *)
  let rafts =
    List.map
      (fun (node, _) ->
        create_raft t rg (Hashtbl.find rg.rg_replicas node) ~peers:placement
          ~boundary:(1, 0) ())
      placement
  in
  List.iter (Raft.start ?preferred) rafts;
  note_range_count t;
  rid

let range_opt t rid =
  match Hashtbl.find_opt t.ranges_tbl rid with
  | Some rg when not rg.rg_dropped -> Some rg
  | Some _ | None -> None

let leader_replica t rid =
  let rg = range t rid in
  Hashtbl.fold
    (fun _ r acc ->
      match acc with
      | Some _ -> acc
      | None -> (
          match r.r_raft with
          | Some raft when Raft.is_leader raft && Transport.is_alive t.net r.r_node ->
              Some r
          | Some _ | None -> acc))
    rg.rg_replicas None

let alter_range t rid ~zone ~policy =
  let rg = range t rid in
  rg.rg_zone <- zone;
  rg.rg_policy <- policy;
  let needs_move =
    not (Allocator.satisfies ~topology:t.topo ~zone (current_placement rg))
  in
  if needs_move then begin
    (* Bias the allocator towards nodes that already host a replica so the
       reconfiguration moves as little data as possible. *)
    let load n =
      if Hashtbl.mem rg.rg_replicas n then t.load.(n) - 1_000_000 else t.load.(n)
    in
    let placement =
      Allocator.place ~topology:t.topo ~latency:t.latency ~load ~zone
    in
    let rec try_propose attempts =
      if range_opt t rid = None then () (* dropped while scheduled *)
      else
      match leader_replica t rid with
      | Some r -> (
          match r.r_raft with
          | Some raft ->
              (* The leader must stay a peer for the handoff; if the new
                 placement drops it, keep it as a learner and let a later
                 rebalance remove it. *)
              let placement =
                if List.mem_assoc r.r_node placement then placement
                else (r.r_node, Raft.Learner) :: placement
              in
              ignore (Raft.propose_config raft placement : int option)
          | None -> ())
      | None ->
          if attempts > 0 then
            Sim.schedule t.sim ~after:500_000 (fun () -> try_propose (attempts - 1))
    in
    try_propose 20
  end;
  (* Move the lease into the (possibly new) preferred region. *)
  let rec try_lease attempts =
    if range_opt t rid = None then () (* dropped while scheduled *)
    else
    match (leader_replica t rid, preferred_leaseholder_node t rg) with
    | Some r, Some target when r.r_node <> target -> (
        match (r.r_raft, replica_at rg target) with
        | Some raft, Some _ -> hand_off_lease t r raft ~target
        | (Some _ | None), (Some _ | None) ->
            if attempts > 0 then
              Sim.schedule t.sim ~after:500_000 (fun () -> try_lease (attempts - 1)))
    | (Some _ | None), (Some _ | None) -> ()
  in
  Sim.schedule t.sim ~after:1_000_000 (fun () -> try_lease 20)

let drop_range t rid =
  let rg = range t rid in
  rg.rg_dropped <- true;
  Hashtbl.iter
    (fun node r ->
      (match r.r_raft with Some raft -> Raft.stop raft | None -> ());
      t.load.(node) <- max 0 (t.load.(node) - 1))
    rg.rg_replicas;
  let start_key, _ = rg.rg_span in
  t.routing <- Smap.remove start_key t.routing;
  Hashtbl.remove t.ranges_tbl rid;
  clear_samples t rid;
  note_range_count t

(* ------------------------------------------------------------------ *)
(* Range lifecycle: splits, merges, rebalancing                        *)

(* Split [rid] at key [at], forking its state into a new right-hand range
   covering [at, end). Runs synchronously (no simulated time passes), so
   the handoff is atomic with respect to every other process:

   - MVCC state: every replica's store drops its records at or above [at];
     every right-hand replica is seeded from the leaseholder's fork, which
     reflects every committed write (the leader applies on commit). A
     lagging follower re-learns any delta by replaying the left log, whose
     entries are routed to the current owner at apply time.
   - Timestamp cache: the right range's low water is the left cache's
     maximum read over [at, end), so no write the right leaseholder admits
     can invalidate a read the left one served.
   - Closed timestamps: the right range inherits the left's closed target,
     and each right replica its co-located left replica's closed timestamp;
     writes the right leaseholder admits are pushed above the inherited
     target, so follower reads stay safe across the split.
   - Locks and parked intent waiters at or above [at] move to the right
     replicas; waiters re-resolve their key when woken and retry there.
   - The right Raft group reuses the left peer set, starts behind a
     snapshot boundary covering the seeded state, and campaigns first on
     the left leaseholder's node (lease handoff).

   Returns the new right-hand range id, or [None] when the left range has
   no leaseholder to fork from. *)
let split_range t rid ~at =
  let rg = range t rid in
  let s, e = rg.rg_span in
  if not (String.compare at s > 0 && String.compare at e < 0) then
    invalid_arg "Cluster.split_range: split key outside span";
  match leader_replica t rid with
  | None -> None
  | Some lr ->
      let peers =
        match lr.r_raft with Some raft -> Raft.peers raft | None -> []
      in
      let seed = ref (Mvcc.create ()) in
      Hashtbl.iter
        (fun node r ->
          let part = Mvcc.split_off r.r_store ~key:at in
          if node = lr.r_node then seed := part)
        rg.rg_replicas;
      let seed = !seed in
      let new_rid = t.next_range_id in
      t.next_range_id <- new_rid + 1;
      let right =
        {
          rg_id = new_rid;
          rg_span = (at, e);
          rg_zone = rg.rg_zone;
          rg_policy = rg.rg_policy;
          rg_replicas = Hashtbl.create 8;
          rg_closed_target = rg.rg_closed_target;
          rg_tscache =
            Tscache.create
              ~low_water:
                (Tscache.max_read_span rg.rg_tscache ~for_txn:None
                   ~start_key:at ~end_key:e);
          rg_dropped = false;
        }
      in
      Hashtbl.replace t.ranges_tbl new_rid right;
      rg.rg_span <- (s, at);
      t.routing <- Smap.add at new_rid t.routing;
      Hashtbl.iter
        (fun node lrep ->
          if List.mem_assoc node peers then begin
            let rrep = make_replica t right node in
            Mvcc.replace_with rrep.r_store seed;
            rrep.r_applied_closed <- replica_closed lrep;
            Lock_table.split_move lrep.r_lt ~into:rrep.r_lt ~at;
            Txnrec.split_move lrep.r_txns ~into:rrep.r_txns ~at
          end)
        rg.rg_replicas;
      Hashtbl.iter
        (fun _ rrep ->
          ignore
            (create_raft t right rrep ~peers ~boundary:(1, 0) ()
              : (cmd, snap) Raft.t))
        right.rg_replicas;
      Hashtbl.iter
        (fun _ rrep ->
          Option.iter (Raft.start ~preferred:lr.r_node) rrep.r_raft)
        right.rg_replicas;
      (* Pre-split samples straddle both halves; restart sampling so the
         next load-based split point reflects post-split traffic only. *)
      clear_samples t rid;
      Events.log (Obs.events t.obs) ~node:lr.r_node ~range:rid
        ~attrs:[ ("at", at); ("right", string_of_int new_rid) ]
        Events.Split;
      note_range_count t;
      Some new_rid

(* Merge [rid] with its right-hand neighbor (the range starting exactly at
   its end key), subsuming the neighbor. Requires structurally equal zone
   configs and policies and a live leaseholder on both sides. Also runs
   synchronously:

   - MVCC state: the right leaseholder's store — complete for every
     committed right-span write — is absorbed into every left replica.
   - Timestamp cache: the left cache's low water ratchets over the right
     cache's maximum read, so writes admitted after the merge cannot
     invalidate reads the right leaseholder served.
   - Closed timestamps: the merged target is the max of both sides; new
     writes are pushed above it, so an old left closed timestamp never
     exposes a torn view of the absorbed span.
   - The right leaseholder's locks move to the left leaseholder replica;
     every waiter parked on the dying range is woken and re-resolves.
   - In-flight right-range proposals die with the group: never committed,
     never acked, and their transactions retry against the merged range.

   Returns [false] (leaving the ranges untouched) when the neighbor is
   missing or incompatible, or either side lacks a leaseholder. *)
let merge_range t rid =
  match range_opt t rid with
  | None -> false
  | Some rg -> (
      let s, e = rg.rg_span in
      match Smap.find_opt e t.routing with
      | None -> false
      | Some right_rid -> (
          match range_opt t right_rid with
          | None -> false
          | Some right -> (
              if
                not
                  (rg.rg_zone = right.rg_zone && rg.rg_policy = right.rg_policy)
              then false
              else
                match (leader_replica t rid, leader_replica t right_rid) with
                | Some ll, Some rl ->
                    let _, re = right.rg_span in
                    Hashtbl.iter
                      (fun _ lrep ->
                        Mvcc.absorb lrep.r_store rl.r_store;
                        Txnrec.absorb lrep.r_txns ~from:rl.r_txns)
                      rg.rg_replicas;
                    Lock_table.absorb ll.r_lt ~from:rl.r_lt;
                    Hashtbl.iter
                      (fun _ rrep -> Lock_table.wake_all rrep.r_lt)
                      right.rg_replicas;
                    Tscache.bump_low_water rg.rg_tscache
                      (Tscache.max_read_span right.rg_tscache ~for_txn:None
                         ~start_key:e ~end_key:re);
                    rg.rg_closed_target <-
                      Ts.max rg.rg_closed_target right.rg_closed_target;
                    right.rg_dropped <- true;
                    Hashtbl.iter
                      (fun node rrep ->
                        (match rrep.r_raft with
                        | Some raft -> Raft.stop raft
                        | None -> ());
                        t.load.(node) <- max 0 (t.load.(node) - 1))
                      right.rg_replicas;
                    t.routing <- Smap.remove e t.routing;
                    Hashtbl.remove t.ranges_tbl right_rid;
                    rg.rg_span <- (s, re);
                    clear_samples t right_rid;
                    Events.log (Obs.events t.obs) ~node:ll.r_node ~range:rid
                      ~attrs:[ ("subsumed", string_of_int right_rid) ]
                      Events.Merge;
                    note_range_count t;
                    true
                | (Some _ | None), (Some _ | None) -> false)))

(* A reasonable split point: the median live key of the leaseholder's
   store, or [None] when the range holds too few keys to split. *)
let split_point t rid =
  match range_opt t rid with
  | None -> None
  | Some rg -> (
      match leader_replica t rid with
      | None -> None
      | Some lr ->
          let keys =
            Mvcc.fold_latest lr.r_store ~init:[] ~f:(fun acc k _ -> k :: acc)
          in
          let keys = List.rev keys in
          let n = List.length keys in
          if n < 2 then None
          else
            let at = List.nth keys (n / 2) in
            let s, _ = rg.rg_span in
            if String.compare at s > 0 then Some at else None)

(* Live size of a range: key + latest live value bytes of the leaseholder
   store. [None] when the range has no live leader. *)
let live_bytes t rid =
  match leader_replica t rid with
  | None -> None
  | Some lr -> Some (Mvcc.live_bytes lr.r_store)

(* Load-based split point: the weighted median of the recently sampled
   request keys (duplicates retained, so the median is the key that splits
   recent *traffic* in half, not the keyspace). Falls back to the
   median-live-key [split_point] when the sample is too thin, and always
   returns a key strictly inside the span so the split cannot degenerate. *)
let load_split_point t rid =
  match range_opt t rid with
  | None -> None
  | Some rg -> (
      let s, e = rg.rg_span in
      let in_span k = String.compare k s >= 0 && String.compare k e < 0 in
      let keys =
        sampled_keys t rid |> List.filter in_span |> List.sort String.compare
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
      match Hashtbl.find_opt t.ranges_tbl rid with
      | Some rg when not rg.rg_dropped ->
          let s, e = rg.rg_span in
          if String.compare s end_key < 0 && String.compare start_key e < 0
          then rid :: acc
          else acc
      | Some _ | None -> acc)
    t.routing []
  |> List.rev

(* One allocator-driven rebalance step: if the current placement can be
   improved, add the replacement replica via a single-step Raft config
   change and remove the victim once the replacement has caught up. The
   leaseholder is never removed out from under itself — when it is the
   victim, the lease moves to another live voter first and a later pass
   moves the replica. Returns [true] iff a step was initiated. *)
let rebalance_step t rid =
  match range_opt t rid with
  | None -> false
  | Some rg -> (
      match leader_replica t rid with
      | None -> false
      | Some lr -> (
          match lr.r_raft with
          | None -> false
          | Some raft -> (
              let placement = Raft.peers raft in
              (* Score candidates by the load a node carries *besides* this
                 range: a member's own replica must not make every empty
                 node look like an improvement, or the allocator ping-pongs
                 replicas between idle nodes forever. *)
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
                        hand_off_lease t lr raft ~target;
                        true
                  end
                  else begin
                    match Raft.add_peer raft replacement kind with
                    | None -> false
                    | Some _ ->
                        Events.log (Obs.events t.obs) ~node:lr.r_node
                          ~range:rid ~attrs:
                            [
                              ("victim", string_of_int victim);
                              ("replacement", string_of_int replacement);
                            ]
                          Events.Rebalance;
                        let goal = Raft.commit_index raft in
                        (* A dead victim never applies its own removal, so
                           its replica object must be reaped here; a live
                           one removes itself in [on_config] first, making
                           this a no-op (guarded by presence). *)
                        let reap_victim rg =
                          match replica_at rg victim with
                          | Some vr ->
                              (match vr.r_raft with
                              | Some vraft -> Raft.stop vraft
                              | None -> ());
                              Hashtbl.remove rg.rg_replicas victim;
                              t.load.(victim) <- max 0 (t.load.(victim) - 1)
                          | None -> ()
                        in
                        let rec finish attempts =
                          match range_opt t rid with
                          | None -> ()
                          | Some rg ->
                              let caught_up =
                                match replica_at rg replacement with
                                | Some rr -> (
                                    match rr.r_raft with
                                    | Some rraft ->
                                        Raft.applied_index rraft >= goal
                                    | None -> false)
                                | None -> false
                              in
                              let removed =
                                match leader_replica t rid with
                                | Some l2 -> (
                                    match l2.r_raft with
                                    | Some raft2 ->
                                        (not
                                           (List.mem_assoc victim
                                              (Raft.peers raft2)))
                                        || (caught_up && l2.r_node <> victim
                                           && Raft.remove_peer raft2 victim
                                              <> None)
                                    | None -> false)
                                | None -> false
                              in
                              if removed then
                                (* Give a live victim time to apply its own
                                   removal, then reap whatever is left. *)
                                Sim.schedule t.sim ~after:2_000_000 (fun () ->
                                    match range_opt t rid with
                                    | Some rg -> reap_victim rg
                                    | None -> ())
                              else if attempts > 0 then
                                Sim.schedule t.sim ~after:500_000 (fun () ->
                                    finish (attempts - 1))
                        in
                        Sim.schedule t.sim ~after:500_000 (fun () ->
                            finish 40);
                        true
                  end)))

let rebalance_leases t =
  Hashtbl.iter
    (fun _ rg ->
      if not rg.rg_dropped then
        match (leader_replica t rg.rg_id, preferred_leaseholder_node t rg) with
        | Some r, Some target when r.r_node <> target ->
            Option.iter (fun raft -> hand_off_lease t r raft ~target) r.r_raft
        | (Some _ | None), (Some _ | None) -> ())
    t.ranges_tbl

let transfer_lease t rid ~target =
  match leader_replica t rid with
  | Some r when r.r_node <> target -> (
      match (r.r_raft, replica_at (range t rid) target) with
      | Some raft, Some _ -> hand_off_lease t r raft ~target
      | (Some _ | None), (Some _ | None) -> ())
  | Some _ | None -> ()

let restart_node t node =
  Transport.revive_node t.net node;
  Hashtbl.iter
    (fun _ rg ->
      if not rg.rg_dropped then
        match replica_at rg node with
        | Some r ->
            (* A restart loses everything held only in process memory: the
               lock table and parked waiters (connections are gone), and the
               side-channel closed-timestamp state, which is re-learned from
               the next publications. Applied MVCC data and the Raft log are
               disk-backed and survive. *)
            Lock_table.reset r.r_lt;
            r.r_side_closed <- Ts.zero;
            r.r_pending_side <- [];
            (match r.r_raft with Some raft -> Raft.restart raft | None -> ())
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
  List.iter
    (fun (key, value) ->
      match range_of_key t key with
      | rid ->
          let rg = range t rid in
          Hashtbl.iter
            (fun _ r -> Mvcc.put_version r.r_store ~key ~ts ~value:(Some value))
            rg.rg_replicas
      | exception Not_found ->
          invalid_arg (Printf.sprintf "Cluster.bulk_load: no range for %s" key))
    kvs

(* ------------------------------------------------------------------ *)
(* Closed-timestamp side channel (node-level transport)                *)

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
      if not rg.rg_dropped then
        match replica_at rg node with
        | Some r -> (
            match r.r_raft with
            | Some raft when Raft.is_leader raft ->
                let target = next_closed_target t rg node in
                let lai = Raft.last_index raft in
                List.iter
                  (fun (peer, _) -> if peer <> node then add peer (rg, lai, target))
                  (Raft.peers raft)
            | Some _ | None -> ())
        | None -> ())
    t.ranges_tbl;
  if Hashtbl.length batches > 0 then Metrics.inc t.c_ct_publish.(node);
  Hashtbl.iter
    (fun dst items ->
      let items = !items in
      Transport.send t.net ~src:node ~dst (fun () ->
          List.iter
            (fun (rg, lai, ts) ->
              match replica_at rg dst with
              | Some r ->
                  r.r_pending_side <- (lai, ts) :: r.r_pending_side;
                  promote_side r
              | None -> ())
            items))
    batches

let start_publishers t =
  for node = 0 to Topology.num_nodes t.topo - 1 do
    let rec tick () =
      if Transport.is_alive t.net node then publish t node;
      Sim.schedule t.sim ~after:publish_interval tick
    in
    (* Stagger the first publication per node. *)
    Sim.schedule t.sim
      ~after:(1 + (node * 7919 mod publish_interval))
      tick
  done

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

type read_result =
  | Read_value of { value : string option; ts : Ts.t }
  | Read_uncertain of { value_ts : Ts.t }
  | Read_redirect
  | Read_wounded of string
  | Read_err of string

type scan_result =
  | Scan_rows of (string * string) list
  | Scan_uncertain of { value_ts : Ts.t }
  | Scan_redirect
  | Scan_wounded of string
  | Scan_err of string

type write_result =
  | Write_ok of Ts.t
  | Write_wounded of string
  | Write_err of string

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
let with_leaseholder t ~gateway ?(span = Trace.nil) ?(phases = Phase.nil) ~op
    ~key ~(on_fail : string -> 'a)
    (eval :
      replica -> Trace.span -> [ `Done of 'a | `Not_leader | `Range_mismatch ])
    : 'a =
  let tr = Obs.trace t.obs in
  let sp =
    let range =
      match range_of_key t key with
      | rid -> Some rid
      | exception Not_found -> None
    in
    Trace.span tr ~parent:span ~node:gateway ?range op
  in
  let op_start = Sim.now t.sim in
  (* Server-side waiting (conflicts, replication) is attributed by the eval
     itself; the remainder of each gateway-side RPC wait — request/response
     travel and queueing — is routing. *)
  let attributed () =
    Phase.total phases Phase.Lock_wait + Phase.total phases Phase.Replication
  in
  let record_done rid =
    let ts = Obs.timeseries t.obs in
    Timeseries.observe ts ~range:rid "kv.range.qps" 1;
    Timeseries.record_sample ts ~range:rid "kv.range.latency"
      (Sim.now t.sim - op_start);
    sample_key t rid key
  in
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
          match leaseholder t rid with
          | None ->
              Proc.sleep t.sim 250_000;
              Phase.add phases Phase.Lease_wait 250_000;
              go ()
          | Some lh -> (
              let rg = range t rid in
              match replica_at rg lh with
              | None ->
                  Proc.sleep t.sim 250_000;
                  Phase.add phases Phase.Lease_wait 250_000;
                  go ()
              | Some r -> (
                  let rpc_start = Sim.now t.sim in
                  let attributed_before = attributed () in
                  let reply =
                    Transport.rpc ~span:sp ~phases t.net ~src:gateway ~dst:lh
                      (fun out ->
                        Proc.spawn t.sim (fun () ->
                            ignore (Ivar.try_fill out (eval r sp) : bool)))
                  in
                  let note_routing () =
                    let waited = Sim.now t.sim - rpc_start in
                    let nested = attributed () - attributed_before in
                    Phase.add phases Phase.Routing (max 0 (waited - nested))
                  in
                  match Proc.await_timeout t.sim reply ~timeout:rpc_timeout with
                  | Some (`Done res) ->
                      note_routing ();
                      Phase.annotate phases sp;
                      Trace.finish tr sp;
                      record_done rid;
                      res
                  | Some `Range_mismatch ->
                      (* The range split, merged, or was dropped while the
                         request was in flight; re-resolve and retry now. *)
                      note_routing ();
                      go ()
                  | Some `Not_leader ->
                      note_routing ();
                      Proc.sleep t.sim 100_000;
                      Phase.add phases Phase.Lease_wait 100_000;
                      go ()
                  | None ->
                      note_routing ();
                      go ())))
  in
  go ()

let is_leader_now r =
  match r.r_raft with Some raft -> Raft.is_leader raft | None -> false

(* The guard at the head of every leaseholder evaluation: the replica must
   still own [key] — a split, merge or drop may have moved it while the
   request was in flight — and must still lead its range. *)
let guard r ~key eval =
  if r.r_range.rg_dropped || not (in_span r.r_range key) then `Range_mismatch
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
  match r.r_raft with
  | None -> false
  | Some raft ->
      let voters =
        List.filter (fun (_, k) -> k = Raft.Voter) (Raft.peers raft)
      in
      let quorum = (List.length voters / 2) + 1 in
      let leader_region = Topology.region_of t.topo r.r_node in
      let local =
        List.length
          (List.filter
             (fun (n, _) ->
               String.equal (Topology.region_of t.topo n) leader_region)
             voters)
      in
      local < quorum

(* Propose [op] through [r]'s Raft log, carrying the closed timestamp
   [closed] the caller computed for it; [None] when [r] no longer leads.
   With [span], the round is traced as a [raft.replicate] child span, counts
   as a WAN round trip when its quorum leaves the leader's region, and is
   charged to the replication phase of [phases] once it applies locally
   (with write pipelining the quorum wait overlaps the transaction's other
   work, so the phase is attributed at apply time). *)
let propose t r ?span ?(phases = Phase.nil) ~closed op =
  match r.r_raft with
  | None -> None
  | Some raft -> (
      let cmd =
        {
          closed;
          proposer = r.r_node;
          op;
          done_ = Ivar.create ();
          fate = `Applied;
        }
      in
      match span with
      | None -> Option.map (fun _ -> cmd) (Raft.propose raft cmd)
      | Some span -> (
          let tr = Obs.trace t.obs in
          let rsp =
            Trace.span tr ~parent:span ~node:r.r_node ~range:r.r_range.rg_id
              "raft.replicate"
          in
          let propose_at = Sim.now t.sim in
          match Raft.propose raft cmd with
          | None ->
              Trace.annotate rsp "error" "not leader";
              Trace.finish tr rsp;
              None
          | Some _ ->
              Ivar.on_fill cmd.done_ (fun () -> Trace.finish tr rsp);
              if replication_needs_wan t r then Phase.add_wan phases;
              Ivar.on_fill cmd.done_ (fun () ->
                  Phase.add phases Phase.Replication
                    (Sim.now t.sim - propose_at));
              Some cmd))

(* Await [cmd]'s local apply; [None] when the proposal was lost. *)
let await_applied t cmd =
  Proc.await_timeout t.sim cmd.done_ ~timeout:propose_timeout

(* ------------------------------------------------------------------ *)
(* Transaction-record transitions, pushes, commit-status recovery      *)

(* Propose one record transition through this replica's Raft log and await
   its local apply. First-decision-wins is enforced at apply time, so the
   caller must re-read the applied record to learn which decision actually
   won — its own proposal may have lost the race. *)
let propose_txn_update t r ~txn ~key upd =
  if not (is_leader_now r) then `Not_leader
  else
    match
      propose t r
        ~closed:(next_closed_target t r.r_range r.r_node)
        (Op_txn { txn; tkey = key; upd })
    with
    | None -> `Not_leader
    | Some cmd -> (
        match await_applied t cmd with Some () -> `Applied | None -> `Lost)

let eval_txn_update t r ~txn ~key upd =
  guard r ~key @@ fun () ->
  match propose_txn_update t r ~txn ~key upd with
  | `Applied -> `Done (Txnrec.status r.r_txns ~txn)
  | `Lost -> `Done None
  | `Not_leader -> `Not_leader

(* One record transition as an ordinary routed RPC: resolve the anchor
   key's leaseholder, propose, await apply, return the applied status. *)
let txn_update t ~gateway ?span ?(phases = Phase.nil) ~op ~txn ~key upd =
  with_leaseholder t ~gateway ?span ~phases ~op ~key
    ~on_fail:(fun _ -> None)
    (fun r _sp -> eval_txn_update t r ~txn ~key upd)

let eval_query_intent t r ~txn ~key ~ts =
  guard r ~key @@ fun () ->
  match
    propose t r
      ~closed:(next_closed_target t r.r_range r.r_node)
      (Op_prevent { txn; key; ts })
  with
  | None -> `Not_leader
  | Some cmd -> (
      match await_applied t cmd with
      | None -> `Done `Unknown
      | Some () ->
          if Mvcc.is_prevented r.r_store ~key ~txn_id:txn then `Done `Missing
          else `Done `Found)

(* QueryIntent with prevention (parallel-commit recovery, CRDB §3): did the
   staged transaction's declared write on [key] replicate? The probe goes
   through the key's own Raft log, so it is totally ordered against the
   Op_put it races: [`Found] means the write landed (or already resolved),
   [`Missing] means it had not — and now never will, the apply barred it.
   Routing or proposal failures are [`Unknown]: recovery must stay
   inconclusive rather than abort on indeterminate evidence. *)
let query_intent t ~gateway ?span ?(phases = Phase.nil) ~txn ~key ~ts () =
  with_leaseholder t ~gateway ?span ~phases ~op:"kv.query_intent" ~key
    ~on_fail:(fun _ -> `Unknown)
    (fun r _sp -> eval_query_intent t r ~txn ~key ~ts)

(* Commit-status recovery against someone else's STAGING record. Verify
   every declared in-flight write; all present ⇒ the commit implicitly
   succeeded, finalize Committed; any proven missing ⇒ it cannot have been
   acked, finalize Aborted (the probe also bars the write from landing
   late). Either finalization races the coordinator's own transition, so
   the applied record — not our proposal — is the verdict we report.
   Returns [Some commit] (finalized; resolve intents with [commit]) or
   [None] (inconclusive: a probe or the finalization was indeterminate —
   the pusher just keeps waiting). *)
let recover_txn t ~gateway ?span ?(phases = Phase.nil) ~txn ~anchor_key ~ts
    ~inflight () =
  let t0 = Sim.now t.sim in
  let verdict =
    if t.cfg.broken = Some No_recovery then `Abort
    else
      let rec probe = function
        | [] -> `Commit
        | key :: rest -> (
            match query_intent t ~gateway ?span ~phases ~txn ~key ~ts () with
            | `Found -> probe rest
            | `Missing -> `Abort
            | `Unknown -> `Inconclusive)
      in
      probe inflight
  in
  let finalize upd =
    match
      txn_update t ~gateway ?span ~phases ~op:"kv.txn_recover" ~txn
        ~key:anchor_key upd
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
  Phase.add phases Phase.Recovery (Sim.now t.sim - t0);
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

(* One push evaluation at the blocker's anchor-range leaseholder. Proposed
   transitions (wound, abandon, stub registration) go through the anchor
   log; the applied record decides. *)
let eval_push t r ~blocker ~anchor_key ~blocker_pri ~pusher =
  guard r ~key:anchor_key @@ fun () ->
  let now = Sim.now t.sim in
  let liveness = 3 * txn_heartbeat_interval in
  let reread () =
    match Txnrec.status r.r_txns ~txn:blocker with
    | Some (Txnrec.Committed ts) -> Push_cleanup (Some ts)
    | Some (Txnrec.Aborted { reason; wound = true }) -> Push_wound reason
    | Some (Txnrec.Aborted _) -> Push_cleanup None
    | Some (Txnrec.Pending | Txnrec.Staging _) | None -> Push_wait
  in
  match Txnrec.find r.r_txns ~txn:blocker with
  | None ->
      (* No record yet: the blocker left an intent (or lock) but its
         registering write hasn't applied here, or it never registers
         (raw writer). Create an unwoundable stub so abandonment can
         reclaim the key if no coordinator ever shows up. *)
      ignore
        (propose_txn_update t r ~txn:blocker ~key:anchor_key
           (Txnrec.U_register { pri = blocker_pri; hb = now })
          : [ `Applied | `Lost | `Not_leader ]);
      `Done Push_wait
  | Some rec_ -> (
      match rec_.Txnrec.tr_status with
      | Txnrec.Committed ts -> `Done (Push_cleanup (Some ts))
      | Txnrec.Aborted { reason; wound = true } -> `Done (Push_wound reason)
      | Txnrec.Aborted _ -> `Done (Push_cleanup None)
      | Txnrec.Staging { ts; inflight } ->
          (* A staging record is never wounded: the transaction holds no
             future lock acquisitions, so waiting for it is deadlock-free.
             Recovery only fires once the coordinator looks dead (or
             immediately in the deliberately broken mode). *)
          if t.cfg.broken = Some No_recovery || now - rec_.Txnrec.tr_hb > liveness
          then `Done (Push_recover { ts; inflight })
          else `Done Push_wait
      | Txnrec.Pending ->
          if now - rec_.Txnrec.tr_hb > liveness then begin
            ignore
              (propose_txn_update t r ~txn:blocker ~key:anchor_key
                 (Txnrec.U_abandon
                    {
                      reason = "abandoned (stale heartbeat)";
                      if_hb_before = rec_.Txnrec.tr_hb;
                    })
                : [ `Applied | `Lost | `Not_leader ]);
            `Done (reread ())
          end
          else
            let wound =
              match pusher with
              | Some (p_pri, p_id) ->
                  Txnrec.older (p_pri, p_id)
                    (rec_.Txnrec.tr_pri, rec_.Txnrec.tr_id)
              | None -> false
            in
            if wound then begin
              ignore
                (propose_txn_update t r ~txn:blocker ~key:anchor_key
                   (Txnrec.U_wound { reason = "wounded by older txn" })
                  : [ `Applied | `Lost | `Not_leader ]);
              `Done (reread ())
            end
            else `Done Push_wait)

(* Pushes are latency-bound, not reliability-bound: a push that cannot
   reach the anchor leaseholder right now simply reports Wait and the next
   tick retries, so it uses a short timeout and a single routing attempt
   instead of [with_leaseholder]'s full retry loop. *)
let push_rpc_timeout = 3_000_000

let push_once t ~src ~blocker ~anchor_key ~blocker_pri ~pusher =
  match range_of_key t anchor_key with
  | exception Not_found -> Push_wait
  | rid -> (
      match range_opt t rid with
      | None -> Push_wait
      | Some rg -> (
          match leaseholder t rid with
          | None -> Push_wait
          | Some lh -> (
              match replica_at rg lh with
              | None -> Push_wait
              | Some r -> (
                  let reply =
                    Transport.rpc t.net ~src ~dst:lh (fun out ->
                        Proc.spawn t.sim (fun () ->
                            ignore
                              (Ivar.try_fill out
                                 (eval_push t r ~blocker ~anchor_key
                                    ~blocker_pri ~pusher)
                                : bool)))
                  in
                  match
                    Proc.await_timeout t.sim reply ~timeout:push_rpc_timeout
                  with
                  | Some (`Done v) -> v
                  | Some (`Not_leader | `Range_mismatch) | None -> Push_wait))))

(* Park on the conflicting key and periodically push the blocker's record
   at its anchor range — a genuine RPC now that records live with their
   anchor key rather than in a cluster-global table. The wait ends when the
   key's waiters are woken (intent resolved / lock released), when routing
   moves, or when a push verdict lets this waiter clean up the blocker. *)
let wait_on_conflict t r ~phases ~key ~blocker ~waiter ~waiter_pri ~fate =
  let blocker, blocker_pri, blocker_anchor =
    match blocker with
    | `Lock l ->
        (Lock_table.holder l, Lock_table.lock_pri l, Lock_table.lock_anchor l)
    | `Intent i -> (i.Mvcc.txn_id, i.Mvcc.pri, i.Mvcc.anchor)
  in
  let iv = Lock_table.park r.r_lt ~key in
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
    Lock_table.unpark r.r_lt ~key iv;
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
        (propose t r
           ~closed:(next_closed_target t r.r_range r.r_node)
           (Op_resolve { txn = blocker; keys = [ key ]; commit })
          : cmd option)
  in
  let rec loop () =
    let now = Sim.now t.sim in
    if now >= !deadline then finish Lock_table.Timed_out
    else
      let slice = min t.cfg.push_delay (!deadline - now) in
      match Proc.await_timeout t.sim iv ~timeout:slice with
      | Some () -> finish Lock_table.Acquired
      | None ->
          if
            r.r_range.rg_dropped
            || (not (is_leader_now r))
            || not (in_span r.r_range key)
          then
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
                      recover_txn t ~gateway:r.r_node ~phases ~txn:blocker
                        ~anchor_key ~ts ~inflight ()
                    with
                    | Some commit ->
                        cleanup commit;
                        loop ()
                    | None -> loop ()))
          end
  in
  loop ()

(* How the requesting transaction's own fate, and a conflict wait that ends
   without the key, finish an operation — per result type. *)
type 'a ends = { wounded : string -> 'a; failed : string -> 'a }

let read_ends =
  { wounded = (fun e -> Read_wounded e); failed = (fun e -> Read_err e) }

let scan_ends =
  { wounded = (fun e -> Scan_wounded e); failed = (fun e -> Scan_err e) }

let write_ends =
  { wounded = (fun e -> Write_wounded e); failed = (fun e -> Write_err e) }

(* Evaluate [live] unless the transaction was wounded or aborted meanwhile. *)
let when_live ~fate ends live =
  match (fate () : fate) with
  | `Wounded reason -> `Done (ends.wounded reason)
  | `Aborted -> `Done (ends.failed "transaction aborted")
  | `Live -> live ()

(* Park on [blocker] (a lock or intent on [key]), charging the wait to the
   operation's lock_wait phase, and [retry] the evaluation once the key is
   free or routing moved. *)
let conflict_wait t r ~phases ~key ~txn ~pri ~fate ends ~retry blocker =
  let t0 = Sim.now t.sim in
  let outcome =
    wait_on_conflict t r ~phases ~key ~blocker ~waiter:txn ~waiter_pri:pri
      ~fate
  in
  Phase.add phases Phase.Lock_wait (Sim.now t.sim - t0);
  match outcome with
  | Lock_table.Acquired -> retry ()
  | Lock_table.Wounded reason -> `Done (ends.wounded reason)
  | Lock_table.Pusher_aborted -> `Done (ends.failed "transaction aborted")
  | Lock_table.Timed_out -> `Done (ends.failed "conflict timeout")

(* The lock or foreign intent a writer (or locker) of [key] must wait on. *)
let write_blocker r ~key ~txn ~strength =
  match Lock_table.foreign_for r.r_lt ~key ~txn ~strength with
  | Some l -> Some (`Lock l)
  | None -> (
      match Mvcc.intent_on r.r_store ~key with
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
  | Lag _ -> Ts.max ts (Ts.min max_ts (Clock.now t.clocks.(r.r_node)))
  | Lead -> max_ts

let rec eval_read t r ~inline_bump ~phases ~txn ~pri ~fate ~key ~ts ~max_ts =
  guard r ~key @@ fun () ->
  when_live ~fate read_ends @@ fun () ->
  let max_ts = observed_max_ts t r ~ts ~max_ts in
  let wait =
    conflict_wait t r ~phases ~key ~txn ~pri ~fate read_ends ~retry:(fun () ->
        eval_read t r ~inline_bump ~phases ~txn ~pri ~fate ~key ~ts ~max_ts)
  in
  match Lock_table.foreign r.r_lt ~key ~txn ~max_ts with
  | Some l -> wait (`Lock l)
  | None -> (
      match Mvcc.read r.r_store ~key ~ts ~max_ts ~for_txn:txn with
      | Mvcc.Intent_blocked i -> wait (`Intent i)
      | Mvcc.Value { value; ts = vts } ->
          Tscache.record_read r.r_range.rg_tscache ~txn ~key ~ts;
          `Done (Read_value { value; ts = vts })
      | Mvcc.Uncertain { value_ts } ->
          (* Server-side retry: when the transaction has no prior reads to
             refresh, ratchet the timestamp in place instead of bouncing the
             uncertainty error back across the network. *)
          if inline_bump then
            eval_read t r ~inline_bump ~phases ~txn ~pri ~fate ~key
              ~ts:value_ts ~max_ts
          else `Done (Read_uncertain { value_ts }))

let read t ?(inline_bump = false) ?span ?(phases = Phase.nil) ?pri
    ?(fate = live_fate) ~gateway ~txn ~key ~ts ~max_ts () =
  with_leaseholder t ~gateway ?span ~phases ~op:"kv.read" ~key
    ~on_fail:(fun msg -> Read_err msg)
    (fun r _sp ->
      eval_read t r ~inline_bump ~phases ~txn ~pri ~fate ~key ~ts ~max_ts)

(* The follower path (§5): serve [eval] at [at]'s own replica of [rg] —
   after [local_sleep], the cost of the local storage access — or else at
   the live replica nearest to [at], over an RPC traced under [span],
   charged to [phases] and bounded by [rpc_timeout]. *)
let follower_serve t rg ~at ?local_sleep ?span ?phases eval =
  match replica_at rg at with
  | Some r ->
      Option.iter (Proc.sleep t.sim) local_sleep;
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
          let reply =
            Transport.rpc ?span ?phases t.net ~src:at ~dst:node (fun out ->
                Ivar.fill out (eval r))
          in
          match Proc.await_timeout t.sim reply ~timeout:rpc_timeout with
          | Some res -> `Served res
          | None -> `Timed_out))

let read_follower t ?(span = Trace.nil) ?(phases = Phase.nil) ~at ~txn ~key
    ~ts ~max_ts () =
  match range_of_key t key with
  | exception Not_found -> Read_err ("no range for key " ^ key)
  | rid ->
      let tr = Obs.trace t.obs in
      let sp =
        Trace.span tr ~parent:span ~node:at ~range:rid "kv.follower_read"
      in
      let fr_start = Sim.now t.sim in
      let eval r =
        (* A split or merge may land between resolution and evaluation;
           redirect to the gateway path, which re-resolves the key. *)
        if
          r.r_range.rg_dropped
          || (not (in_span r.r_range key))
          || not Ts.(replica_closed r >= max_ts)
        then Read_redirect
        else
          match Mvcc.read r.r_store ~key ~ts ~max_ts ~for_txn:txn with
          | Mvcc.Value { value; ts = vts } -> Read_value { value; ts = vts }
          | Mvcc.Uncertain { value_ts } -> Read_uncertain { value_ts }
          | Mvcc.Intent_blocked _ -> Read_redirect
      in
      let res =
        match
          follower_serve t (range t rid) ~at ~local_sleep:50 ~span:sp ~phases
            eval
        with
        | `Served res -> res
        | `No_replica -> Read_err "no live replica"
        | `Timed_out -> Read_err "follower read timeout"
      in
      (match res with
      | Read_value _ | Read_uncertain _ ->
          Metrics.inc t.c_fr_hit.(at);
          let ts = Obs.timeseries t.obs in
          Timeseries.observe ts ~range:rid "kv.range.qps" 1;
          Timeseries.record_sample ts ~range:rid "kv.range.latency"
            (Sim.now t.sim - fr_start)
      | Read_redirect ->
          Trace.annotate sp "redirect" "true";
          Metrics.inc t.c_fr_miss.(at)
      | Read_wounded _ | Read_err _ -> ());
      Trace.finish tr sp;
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

let rec eval_scan t r ~phases ~txn ~pri ~fate ~start_key ~end_key ~ts ~max_ts
    ~limit =
  guard r ~key:start_key @@ fun () ->
  when_live ~fate scan_ends @@ fun () ->
  (* A scan covers at most one range: clamp to the replica's current span
     (re-clamped on every retry, since a split may have shrunk it). *)
  let start_key, end_key = clamp_span r.r_range ~start_key ~end_key in
  let max_ts = observed_max_ts t r ~ts ~max_ts in
  let rows =
    Mvcc.scan r.r_store ~start_key ~end_key ~ts ~max_ts ~for_txn:txn ~limit
  in
  let wait ~key =
    conflict_wait t r ~phases ~key ~txn ~pri ~fate scan_ends ~retry:(fun () ->
        eval_scan t r ~phases ~txn ~pri ~fate ~start_key ~end_key ~ts ~max_ts
          ~limit)
  in
  (* A scan must also respect locks on keys it covers. *)
  match Lock_table.foreign_in_span r.r_lt ~start_key ~end_key ~txn ~max_ts with
  | Some (key, l) -> wait ~key (`Lock l)
  | None -> (
      match classify_rows rows with
      | `Blocked (key, i) -> wait ~key (`Intent i)
      | `Uncertain value_ts -> `Done (Scan_uncertain { value_ts })
      | `Rows out ->
          Tscache.record_read_span r.r_range.rg_tscache ~txn ~start_key
            ~end_key ~ts;
          `Done (Scan_rows out))

(* Tag a fragment's result with the end of the range that served it: where
   the next fragment starts under the routing in force at evaluation time. *)
let with_range_end r = function
  | (`Not_leader | `Range_mismatch) as other -> other
  | `Done res -> `Done (res, snd r.r_range.rg_span)

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
   [fragment ~cursor ~limit rid] scans one range's part of the span. *)
let stitch_rows t ~start_key ~end_key ~limit fragment =
  let full = function Some n -> n <= 0 | None -> false in
  stitch t ~start_key ~end_key ~init:([], limit)
    ~finish:(fun ~gap (acc, remaining) ->
      match gap with
      | Some cursor when acc = [] && not (full remaining) ->
          Scan_err ("no range for key " ^ cursor)
      | Some _ | None -> Scan_rows (List.rev acc))
    ~step:(fun (acc, remaining) ~cursor rid ->
      if full remaining then Error (Scan_rows (List.rev acc))
      else
        match fragment ~cursor ~limit:remaining rid with
        | Scan_rows rows, next ->
            let remaining =
              Option.map (fun n -> n - List.length rows) remaining
            in
            Ok ((List.rev_append rows acc, remaining), next)
        | ( (Scan_uncertain _ | Scan_redirect | Scan_wounded _ | Scan_err _) as
            res ),
            _ ->
            (* Propagate; the transaction restarts the whole scan. *)
            Error res)

let scan t ?span ?(phases = Phase.nil) ?pri ?(fate = live_fate) ~gateway ~txn
    ~start_key ~end_key ~ts ~max_ts ~limit () =
  stitch_rows t ~start_key ~end_key ~limit (fun ~cursor ~limit _ ->
      with_leaseholder t ~gateway ?span ~phases ~op:"kv.scan" ~key:cursor
        ~on_fail:(fun msg -> (Scan_err msg, end_key))
        (fun r _sp ->
          with_range_end r
            (eval_scan t r ~phases ~txn ~pri ~fate ~start_key:cursor ~end_key
               ~ts ~max_ts ~limit)))

let scan_follower t ?(span = Trace.nil) ?(phases = Phase.nil) ~at ~txn
    ~start_key ~end_key ~ts ~max_ts ~limit () =
  (* Each fragment is served by the local (or nearest) replica; one that
     cannot be served there redirects the whole request. *)
  stitch_rows t ~start_key ~end_key ~limit (fun ~cursor ~limit rid ->
      let tr = Obs.trace t.obs in
      let sp =
        Trace.span tr ~parent:span ~node:at ~range:rid "kv.follower_scan"
      in
      let eval r =
        if
          r.r_range.rg_dropped
          || (not (in_span r.r_range cursor))
          || not Ts.(replica_closed r >= max_ts)
        then (Scan_redirect, end_key)
        else
          let start_key, end_key =
            clamp_span r.r_range ~start_key:cursor ~end_key
          in
          let rows =
            Mvcc.scan r.r_store ~start_key ~end_key ~ts ~max_ts ~for_txn:txn
              ~limit
          in
          let next = snd r.r_range.rg_span in
          match classify_rows rows with
          | `Blocked _ -> (Scan_redirect, next)
          | `Uncertain value_ts -> (Scan_uncertain { value_ts }, next)
          | `Rows out -> (Scan_rows out, next)
      in
      let ((res, _) as out) =
        match
          follower_serve t (range t rid) ~at ~local_sleep:50 ~span:sp ~phases
            eval
        with
        | `Served out -> out
        | `No_replica -> (Scan_err "no live replica", end_key)
        | `Timed_out -> (Scan_err "follower scan timeout", end_key)
      in
      (match res with
      | Scan_rows _ | Scan_uncertain _ -> Metrics.inc t.c_fr_hit.(at)
      | Scan_redirect ->
          Trace.annotate sp "redirect" "true";
          Metrics.inc t.c_fr_miss.(at)
      | Scan_wounded _ | Scan_err _ -> ());
      Trace.finish tr sp;
      out)

let rec eval_write t r ~applied ~phases ~gateway ~txn ~pri ~anchor ~fate ~key
    ~value ~ts ~span =
  guard r ~key @@ fun () ->
  (* A wounded or aborted writer must not lay new intents: a pusher may
     already have cleaned up its old ones, and nothing would remove a
     late-laid intent until abandonment kicked in. *)
  when_live ~fate write_ends @@ fun () ->
  match write_blocker r ~key ~txn ~strength:Lock_table.Exclusive with
  | Some blocker ->
      conflict_wait t r ~phases ~key ~txn:(Some txn) ~pri ~fate write_ends
        ~retry:(fun () ->
          eval_write t r ~applied ~phases ~gateway ~txn ~pri ~anchor ~fate ~key
            ~value ~ts ~span)
        blocker
  | None -> (
      let rg = r.r_range in
      let target = next_closed_target t rg r.r_node in
      let ts =
        Ts.max ts
          (Ts.next (Tscache.max_read rg.rg_tscache ~for_txn:(Some txn) ~key))
      in
      let ts =
        let latest = Mvcc.latest_ts r.r_store ~key in
        if Ts.(latest >= ts) then Ts.next latest else ts
      in
      let ts = Ts.max ts (Ts.next target) in
      (* HLC receive rule at request receipt: the leaseholder's clock must
         not lag a timestamp it is about to write, or the observed-timestamp
         clamp would hide the value from reads arriving after the writer's
         commit ack. *)
      (match rg.rg_policy with
      | Lag _ -> Clock.update t.clocks.(r.r_node) ts
      | Lead -> ());
      let wpri = Option.value pri ~default:Ts.zero in
      let created =
        Lock_table.acquire r.r_lt ~pri:wpri ~anchor ~key ~txn ~ts ()
      in
      match
        propose t r ~span ~phases ~closed:target
          (Op_put { txn; ts; key; value; pri = wpri; anchor })
      with
      | None ->
          if created then Lock_table.release r.r_lt ~key ~txn;
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
              Ivar.on_fill cmd.done_ (fun () ->
                  Transport.send t.net ~src:r.r_node ~dst:gateway (fun () ->
                      ignore (Ivar.try_fill ack cmd.fate : bool)));
              `Done (Write_ok ts)
          | None -> (
              match await_applied t cmd with
              | Some () -> (
                  match cmd.fate with
                  | `Applied -> `Done (Write_ok ts)
                  | `Prevented ->
                      `Done (Write_err "write prevented by recovery")
                  | `Dropped -> `Done (Write_err "proposal lost (leader gone)"))
              | None -> `Done (Write_err "proposal lost (leader gone)"))))

(* One-phase commit: evaluate, then propose the intent and its commit
   resolution back to back in the same Raft log. The lock exists only
   between the two proposals (no simulated time passes), so concurrent
   readers never observe it — CRDB's 1PC fast path for transactions whose
   writes all land on one range. *)
let eval_write_and_commit t r ~gateway ~phases ~txn ~pri ~fate ~key ~value ~ts
    ~span =
  match
    eval_write t r ~applied:(Some (Ivar.create ())) ~phases ~gateway ~txn ~pri
      ~anchor:"" ~fate ~key ~value ~ts ~span
  with
  | (`Not_leader | `Range_mismatch) as other -> other
  | `Done (Write_wounded reason) -> `Done (Error reason)
  | `Done (Write_err e) -> `Done (Error e)
  | `Done (Write_ok final_ts) -> (
      match
        propose t r ~span ~phases
          ~closed:(next_closed_target t r.r_range r.r_node)
          (Op_resolve { txn; keys = [ key ]; commit = Some final_ts })
      with
      | None ->
          Lock_table.release r.r_lt ~key ~txn;
          `Not_leader
      | Some cmd -> (
          match await_applied t cmd with
          | Some () -> `Done (Ok final_ts)
          | None -> `Done (Error "proposal lost (leader gone)")))

let write_and_commit t ?span ?(phases = Phase.nil) ?pri ?(fate = live_fate)
    ~gateway ~txn ~key ~value ~ts () =
  with_leaseholder t ~gateway ?span ~phases ~op:"kv.write_1pc" ~key
    ~on_fail:(fun msg -> Error msg)
    (fun r sp ->
      eval_write_and_commit t r ~gateway ~phases ~txn ~pri ~fate ~key ~value
        ~ts ~span:sp)

let write t ?applied ?span ?(phases = Phase.nil) ?pri ?(anchor = "")
    ?(fate = live_fate) ~gateway ~txn ~key ~value ~ts () =
  with_leaseholder t ~gateway ?span ~phases ~op:"kv.write" ~key
    ~on_fail:(fun msg -> Write_err msg)
    (fun r sp ->
      eval_write t r ~applied ~phases ~gateway ~txn ~pri ~anchor ~fate ~key
        ~value ~ts ~span:sp)

(* SELECT FOR UPDATE / FOR SHARE: take an unreplicated lock on [key] without
   laying an intent. Like CRDB's unreplicated lock table, the lock is
   leaseholder-local state — dropped on lease transfer or node restart — so
   it is a contention-avoidance hint, not a correctness anchor:
   serializability stays guaranteed by the commit-time read refresh.
   Conflicts resolve through the same wound-wait push protocol as
   write-write conflicts (the waiter pushes the holder's record at its
   anchor). *)
let rec eval_lock t r ~phases ~txn ~pri ~anchor ~fate ~strength ~key ~ts =
  guard r ~key @@ fun () ->
  when_live ~fate write_ends @@ fun () ->
  match write_blocker r ~key ~txn ~strength with
  | Some blocker ->
      conflict_wait t r ~phases ~key ~txn:(Some txn) ~pri ~fate write_ends
        ~retry:(fun () ->
          eval_lock t r ~phases ~txn ~pri ~anchor ~fate ~strength ~key ~ts)
        blocker
  | None ->
      let wpri = Option.value pri ~default:Ts.zero in
      ignore
        (Lock_table.acquire r.r_lt ~pri:wpri ~anchor ~strength ~key ~txn ~ts ()
          : bool);
      `Done (Write_ok ts)

let lock_key t ?span ?(phases = Phase.nil) ?pri ?(anchor = "")
    ?(fate = live_fate) ~gateway ~txn ~key ~ts ~strength () =
  with_leaseholder t ~gateway ?span ~phases ~op:"kv.lock" ~key
    ~on_fail:(fun msg -> Write_err msg)
    (fun r _sp -> eval_lock t r ~phases ~txn ~pri ~anchor ~fate ~strength ~key ~ts)

(* Resolve the subset of [keys] this replica's range owns; the rest — keys
   stranded on the wrong leaseholder by a split racing the resolution — are
   handed back for the gateway to re-group. *)
let eval_resolve t r ~phases ~txn ~keys ~commit ~span =
  if r.r_range.rg_dropped then `Range_mismatch
  else
    let mine, leftover = List.partition (in_span r.r_range) keys in
    if mine = [] then `Range_mismatch
    else if not (is_leader_now r) then `Not_leader
    else
      match
        propose t r ~span ~phases
          ~closed:(next_closed_target t r.r_range r.r_node)
          (Op_resolve { txn; keys = mine; commit })
      with
      | None -> `Not_leader
      | Some cmd ->
          (* Resolution has no error channel: on a lost proposal, give up
             and let readers clean up the orphaned intents lazily. *)
          ignore (await_applied t cmd : unit option);
          `Done leftover

let resolve t ?span ?(phases = Phase.nil) ~gateway ~txn ~commit ~keys
    ~sync_all () =
  match keys with
  | [] -> ()
  | anchor_key :: _ ->
      (* Resolve one group of keys, chasing keys that end up owned by a
         different range than the one the group was formed against (splits
         and merges race resolution). Each round re-resolves the remaining
         keys' leaseholder; a few rounds bound pathological churn. *)
      let resolve_group ~phases ks =
        let rec go ks rounds =
          match ks with
          | [] -> ()
          | key :: _ ->
              let leftover =
                with_leaseholder t ~gateway ?span ~phases ~op:"kv.resolve" ~key
                  ~on_fail:(fun _ -> [])
                  (fun r sp ->
                    eval_resolve t r ~phases ~txn ~keys:ks ~commit ~span:sp)
              in
              if rounds > 0 then go leftover (rounds - 1)
        in
        go ks 4
      in
      (* Group keys by range, preserving the anchor first. *)
      let groups = Hashtbl.create 4 in
      let order = ref [] in
      List.iter
        (fun key ->
          match range_of_key t key with
          | rid -> (
              match Hashtbl.find_opt groups rid with
              | Some l -> l := key :: !l
              | None ->
                  Hashtbl.replace groups rid (ref [ key ]);
                  order := rid :: !order)
          | exception Not_found -> ())
        keys;
      let order = List.rev !order in
      let anchor_rid =
        match range_of_key t anchor_key with
        | rid -> rid
        | exception Not_found -> ( match order with [] -> -1 | rid :: _ -> rid)
      in
      let results =
        List.map
          (fun rid ->
            let ks = !(Hashtbl.find groups rid) in
            (* Only awaited resolutions may charge the operation's phase
               context: a fire-and-forget group completes after the caller
               has moved on (and possibly flushed the context). *)
            let phases =
              if rid = anchor_rid || sync_all then phases else Phase.nil
            in
            (rid, Proc.async t.sim (fun () -> resolve_group ~phases ks)))
          order
      in
      List.iter
        (fun (rid, iv) ->
          if rid = anchor_rid || sync_all then ignore (Proc.await iv))
        results

let eval_refresh r ~txn ~key ~from_ts ~to_ts =
  guard r ~key @@ fun () ->
  let lock_conflict =
    match Lock_table.foreign r.r_lt ~key ~txn:(Some txn) ~max_ts:to_ts with
    | Some _ -> true
    | None -> false
  in
  let intent_conflict =
    match Mvcc.intent_on r.r_store ~key with
    | Some i when i.Mvcc.txn_id <> txn && Ts.(i.Mvcc.ts <= to_ts) -> true
    | Some _ | None -> false
  in
  if lock_conflict || intent_conflict then `Done false
  else if Mvcc.has_committed_after r.r_store ~key ~after:from_ts ~upto:to_ts
  then `Done false
  else begin
    Tscache.record_read r.r_range.rg_tscache ~txn:(Some txn) ~key ~ts:to_ts;
    `Done true
  end

let refresh t ?span ?(phases = Phase.nil) ~gateway ~txn ~key ~from_ts ~to_ts
    () =
  with_leaseholder t ~gateway ?span ~phases ~op:"kv.refresh" ~key
    ~on_fail:(fun _ -> false)
    (fun r _sp -> eval_refresh r ~txn ~key ~from_ts ~to_ts)

let eval_refresh_span r ~txn ~start_key ~end_key ~from_ts ~to_ts =
  guard r ~key:start_key @@ fun () ->
  let start_key, end_key = clamp_span r.r_range ~start_key ~end_key in
  let lock_conflict =
    Lock_table.foreign_in_span r.r_lt ~start_key ~end_key ~txn:(Some txn)
      ~max_ts:to_ts
    <> None
  in
  let version_conflict =
    Mvcc.span_has_writes_in_window r.r_store ~start_key ~end_key
      ~after:from_ts ~upto:to_ts ~ignore_txn:(Some txn)
  in
  if lock_conflict || version_conflict then `Done false
  else begin
    Tscache.record_read_span r.r_range.rg_tscache ~txn:(Some txn) ~start_key
      ~end_key ~ts:to_ts;
    `Done true
  end

let refresh_span t ?span ?(phases = Phase.nil) ~gateway ~txn ~start_key
    ~end_key ~from_ts ~to_ts () =
  (* Stitched like {!scan}: every range covering part of the request span
     must confirm the absence of conflicting writes in the window, however
     the span is carved up at validation time. *)
  stitch t ~start_key ~end_key ~init:()
    ~finish:(fun ~gap:_ () -> true)
    ~step:(fun () ~cursor _ ->
      let ok, next =
        with_leaseholder t ~gateway ?span ~phases ~op:"kv.refresh_span"
          ~key:cursor
          ~on_fail:(fun _ -> (false, end_key))
          (fun r _sp ->
            with_range_end r
              (eval_refresh_span r ~txn ~start_key:cursor ~end_key ~from_ts
                 ~to_ts))
      in
      if ok then Ok ((), next) else Error false)

let local_closed t ~at rid =
  let rg = range t rid in
  match replica_at rg at with
  | Some r -> replica_closed r
  | None -> Ts.zero

let negotiate t ~at ~keys =
  (* Group keys by range and query the nearest replica of each. *)
  let groups = Hashtbl.create 4 in
  List.iter
    (fun key ->
      match range_of_key t key with
      | rid -> (
          match Hashtbl.find_opt groups rid with
          | Some l -> l := key :: !l
          | None -> Hashtbl.replace groups rid (ref [ key ]))
      | exception Not_found -> ())
    keys;
  Hashtbl.fold
    (fun rid ks acc ->
      let eval r =
        (* A valid leaseholder can serve any timestamp up to the present;
           followers are bounded by their closed timestamp. *)
        let base =
          if lease_valid t r then
            Ts.of_wall (Clock.physical_now t.clocks.(r.r_node))
          else replica_closed r
        in
        List.fold_left
          (fun safe key ->
            match Mvcc.intent_on r.r_store ~key with
            | Some i when Ts.(i.Mvcc.ts <= safe) -> Ts.prev i.Mvcc.ts
            | Some _ | None -> safe)
          base !ks
      in
      match follower_serve t (range t rid) ~at eval with
      | `Served ts -> Ts.min acc ts
      | `No_replica | `Timed_out -> Ts.zero)
    groups Ts.max_value

(* ------------------------------------------------------------------ *)
(* Transaction record RPCs (coordinator side)                          *)

(* Every record operation is an ordinary routed RPC against the anchor
   key's leaseholder; the record lives in that range's replicated state and
   every transition returns the *applied* record status, which may differ
   from the requested transition when a racing decision won the log. *)

let heartbeat_txn t ?span ?phases ~gateway ~txn ~key () =
  txn_update t ~gateway ?span ?phases ~op:"kv.txn_heartbeat" ~txn ~key
    (Txnrec.U_heartbeat { hb = Sim.now t.sim })

let stage_txn t ?span ?phases ~gateway ~txn ~key ~pri ~ts ~inflight () =
  let st =
    txn_update t ~gateway ?span ?phases ~op:"kv.txn_stage" ~txn ~key
      (Txnrec.U_stage { pri; ts; inflight; hb = Sim.now t.sim })
  in
  (match st with
  | Some (Txnrec.Staging _) ->
      Events.log (Obs.events t.obs) ~node:gateway ~txn
        ~attrs:[ ("inflight", string_of_int (List.length inflight)) ]
        Events.Txn_staged
  | Some _ | None -> ());
  st

let commit_txn t ?span ?phases ~gateway ~txn ~key ~ts () =
  txn_update t ~gateway ?span ?phases ~op:"kv.txn_commit" ~txn ~key
    (Txnrec.U_commit { ts })

let abort_txn t ?span ?phases ~gateway ~txn ~key ~reason () =
  txn_update t ~gateway ?span ?phases ~op:"kv.txn_abort" ~txn ~key
    (Txnrec.U_coord_abort { reason })

let txn_status t ?span ?phases ~gateway ~txn ~key () =
  with_leaseholder t ~gateway ?span
    ~phases:(Option.value phases ~default:Phase.nil)
    ~op:"kv.txn_status" ~key
    ~on_fail:(fun _ -> None)
    (fun r _sp -> guard r ~key (fun () -> `Done (Txnrec.status r.r_txns ~txn)))

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let storage_of t rid node =
  let rg = range t rid in
  Option.map (fun r -> r.r_store) (replica_at rg node)

(* Shadow [create] so every cluster starts its closed-timestamp publishers. *)
let create ?config ~topology ~latency () =
  let t = create ?config ~topology ~latency () in
  start_publishers t;
  t
