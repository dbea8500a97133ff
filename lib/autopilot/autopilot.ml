module Sim = Crdb_sim.Sim
module Transport = Crdb_net.Transport
module Cluster = Crdb_kv.Cluster
module Allocator = Crdb_kv.Allocator
module Obs = Crdb_obs.Obs
module Events = Crdb_obs.Events
module Timeseries = Crdb_obs.Timeseries

(* The autopilot: per-store background queues that reshape the cluster
   under load, CRDB's split/merge/rebalance queues in miniature. Each store
   runs one recurring scan over the ranges it currently leads:

   - the split queue fires when a range's windowed QPS or live size crosses
     its threshold, splitting at the load-based split point
     (the weighted median of recently sampled request keys);
   - the merge queue subsumes a cold right neighbor when the combined pair
     sits well under the split thresholds (the byte ceiling is a fraction
     of the split trigger, so split and merge cannot oscillate);
   - the rebalance queue moves leases toward the least-loaded preferred
     voter and lets the allocator move replicas, one step at a time.

   Every action arms a per-range cooldown; an action that is due but
   blocked by the cooldown is recorded as a [queue_skipped] event — the
   hysteresis that keeps the queues from thrashing. Ticks run as plain
   simulator timers (no coroutine primitives, nothing to await), so a
   killed node, a vanished leaseholder or a range dropped mid-scan can
   never wedge a queue: every lifecycle call degrades to a no-op. *)

type config = {
  scan_interval : int;
  split_qps : float;
  merge_bytes : int;
  cooldown : int;
}

let default =
  {
    scan_interval = 500_000;
    (* The split queue cuts at the traffic-weighted median, so a good split
       halves the range's QPS. Keep the trigger well under half of a typical
       hot range's load: at 50.0 any range between 50 and 100 QPS lands in a
       dead zone after one balanced split — both halves hot, neither over
       the bar — and reshaping stops one split early. *)
    split_qps = 20.0;
    merge_bytes = 128_000;
    cooldown = 3_000_000;
  }

(* Live size above which a range splits; combined QPS below which an
   adjacent pair may merge. *)
let split_bytes = 512_000
let merge_qps = 1.0

(* Fraction by which a lease move must reduce the donor's load. *)
let min_improvement = 0.25

type stats = {
  mutable auto_splits : int;
  mutable auto_merges : int;
  mutable lease_moves : int;
  mutable replica_moves : int;
  mutable skips : int;
}

type t = {
  cl : Cluster.t;
  cfg : config;
  mutable running : bool;
  last_action : (Cluster.range_id, int) Hashtbl.t;
  stats : stats;
}

let stats t = t.stats

(* Decisions react to the last few seconds of traffic, not the full
   retained minute: a shifted hot spot should re-trigger quickly. *)
let rate_window = 5_000_000

let qps t rid =
  let ts = Obs.timeseries (Cluster.obs t.cl) in
  Timeseries.rate ts ~range:rid ~window:rate_window "kv.range.qps"

let in_cooldown t now rid =
  match Hashtbl.find_opt t.last_action rid with
  | Some last -> now - last < t.cfg.cooldown
  | None -> false

let arm_cooldown t now rid = Hashtbl.replace t.last_action rid now

let skip t ~node ~rid ~queue =
  t.stats.skips <- t.stats.skips + 1;
  Events.log (Obs.events (Cluster.obs t.cl)) ~node ~range:rid
    ~attrs:[ ("queue", queue); ("reason", "cooldown") ]
    Events.Queue_skipped

let f1 v = Printf.sprintf "%.1f" v

(* Split queue: hot (QPS) or large (bytes) ranges split at the point that
   halves recent traffic. *)
let split_check t ~node ~now rid =
  let q = qps t rid in
  let bytes = Option.value ~default:0 (Cluster.live_bytes t.cl rid) in
  let reason =
    if q > t.cfg.split_qps then Some "qps"
    else if bytes > split_bytes then Some "bytes"
    else None
  in
  match reason with
  | None -> false
  | Some _ when in_cooldown t now rid ->
      skip t ~node ~rid ~queue:"split";
      false
  | Some reason -> (
      match Cluster.load_split_point t.cl rid with
      | None -> false
      | Some at -> (
          match Cluster.split_range t.cl rid ~at with
          | None -> false
          | Some new_rid ->
              t.stats.auto_splits <- t.stats.auto_splits + 1;
              arm_cooldown t now rid;
              arm_cooldown t now new_rid;
              Events.log (Obs.events (Cluster.obs t.cl)) ~node ~range:rid
                ~attrs:
                  [ ("at", at); ("reason", reason); ("qps", f1 q);
                    ("bytes", string_of_int bytes) ]
                Events.Split_queued;
              true))

(* Merge queue: subsume the right neighbor when the combined pair is cold
   and small. [Cluster.merge_range] itself rejects mismatched configs or a
   dead right leaseholder, so only the load policy lives here. *)
let merge_check t ~node ~now rid =
  let _, e = Cluster.span_of t.cl rid in
  let right =
    List.find_opt
      (fun r -> r <> rid && fst (Cluster.span_of t.cl r) = e)
      (Cluster.ranges t.cl)
  in
  match right with
  | None -> false
  | Some right_rid ->
      let combined_qps = qps t rid +. qps t right_rid in
      let combined_bytes =
        Option.value ~default:0 (Cluster.live_bytes t.cl rid)
        + Option.value ~default:0 (Cluster.live_bytes t.cl right_rid)
      in
      if
        not
          (combined_qps < merge_qps && combined_bytes < t.cfg.merge_bytes)
      then false
      else if in_cooldown t now rid || in_cooldown t now right_rid then begin
        skip t ~node ~rid ~queue:"merge";
        false
      end
      else if Cluster.merge_range t.cl rid then begin
        t.stats.auto_merges <- t.stats.auto_merges + 1;
        arm_cooldown t now rid;
        Events.log (Obs.events (Cluster.obs t.cl)) ~node ~range:rid
          ~attrs:
            [ ("right", string_of_int right_rid); ("qps", f1 combined_qps) ]
          Events.Merge_queued;
        true
      end
      else false

(* Lease queue: hand the lease to the least-loaded live voter of the best
   preference rank. A move must clear two bars — it fixes a preference
   violation, or it reduces this store's leaseholder load by
   [min_improvement] AND by more than the range's own load (so the
   recipient cannot end up worse than the donor was: no ping-pong). *)
let lease_check t ~node ~now ~load rid =
  let cl = t.cl in
  let topology = Cluster.topology cl in
  let zone = Cluster.zone_of cl rid in
  let int_load id = int_of_float (1000.0 *. load id) in
  let target =
    Allocator.preferred_leaseholder_by_load ~topology
      ~live:(Transport.is_alive (Cluster.net cl))
      ~load:int_load ~zone
      (Cluster.replica_nodes cl rid)
  in
  match target with
  | None -> None
  | Some tgt when tgt = node -> None
  | Some tgt ->
      let rank = Allocator.lease_preference_rank ~topology ~zone in
      let l = load node and tl = load tgt and q = qps t rid in
      let due =
        rank tgt < rank node
        || (l -. tl > min_improvement *. l && l -. tl > q)
      in
      if not due then None
      else if in_cooldown t now rid then begin
        skip t ~node ~rid ~queue:"lease";
        None
      end
      else begin
        Cluster.transfer_lease cl rid ~target:tgt;
        t.stats.lease_moves <- t.stats.lease_moves + 1;
        arm_cooldown t now rid;
        Events.log (Obs.events (Cluster.obs cl)) ~node ~range:rid
          ~attrs:[ ("target", string_of_int tgt); ("reason", "load") ]
          Events.Lease_moved;
        Some (tgt, q)
      end

let scan_store t node =
  let cl = t.cl in
  let now = Sim.now (Cluster.sim cl) in
  let ts = Obs.timeseries (Cluster.obs cl) in
  (* Leaseholder load per node, from the same sliding window the split
     queue uses. Kept in a local table and adjusted as this scan moves
     leases, so one tick cannot dump every lease on the same target. *)
  let loads = Hashtbl.create 16 in
  let snapshot = Cluster.ranges cl in
  List.iter
    (fun rid ->
      match Cluster.leaseholder cl rid with
      | Some lh ->
          let cur =
            Option.value ~default:0.0 (Hashtbl.find_opt loads lh)
          in
          Hashtbl.replace loads lh (cur +. qps t rid)
      | None -> ())
    snapshot;
  let load id = Option.value ~default:0.0 (Hashtbl.find_opt loads id) in
  let replica_budget = ref 1 in
  List.iter
    (fun rid ->
      (* Splits and merges earlier in this scan reshape the range set;
         re-check that the snapshot entry is still a range we lead. *)
      if
        List.mem rid (Cluster.ranges cl)
        && Cluster.leaseholder cl rid = Some node
      then begin
        let ts_bytes = Cluster.live_bytes cl rid in
        (match ts_bytes with
        | Some b -> Timeseries.observe ts ~range:rid "kv.range.bytes" b
        | None -> ());
        let acted =
          split_check t ~node ~now rid || merge_check t ~node ~now rid
        in
        if not acted then begin
          (match lease_check t ~node ~now ~load rid with
          | Some (tgt, q) ->
              Hashtbl.replace loads node (load node -. q);
              Hashtbl.replace loads tgt (load tgt +. q)
          | None -> ());
          if
            !replica_budget > 0
            && (not (in_cooldown t now rid))
            && Cluster.rebalance_step cl rid
          then begin
            decr replica_budget;
            t.stats.replica_moves <- t.stats.replica_moves + 1;
            arm_cooldown t now rid
          end
        end
      end)
    snapshot

let rec tick t node =
  if t.running then begin
    let cl = t.cl in
    if Transport.is_alive (Cluster.net cl) node then scan_store t node;
    Sim.schedule (Cluster.sim cl) ~after:t.cfg.scan_interval (fun () ->
        tick t node)
  end

let start ?(config = default) cl =
  let t =
    {
      cl;
      cfg = config;
      running = true;
      last_action = Hashtbl.create 32;
      stats =
        {
          auto_splits = 0;
          auto_merges = 0;
          lease_moves = 0;
          replica_moves = 0;
          skips = 0;
        };
    }
  in
  let n = Crdb_net.Topology.num_nodes (Cluster.topology cl) in
  for node = 0 to n - 1 do
    (* Staggered like the closed-timestamp publishers so stores never
       scan in lockstep. *)
    let offset = 1 + ((node * 7919) mod config.scan_interval) in
    Sim.schedule (Cluster.sim cl) ~after:offset (fun () -> tick t node)
  done;
  t

let stop t = t.running <- false
