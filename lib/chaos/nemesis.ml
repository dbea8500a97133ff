module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Rng = Crdb_stdx.Rng
module Topology = Crdb_net.Topology
module Transport = Crdb_net.Transport
module Cluster = Crdb_kv.Cluster
module Clock = Crdb_hlc.Clock
module Raft = Crdb_raft.Raft
module Obs = Crdb_obs.Obs
module Events = Crdb_obs.Events
module Metrics = Crdb_obs.Metrics

type fault =
  | Kill_node of int
  | Revive_node of int
  | Kill_zone of string * string
  | Revive_zone of string * string
  | Kill_region of string
  | Revive_region of string
  | Partition_regions of string * string
  | Heal_partition of string * string
  | Heal_all_partitions
  | Clock_jump of int * int
  | Lease_transfer of Cluster.range_id * int
  | Split_range of Cluster.range_id * string
  | Merge_range of Cluster.range_id
  | Rebalance of Cluster.range_id

let fault_to_string = function
  | Kill_node n -> Printf.sprintf "kill_node(n%d)" n
  | Revive_node n -> Printf.sprintf "revive_node(n%d)" n
  | Kill_zone (r, z) -> Printf.sprintf "kill_zone(%s/%s)" r z
  | Revive_zone (r, z) -> Printf.sprintf "revive_zone(%s/%s)" r z
  | Kill_region r -> Printf.sprintf "kill_region(%s)" r
  | Revive_region r -> Printf.sprintf "revive_region(%s)" r
  | Partition_regions (a, b) -> Printf.sprintf "partition(%s|%s)" a b
  | Heal_partition (a, b) -> Printf.sprintf "heal_partition(%s|%s)" a b
  | Heal_all_partitions -> "heal_partitions"
  | Clock_jump (n, s) -> Printf.sprintf "clock_jump(n%d, %+dus)" n s
  | Lease_transfer (rid, n) -> Printf.sprintf "lease_transfer(r%d -> n%d)" rid n
  | Split_range (rid, at) -> Printf.sprintf "split_range(r%d @ %S)" rid at
  | Merge_range rid -> Printf.sprintf "merge_range(r%d)" rid
  | Rebalance rid -> Printf.sprintf "rebalance(r%d)" rid

let is_heal = function
  | Revive_node _ | Revive_zone _ | Revive_region _ | Heal_partition _
  | Heal_all_partitions ->
      true
  | Kill_node _ | Kill_zone _ | Kill_region _ | Partition_regions _
  | Clock_jump _ | Lease_transfer _ | Split_range _ | Merge_range _
  | Rebalance _ ->
      false

(* Revivals go through [Cluster.restart_node] so that coming back means a
   process restart (volatile state lost, durable state retained), not a
   network heal. *)
let apply cl fault =
  let net = Cluster.net cl in
  let topo = Cluster.topology cl in
  let restart_all nodes =
    List.iter (fun n -> Cluster.restart_node cl n.Topology.id) nodes
  in
  match fault with
  | Kill_node n -> Transport.kill_node net n
  | Revive_node n -> Cluster.restart_node cl n
  | Kill_zone (region, zone) -> Transport.kill_zone net ~region ~zone
  | Revive_zone (region, zone) -> restart_all (Topology.nodes_in_zone topo region zone)
  | Kill_region r -> Transport.kill_region net r
  | Revive_region r -> restart_all (Topology.nodes_in_region topo r)
  | Partition_regions (a, b) -> Transport.partition_regions net a b
  | Heal_partition (a, b) -> Transport.heal_partition net a b
  | Heal_all_partitions -> Transport.heal_partitions net
  | Clock_jump (n, skew) -> Cluster.set_clock_skew cl n skew
  | Lease_transfer (rid, target) -> Cluster.transfer_lease cl rid ~target
  (* Lifecycle faults are best-effort: the range may have disappeared (or
     lost its leaseholder) between scheduling and injection. *)
  | Split_range (rid, at) ->
      if List.mem rid (Cluster.ranges cl) then begin
        let s, e = Cluster.span_of cl rid in
        if String.compare at s > 0 && String.compare at e < 0 then
          ignore (Cluster.split_range cl rid ~at : Cluster.range_id option)
      end
  | Merge_range rid ->
      if List.mem rid (Cluster.ranges cl) then
        ignore (Cluster.merge_range cl rid : bool)
  | Rebalance rid ->
      if List.mem rid (Cluster.ranges cl) then
        ignore (Cluster.rebalance_step cl rid : bool)

(* ------------------------------------------------------------------ *)
(* Safety invariant                                                    *)

(* Would killing [extra_dead] leave every range a live voter quorum? This is
   the configurable min-healthy invariant: under SURVIVE ZONE it forbids
   killing two home zones at once (or the home region); under SURVIVE REGION
   it forbids a second concurrent region failure. *)
let kill_is_safe cl extra_dead =
  let net = Cluster.net cl in
  List.for_all
    (fun rid ->
      let voters =
        List.filter_map
          (fun (node, kind) -> match kind with Raft.Voter -> Some node | Raft.Learner -> None)
          (Cluster.replica_nodes cl rid)
      in
      let live =
        List.length
          (List.filter
             (fun n -> Transport.is_alive net n && not (List.mem n extra_dead))
             voters)
      in
      2 * live > List.length voters)
    (Cluster.ranges cl)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

type t = {
  cl : Cluster.t;
  mutable stopped : bool;
  base_skews : int array;
  c_injected : Metrics.counter;
}

let make cl =
  let topo = Cluster.topology cl in
  {
    cl;
    stopped = false;
    base_skews =
      Array.init (Topology.num_nodes topo) (fun n -> Clock.skew (Cluster.clock cl n));
    c_injected =
      Metrics.counter (Obs.metrics (Cluster.obs cl)) "chaos.injected";
  }

(* The cluster's event log is the fault log: one Fault or Heal event per
   injection, carrying the fault's rendering. *)
let inject t fault =
  let heal = is_heal fault in
  if not heal then Metrics.inc t.c_injected;
  Events.log (Obs.events (Cluster.obs t.cl))
    ~attrs:[ ("fault", fault_to_string fault) ]
    (if heal then Events.Heal else Events.Fault);
  apply t.cl fault

let stop t = t.stopped <- true

let log_to_string t =
  let line (e : Events.event) verb =
    Printf.sprintf "%10d %-6s %s" e.ts verb (List.assoc "fault" e.attrs)
  in
  String.concat "\n"
    (List.filter_map
       (fun (e : Events.event) ->
         match e.kind with
         | Events.Fault -> Some (line e "inject")
         | Events.Heal -> Some (line e "heal")
         | _ -> None)
       (Events.all (Obs.events (Cluster.obs t.cl))))

(* Undo everything a schedule may have left in force: revive every dead node
   (with restart semantics), drop all partitions, restore baseline skews. *)
let heal_all t =
  let net = Cluster.net t.cl in
  let topo = Cluster.topology t.cl in
  Transport.heal_partitions net;
  for n = 0 to Topology.num_nodes topo - 1 do
    if not (Transport.is_alive net n) then inject t (Revive_node n);
    if Clock.skew (Cluster.clock t.cl n) <> t.base_skews.(n) then
      inject t (Clock_jump (n, t.base_skews.(n)))
  done

(* ------------------------------------------------------------------ *)
(* Timed scripts                                                       *)

let run_script cl script =
  let t = make cl in
  let sim = Cluster.sim cl in
  let start = Sim.now sim in
  let script = List.sort (fun (a, _) (b, _) -> Int.compare a b) script in
  Proc.spawn sim (fun () ->
      List.iter
        (fun (at, fault) ->
          let due = start + at in
          if due > Sim.now sim then Proc.sleep sim (due - Sim.now sim);
          if not t.stopped then inject t fault)
        script);
  t

(* ------------------------------------------------------------------ *)
(* Seeded random schedules                                             *)

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

(* The range-lifecycle kinds are deliberately NOT part of [all_kinds]: the
   kinds array length feeds the schedule RNG, so adding them here would
   silently reshuffle every existing seeded schedule. Suites that want
   splits/merges/rebalances racing the other faults opt in explicitly. *)
let all_kinds =
  [ K_kill_node; K_kill_zone; K_kill_region; K_partition; K_clock_jump; K_lease_transfer ]

let lifecycle_kinds = [ K_split_range; K_merge_range; K_rebalance ]

type random_config = {
  mean_interval : int;
  mean_duration : int;
  kinds : kind list;
  enforce_quorum : bool;
}

(* Bound for [Clock_jump] draws: within the default 250 ms max offset. *)
let max_clock_skew = 100_000

let default_random =
  {
    mean_interval = 2_000_000;
    mean_duration = 4_000_000;
    kinds = all_kinds;
    enforce_quorum = true;
  }

(* Pick a concrete fault (plus its heal, if any) for the drawn kind, or
   [None] when no candidate passes the min-healthy invariant. Candidate
   enumeration is in fixed (id, region, zone) order so identical seeds yield
   identical schedules. *)
let pick_fault t rng cfg kind =
  let cl = t.cl in
  let net = Cluster.net cl in
  let topo = Cluster.topology cl in
  let safe nodes = (not cfg.enforce_quorum) || kill_is_safe cl nodes in
  let regions = Topology.regions topo in
  let pick_list l = if l = [] then None else Some (List.nth l (Rng.int rng (List.length l))) in
  match kind with
  | K_kill_node ->
      let candidates =
        List.filter
          (fun n -> Transport.is_alive net n && safe [ n ])
          (List.init (Topology.num_nodes topo) Fun.id)
      in
      Option.map
        (fun n -> (Kill_node n, Some (Revive_node n)))
        (pick_list candidates)
  | K_kill_zone ->
      let candidates =
        List.concat_map
          (fun r ->
            List.filter_map
              (fun z ->
                let nodes =
                  List.map (fun n -> n.Topology.id) (Topology.nodes_in_zone topo r z)
                in
                if List.exists (Transport.is_alive net) nodes && safe nodes then
                  Some (r, z)
                else None)
              (Topology.zones_in_region topo r))
          regions
      in
      Option.map
        (fun (r, z) -> (Kill_zone (r, z), Some (Revive_zone (r, z))))
        (pick_list candidates)
  | K_kill_region ->
      let candidates =
        List.filter
          (fun r ->
            let nodes =
              List.map (fun n -> n.Topology.id) (Topology.nodes_in_region topo r)
            in
            List.exists (Transport.is_alive net) nodes && safe nodes)
          regions
      in
      Option.map
        (fun r -> (Kill_region r, Some (Revive_region r)))
        (pick_list candidates)
  | K_partition ->
      if List.length regions < 2 then None
      else begin
        let a = List.nth regions (Rng.int rng (List.length regions)) in
        let rest = List.filter (fun r -> not (String.equal r a)) regions in
        let b = List.nth rest (Rng.int rng (List.length rest)) in
        Some (Partition_regions (a, b), Some (Heal_partition (a, b)))
      end
  | K_clock_jump ->
      let n = Rng.int rng (Topology.num_nodes topo) in
      let skew = Rng.int rng ((2 * max_clock_skew) + 1) - max_clock_skew in
      Some (Clock_jump (n, skew), Some (Clock_jump (n, t.base_skews.(n))))
  | K_lease_transfer -> (
      match pick_list (Cluster.ranges cl) with
      | None -> None
      | Some rid ->
          let lh = Cluster.leaseholder cl rid in
          let targets =
            List.filter_map
              (fun (node, k) ->
                match k with
                | Raft.Voter when Transport.is_alive net node && Some node <> lh ->
                    Some node
                | Raft.Voter | Raft.Learner -> None)
              (Cluster.replica_nodes cl rid)
          in
          Option.map
            (fun target -> (Lease_transfer (rid, target), None))
            (pick_list targets))
  | K_split_range -> (
      match pick_list (Cluster.ranges cl) with
      | None -> None
      | Some rid ->
          Option.map
            (fun at -> (Split_range (rid, at), None))
            (Cluster.split_point cl rid))
  | K_merge_range ->
      (* Only ranges whose right-hand neighbor exists and matches (same zone
         and policy) are candidates; [merge_range] and its trigger recheck. *)
      let mergeable rid =
        let _, e = Cluster.span_of cl rid in
        List.exists
          (fun other ->
            other <> rid
            && String.equal (fst (Cluster.span_of cl other)) e
            && Cluster.zone_of cl other = Cluster.zone_of cl rid
            && Cluster.policy_of cl other = Cluster.policy_of cl rid)
          (Cluster.ranges cl)
      in
      Option.map
        (fun rid -> (Merge_range rid, None))
        (pick_list (List.filter mergeable (Cluster.ranges cl)))
  | K_rebalance ->
      Option.map (fun rid -> (Rebalance rid, None)) (pick_list (Cluster.ranges cl))

let run_random ?(config = default_random) cl ~seed ~duration () =
  let t = make cl in
  let sim = Cluster.sim cl in
  let rng = Rng.create ~seed in
  let kinds = Array.of_list config.kinds in
  let deadline = Sim.now sim + duration in
  Proc.spawn sim (fun () ->
      while (not t.stopped) && Sim.now sim < deadline do
        let gap =
          (config.mean_interval / 2) + Rng.int rng (max 1 config.mean_interval)
        in
        Proc.sleep sim gap;
        if (not t.stopped) && Sim.now sim < deadline && Array.length kinds > 0 then begin
          let kind = kinds.(Rng.int rng (Array.length kinds)) in
          match pick_fault t rng config kind with
          | None -> ()
          | Some (fault, heal) ->
              inject t fault;
              let hold =
                (config.mean_duration / 2) + Rng.int rng (max 1 config.mean_duration)
              in
              Proc.sleep sim hold;
              if not t.stopped then
                match heal with Some h -> inject t h | None -> ()
        end
      done;
      (* Leave the cluster healthy: a schedule never ends mid-outage. *)
      heal_all t);
  t
