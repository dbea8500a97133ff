module Sim = Crdb_sim.Sim
module Ivar = Crdb_sim.Ivar
module Rng = Crdb_stdx.Rng
module Obs = Crdb_obs.Obs
module Trace = Crdb_obs.Trace
module Metrics = Crdb_obs.Metrics

type t = {
  sim : Sim.t;
  topology : Topology.t;
  latency : Latency.t;
  jitter : float;
  rng : Rng.t;
  (* Per node: the time it died, [-1] while alive. *)
  dead_since : int array;
  (* Liveness epoch: bumped on every dead->alive transition (a process
     restart is a new incarnation, per CRDB's epoch-based node liveness). *)
  epochs : int array;
  (* Regions as ints: [region.(node)] indexes [Topology.regions], and
     [cut.(ra * nregions + rb)] says whether traffic between regions [ra]
     and [rb] is partitioned. *)
  region : int array;
  nregions : int;
  cut : bool array;
  (* One-way base delay of each node pair, [-1] until first used. *)
  base_delays : int array;
  obs : Obs.t;
  (* Per-node counters, cached so the per-message cost is an array index. *)
  c_sent : Metrics.counter array;
  c_dropped : Metrics.counter array;
  c_rpcs : Metrics.counter array;
  c_wan_msgs : Metrics.counter array;
  c_wan_rpcs : Metrics.counter array;
}

let region_index topology r =
  List.find_index (String.equal r) (Topology.regions topology)

let create ?(jitter = 0.05) ?rng ?(obs = Obs.null) ~sim ~topology ~latency () =
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:0x5eed in
  let m = Obs.metrics obs in
  let n = Topology.num_nodes topology in
  let nregions = List.length (Topology.regions topology) in
  {
    sim;
    topology;
    latency;
    jitter;
    rng;
    dead_since = Array.make n (-1);
    epochs = Array.make n 0;
    region =
      Array.init n (fun i ->
          Option.get (region_index topology (Topology.region_of topology i)));
    nregions;
    cut = Array.make (nregions * nregions) false;
    base_delays = Array.make (n * n) (-1);
    obs;
    c_sent = Array.init n (fun i -> Metrics.counter m ~node:i "net.msgs_sent");
    c_dropped = Array.init n (fun i -> Metrics.counter m ~node:i "net.msgs_dropped");
    c_rpcs = Array.init n (fun i -> Metrics.counter m ~node:i "net.rpcs");
    c_wan_msgs = Array.init n (fun i -> Metrics.counter m ~node:i "net.wan_msgs");
    c_wan_rpcs = Array.init n (fun i -> Metrics.counter m ~node:i "net.wan_rpcs");
  }

let sim t = t.sim
let topology t = t.topology
let is_alive t id = t.dead_since.(id) < 0
let dead_since t id = if is_alive t id then None else Some t.dead_since.(id)
let epoch t id = t.epochs.(id)

let compute_base_delay t src dst =
  if src = dst then 25
  else
    let a = Topology.node t.topology src and b = Topology.node t.topology dst in
    if String.equal a.Topology.region b.Topology.region then
      if String.equal a.Topology.zone b.Topology.zone then
        Latency.intra_zone_rtt / 2
      else Latency.intra_region_rtt / 2
    else Latency.one_way t.latency a.Topology.region b.Topology.region

(* Filled on first use, so a latency profile that does not know some region
   pair only fails when a message actually crosses it. *)
let base_delay t src dst =
  let i = (src * Array.length t.region) + dst in
  let d = t.base_delays.(i) in
  if d >= 0 then d
  else begin
    let d = compute_base_delay t src dst in
    t.base_delays.(i) <- d;
    d
  end

let delay t src dst =
  let base = base_delay t src dst in
  if t.jitter <= 0.0 then base
  else base + int_of_float (Rng.float t.rng (t.jitter *. float_of_int base))

let cross_region t src dst = t.region.(src) <> t.region.(dst)

let partitioned t src dst =
  t.cut.((t.region.(src) * t.nregions) + t.region.(dst))

let reachable t src dst =
  is_alive t src && is_alive t dst && not (partitioned t src dst)

let send t ~src ~dst handler payload =
  if is_alive t src && not (partitioned t src dst) then begin
    Metrics.inc t.c_sent.(src);
    if cross_region t src dst then Metrics.inc t.c_wan_msgs.(src);
    let d = delay t src dst in
    Sim.schedule t.sim ~after:d (fun () ->
        (* Re-check at delivery time: the destination may have died, or a
           partition may have formed, while the message was in flight. *)
        if is_alive t dst && not (partitioned t src dst) then handler dst payload
        else Metrics.inc t.c_dropped.(src))
  end
  else Metrics.inc t.c_dropped.(src)

let rpc ?(op = Crdb_obs.Op.nil) t ~src ~dst handler =
  Metrics.inc t.c_rpcs.(src);
  (* Hop accounting for the §6 latency model: a request/response exchange
     that crosses a region boundary is one WAN round trip charged to the
     issuing operation. *)
  if cross_region t src dst then begin
    Metrics.inc t.c_wan_rpcs.(src);
    Crdb_obs.Op.add_wan op
  end;
  let sp =
    Trace.span (Obs.trace t.obs) ~parent:(Crdb_obs.Op.span op) ~node:src "net.rpc"
  in
  Trace.annotate_int sp "dst" dst;
  let outer = Ivar.create () in
  if sp != Trace.nil then
    Ivar.on_fill outer (fun _ -> Trace.finish (Obs.trace t.obs) sp);
  send t ~src ~dst
    (fun dst handler ->
      let inner = Ivar.create () in
      Ivar.on_fill inner (fun v ->
          send t ~src:dst ~dst:src (fun _ v -> ignore (Ivar.try_fill outer v : bool)) v);
      handler inner)
    handler;
  outer

let kill_node t id = if is_alive t id then t.dead_since.(id) <- Sim.now t.sim
let revive_node t id =
  if not (is_alive t id) then begin
    t.epochs.(id) <- t.epochs.(id) + 1;
    t.dead_since.(id) <- -1
  end

let each f nodes = List.iter (fun n -> f n.Topology.id) nodes
let kill_region t r = each (kill_node t) (Topology.nodes_in_region t.topology r)
let revive_region t r = each (revive_node t) (Topology.nodes_in_region t.topology r)

let kill_zone t ~region ~zone =
  each (kill_node t) (Topology.nodes_in_zone t.topology region zone)

let revive_zone t ~region ~zone =
  each (revive_node t) (Topology.nodes_in_zone t.topology region zone)

(* A region outside the topology has no nodes, so cutting it off changes
   nothing. *)
let set_cut t a b v =
  match (region_index t.topology a, region_index t.topology b) with
  | Some ra, Some rb ->
      t.cut.((ra * t.nregions) + rb) <- v;
      t.cut.((rb * t.nregions) + ra) <- v
  | _ -> ()

let partition_regions t a b = set_cut t a b true
let heal_partition t a b = set_cut t a b false
let heal_partitions t = Array.fill t.cut 0 (Array.length t.cut) false
