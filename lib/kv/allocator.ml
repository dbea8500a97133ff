module Topology = Crdb_net.Topology
module Latency = Crdb_net.Latency
module Raft = Crdb_raft.Raft

type placement = (Topology.node_id * Raft.peer_kind) list

let not_enough () =
  failwith "Allocator: not enough nodes to satisfy configuration"

(* Four phases: the voters [voter_constraints] pin; one voter in each region
   without one, nearest the home region first, then the rest in the regions
   with the fewest voters, so no region reaches a quorum-breaking share; the
   non-voters [constraints] demand; any remaining replicas in the regions
   with the fewest. *)
let place ~topology ~latency ~load ~zone =
  let open Zoneconfig in
  let region_of = Topology.region_of topology in
  let regions = Topology.regions topology in
  let placed = ref [] in
  let untaken =
    List.filter (fun (n : Topology.node) -> not (List.mem_assoc n.id !placed))
  in
  let free region = untaken (Topology.nodes_in_region topology region) in
  (* Record [count] of [candidates] as [kind] peers, one at a time, in the
     order picked — the Raft peer order. Each pick prefers failure domains
     not yet used, then lower load: reusing a zone is strictly worse than
     reusing only the region, which is worse than a fresh region (the
     paper's diversity-maximizing allocator). *)
  let rec pick kind ~count candidates =
    if count > 0 then
      match candidates with
      | [] -> not_enough ()
      | first :: rest ->
          let score (n : Topology.node) =
            let same_region =
              List.filter
                (fun (id, _) -> String.equal (region_of id) n.region)
                !placed
            in
            let same_zone =
              List.filter
                (fun (id, _) ->
                  String.equal (Topology.zone_of topology id) n.zone)
                same_region
            in
            (List.length same_zone, List.length same_region, load n.id, n.id)
          in
          let best =
            List.fold_left
              (fun b n -> if score n < score b then n else b)
              first rest
          in
          placed := !placed @ [ (best.id, kind) ];
          pick kind ~count:(count - 1)
            (List.filter (fun (n : Topology.node) -> n.id <> best.id) candidates)
  in
  let count kinds region =
    List.length
      (List.filter
         (fun (id, k) -> List.mem k kinds && String.equal (region_of id) region)
         !placed)
  in
  let voters = count [ Raft.Voter ]
  and replicas = count [ Raft.Voter; Raft.Learner ] in
  (* The region with the fewest [count], ties broken by name. *)
  let fewest count regions =
    match List.sort compare (List.map (fun r -> (count r, r)) regions) with
    | [] -> not_enough ()
    | (_, r) :: _ -> r
  in
  let short_of_voters () =
    List.length (List.filter (fun (_, k) -> k = Raft.Voter) !placed)
    < zone.num_voters
  in
  let home =
    match (zone.lease_preferences, zone.voter_constraints) with
    | home :: _, _ | [], (home, _) :: _ -> home
    | [], [] -> List.hd regions
  in
  List.iter
    (fun (region, count) -> pick Raft.Voter ~count (free region))
    zone.voter_constraints;
  List.iter
    (fun region ->
      if short_of_voters () && voters region = 0 && free region <> [] then
        pick Raft.Voter ~count:1 (free region))
    (Latency.sort_by_proximity latency home regions);
  while short_of_voters () do
    pick Raft.Voter ~count:1
      (free (fewest voters (List.filter (fun r -> free r <> []) regions)))
  done;
  List.iter
    (fun (region, count) ->
      pick Raft.Learner ~count:(count - replicas region) (free region))
    zone.constraints;
  while List.length !placed < zone.num_replicas do
    pick Raft.Learner ~count:1
      (match free (fewest replicas regions) with
      | [] -> untaken (Array.to_list (Topology.nodes topology))
      | candidates -> candidates)
  done;
  !placed

(* ------------------------------------------------------------------ *)
(* Rebalancing *)

(* Score a whole placement; lower is better. Lexicographic over
   (constraint violations, diversity penalty, total load): the rebalancer
   never trades a constraint for load. Dead replicas count as violations so
   the pass replaces them. The diversity penalty is pairwise over replicas
   and follows the locality hierarchy — a zone shared by two replicas costs
   more than a merely shared region. *)
let placement_score ~topology ~live ~load ~zone placement =
  let open Zoneconfig in
  let voters = List.filter (fun (_, k) -> k = Raft.Voter) placement in
  let in_region region (id, _) =
    String.equal (Topology.region_of topology id) region
  in
  let missing want have = max 0 (want - have) in
  let violations =
    List.fold_left
      (fun acc (region, count) ->
        acc + missing count (List.length (List.filter (in_region region) voters)))
      0 zone.voter_constraints
    + List.fold_left
        (fun acc (region, count) ->
          acc
          + missing count (List.length (List.filter (in_region region) placement)))
        0 zone.constraints
    + List.length (List.filter (fun (id, _) -> not (live id)) placement)
  in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  let diversity =
    List.fold_left
      (fun acc ((a, _), (b, _)) ->
        let ra = Topology.region_of topology a
        and rb = Topology.region_of topology b in
        if not (String.equal ra rb) then acc
        else if
          String.equal (Topology.zone_of topology a) (Topology.zone_of topology b)
        then acc + 3
        else acc + 1)
      0 (pairs placement)
  in
  let total_load = List.fold_left (fun acc (id, _) -> acc + load id) 0 placement in
  (violations, diversity, total_load)

type move = {
  victim : Topology.node_id;
  replacement : Topology.node_id;
  kind : Raft.peer_kind;
}

let rebalance_move ~topology ~live ~load ~zone placement =
  let current = placement_score ~topology ~live ~load ~zone placement in
  let nodes = Array.to_list (Topology.nodes topology) in
  let best = ref None in
  List.iter
    (fun (victim, kind) ->
      List.iter
        (fun (n : Topology.node) ->
          if live n.id && not (List.mem_assoc n.id placement) then begin
            let candidate =
              List.map
                (fun (id, k) -> if id = victim then (n.id, k) else (id, k))
                placement
            in
            let s = placement_score ~topology ~live ~load ~zone candidate in
            let better =
              match !best with
              | None -> s < current
              | Some (bs, _) -> s < bs
            in
            if better then
              best := Some (s, { victim; replacement = n.id; kind })
          end)
        nodes)
    placement;
  Option.map snd !best

let preferred_leaseholder ~topology ~live ~zone placement =
  let voters = List.filter (fun (_, k) -> k = Raft.Voter) placement in
  let in_region region =
    List.find_opt
      (fun (id, _) ->
        String.equal (Topology.region_of topology id) region && live id)
      voters
  in
  let rec by_preference = function
    | [] -> List.find_opt (fun (id, _) -> live id) voters
    | region :: rest -> (
        match in_region region with Some v -> Some v | None -> by_preference rest)
  in
  Option.map fst (by_preference zone.Zoneconfig.lease_preferences)

(* Position of a node's region in the zone's lease-preference list;
   [max_int] when it sits in no preferred region. Lower ranks strictly
   dominate load below, mirroring [placement_score]'s lexicographic
   (violations, diversity, load) philosophy. *)
let lease_preference_rank ~topology ~zone id =
  let region = Topology.region_of topology id in
  let rec find i = function
    | [] -> max_int
    | r :: rest -> if String.equal r region then i else find (i + 1) rest
  in
  find 0 zone.Zoneconfig.lease_preferences

let preferred_leaseholder_by_load ~topology ~live ~load ~zone placement =
  let voters =
    List.filter (fun (id, k) -> k = Raft.Voter && live id) placement
  in
  let score id = (lease_preference_rank ~topology ~zone id, load id, id) in
  List.fold_left
    (fun best (id, _) ->
      match best with
      | None -> Some id
      | Some b -> if score id < score b then Some id else best)
    None voters

let satisfies ~topology ~zone placement =
  let violations, _, _ =
    placement_score ~topology ~live:(fun _ -> true) ~load:(fun _ -> 0) ~zone
      placement
  in
  violations = 0
  && List.length placement = zone.Zoneconfig.num_replicas
  && List.length (List.filter (fun (_, k) -> k = Raft.Voter) placement)
     = zone.num_voters
