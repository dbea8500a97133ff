type node_id = int
type node = { id : node_id; region : string; zone : string }
type t = { nodes : node array; regions : string list }

let create localities =
  let nodes =
    Array.of_list
      (List.mapi (fun id (region, zone) -> { id; region; zone }) localities)
  in
  let regions =
    Array.fold_left
      (fun acc n -> if List.mem n.region acc then acc else n.region :: acc)
      [] nodes
    |> List.rev
  in
  { nodes; regions }

let zone_letter i = String.make 1 (Char.chr (Char.code 'a' + i))

let symmetric ~regions ~nodes_per_region =
  let localities =
    List.concat_map
      (fun r ->
        List.init nodes_per_region (fun i -> (r, r ^ "-" ^ zone_letter i)))
      regions
  in
  create localities

let num_nodes t = Array.length t.nodes

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Topology.node: unknown node %d" id);
  t.nodes.(id)

let nodes t = t.nodes
let regions t = t.regions

let nodes_in_region t region =
  Array.to_list t.nodes |> List.filter (fun n -> String.equal n.region region)

let gateway t ~region ?(index = 0) () =
  match nodes_in_region t region with
  | [] -> invalid_arg (Printf.sprintf "Topology.gateway: no nodes in %s" region)
  | nodes -> (List.nth nodes (index mod List.length nodes)).id

let zones_in_region t region =
  nodes_in_region t region
  |> List.fold_left
       (fun acc n -> if List.mem n.zone acc then acc else n.zone :: acc)
       []
  |> List.rev

let nodes_in_zone t region zone =
  nodes_in_region t region |> List.filter (fun n -> String.equal n.zone zone)

let region_of t id = (node t id).region
let zone_of t id = (node t id).zone
