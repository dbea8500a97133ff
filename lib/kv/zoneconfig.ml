type survival = Zone | Region
type placement = Default | Restricted

type t = {
  num_voters : int;
  num_replicas : int;
  constraints : (string * int) list;
  voter_constraints : (string * int) list;
  lease_preferences : string list;
}

let derive ~regions ~home ~survival ~placement =
  if not (List.mem home regions) then
    invalid_arg (Printf.sprintf "Zoneconfig.derive: home %s not a database region" home);
  let n = List.length regions in
  let others = List.filter (fun r -> not (String.equal r home)) regions in
  match (survival, placement) with
  | Zone, Default ->
      {
        num_voters = 3;
        num_replicas = 3 + (n - 1);
        constraints = List.map (fun r -> (r, 1)) others;
        voter_constraints = [ (home, 3) ];
        lease_preferences = [ home ];
      }
  | Zone, Restricted ->
      {
        num_voters = 3;
        num_replicas = 3;
        constraints = [];
        voter_constraints = [ (home, 3) ];
        lease_preferences = [ home ];
      }
  | Region, Restricted ->
      invalid_arg
        "Zoneconfig.derive: PLACEMENT RESTRICTED cannot be combined with \
         REGION survivability"
  | Region, Default ->
      if n < 3 then
        invalid_arg
          "Zoneconfig.derive: REGION survivability requires at least 3 regions";
      let num_voters = 5 in
      let num_replicas = max (2 + (n - 1)) num_voters in
      {
        num_voters;
        num_replicas;
        (* At least one replica everywhere so stale reads are region-local. *)
        constraints = List.map (fun r -> (r, 1)) others;
        voter_constraints = [ (home, 2) ];
        lease_preferences = [ home ];
      }

let survival_to_string = function Zone -> "ZONE" | Region -> "REGION"
