(* The RTT in microseconds between two distinct regions; symmetric. *)
type t = string -> string -> int

let intra_zone_rtt = 300
let intra_region_rtt = 600
let rtt t r1 r2 = if String.equal r1 r2 then intra_region_rtt else t r1 r2

let one_way t r1 r2 = rtt t r1 r2 / 2

(* ------------------------------------------------------------------ *)
(* Table 1 of the paper: measured GCP inter-region RTTs, milliseconds. *)

let table1_regions =
  [
    "us-east1";
    "us-west1";
    "europe-west2";
    "asia-northeast1";
    "australia-southeast1";
  ]

let table1_ms =
  [
    ("us-east1", "us-west1", 63);
    ("us-east1", "europe-west2", 87);
    ("us-east1", "asia-northeast1", 155);
    ("us-east1", "australia-southeast1", 198);
    ("us-west1", "europe-west2", 132);
    ("us-west1", "asia-northeast1", 90);
    ("us-west1", "australia-southeast1", 156);
    ("europe-west2", "asia-northeast1", 222);
    ("europe-west2", "australia-southeast1", 274);
    ("asia-northeast1", "australia-southeast1", 113);
  ]

let table1 =
  let find r1 r2 =
    let matches (a, b, _) =
      (String.equal a r1 && String.equal b r2)
      || (String.equal a r2 && String.equal b r1)
    in
    match List.find_opt matches table1_ms with
    | Some (_, _, ms) -> ms * 1000
    | None ->
        invalid_arg
          (Printf.sprintf "Latency.table1: unknown region pair %s/%s" r1 r2)
  in
  find

(* ------------------------------------------------------------------ *)
(* GCP regions with approximate datacenter coordinates (lat, lon).     *)

let gcp_locations =
  [
    ("us-east1", 33.2, -80.0);
    ("us-east4", 39.0, -77.5);
    ("us-central1", 41.2, -95.9);
    ("us-west1", 45.6, -121.2);
    ("us-west2", 34.0, -118.2);
    ("us-west3", 40.8, -111.9);
    ("us-west4", 36.2, -115.1);
    ("northamerica-northeast1", 45.5, -73.6);
    ("northamerica-northeast2", 43.7, -79.4);
    ("southamerica-east1", -23.5, -46.6);
    ("europe-west1", 50.4, 3.8);
    ("europe-west2", 51.5, -0.1);
    ("europe-west3", 50.1, 8.7);
    ("europe-west4", 53.4, 6.8);
    ("europe-west6", 47.4, 8.5);
    ("europe-north1", 60.5, 27.2);
    ("europe-central2", 52.2, 21.0);
    ("asia-east1", 24.1, 120.5);
    ("asia-east2", 22.3, 114.2);
    ("asia-northeast1", 35.7, 139.7);
    ("asia-northeast2", 34.7, 135.5);
    ("asia-northeast3", 37.6, 127.0);
    ("asia-south1", 19.1, 72.9);
    ("asia-southeast1", 1.4, 103.8);
    ("asia-southeast2", -6.2, 106.8);
    ("australia-southeast1", -33.9, 151.2);
    ("australia-southeast2", -37.8, 145.0);
  ]

let gcp_region_names = List.map (fun (r, _, _) -> r) gcp_locations

let deg_to_rad d = d *. Float.pi /. 180.0

let haversine_km (lat1, lon1) (lat2, lon2) =
  let earth_radius_km = 6371.0 in
  let dlat = deg_to_rad (lat2 -. lat1) and dlon = deg_to_rad (lon2 -. lon1) in
  let a =
    (sin (dlat /. 2.0) ** 2.0)
    +. (cos (deg_to_rad lat1) *. cos (deg_to_rad lat2) *. (sin (dlon /. 2.0) ** 2.0))
  in
  2.0 *. earth_radius_km *. atan2 (sqrt a) (sqrt (1.0 -. a))

(* Fiber paths are not great circles; ~1.45 ms of RTT per 100 km plus a fixed
   5 ms floor approximates the public GCP measurements reasonably well. *)
let distance_rtt_micros km = int_of_float ((km *. 14.5) +. 5_000.0)

let gcp =
  let loc r =
    match List.find_opt (fun (name, _, _) -> String.equal name r) gcp_locations with
    | Some (_, lat, lon) -> (lat, lon)
    | None -> invalid_arg (Printf.sprintf "Latency.gcp: unknown region %s" r)
  in
  fun r1 r2 -> distance_rtt_micros (haversine_km (loc r1) (loc r2))

let sort_by_proximity t home regions =
  let key r = if String.equal r home then -1 else rtt t home r in
  List.stable_sort (fun a b -> Int.compare (key a) (key b)) regions

let pp_matrix t regions ppf () =
  let width = 22 in
  Format.fprintf ppf "%-*s" width "";
  List.iter (fun r -> Format.fprintf ppf "%8s" (String.sub r 0 (Stdlib.min 7 (String.length r)))) regions;
  Format.fprintf ppf "@,";
  List.iteri
    (fun i r1 ->
      Format.fprintf ppf "%-*s" width r1;
      List.iteri
        (fun j r2 ->
          if j <= i then Format.fprintf ppf "%8s" (if i = j then "-" else "")
          else Format.fprintf ppf "%8d" (rtt t r1 r2 / 1000))
        regions;
      Format.fprintf ppf "@,")
    regions
