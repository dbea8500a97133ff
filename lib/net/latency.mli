(** Inter-region network latency profiles.

    A profile gives the round-trip time between any two regions; every
    profile shares the (much smaller) intra-zone and intra-region RTTs. The five-region profile
    used throughout the paper's §7.1–7.3 experiments is {!table1}, embedding
    the paper's measured GCP matrix verbatim. Larger clusters (§7.4) use
    {!gcp}, which derives RTTs from great-circle distances between the real
    GCP region locations. *)

type t

val rtt : t -> string -> string -> int
(** Round-trip time in microseconds between two regions (intra-region RTT if
    equal). *)

val one_way : t -> string -> string -> int

val intra_zone_rtt : int
(** 300 µs. *)

val intra_region_rtt : int
(** 600 µs. *)

val table1 : t
(** The paper's Table 1: measured GCP inter-region RTTs for
    {!table1_regions}. *)

val table1_regions : string list
(** [us-east1; us-west1; europe-west2; asia-northeast1;
    australia-southeast1] *)

val gcp : t
(** Distance-derived RTTs between any two of {!gcp_region_names}. *)

val gcp_region_names : string list
(** 27 GCP regions with known locations, ordered roughly west-to-east within
    each continent; used to build the 4/10/26-region clusters of §7.4. *)

val sort_by_proximity : t -> string -> string list -> string list
(** [sort_by_proximity t home regions] sorts [regions] by RTT from [home]
    (closest first, [home] itself first if present). *)

val pp_matrix : t -> string list -> Format.formatter -> unit -> unit
(** Render the RTT matrix for the given regions in the style of Table 1. *)
