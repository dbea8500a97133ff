(** Cluster topology: nodes tagged with a region and a zone.

    Mirrors CRDB's [--locality=region=...,zone=...] startup flags (§2.1): a
    node's locality is just a pair of strings, and the cluster's regions are
    the union of the node regions. *)

type node_id = int

type node = { id : node_id; region : string; zone : string }

type t

val create : (string * string) list -> t
(** [create localities] builds a cluster with one node per [(region, zone)]
    pair, with ids assigned in list order starting at 0. *)

val symmetric : regions:string list -> nodes_per_region:int -> t
(** [symmetric ~regions ~nodes_per_region] places each node of a region in
    its own zone ["<region>-<letter>"] — the paper's standard deployment of
    3 nodes across 3 zones per region. *)

val num_nodes : t -> int
val node : t -> node_id -> node
val nodes : t -> node array
val regions : t -> string list
(** Distinct regions in first-appearance order. *)

val zones_in_region : t -> string -> string list
val nodes_in_region : t -> string -> node list

val gateway : t -> region:string -> ?index:int -> unit -> node_id
(** The [index]-th node (default 0, taken modulo the region's size) of a
    region, to use as a client gateway.
    @raise Invalid_argument if the region has no nodes. *)

val nodes_in_zone : t -> string -> string -> node list
val region_of : t -> node_id -> string
val zone_of : t -> node_id -> string

val pp : Format.formatter -> t -> unit
