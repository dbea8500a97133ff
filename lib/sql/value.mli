(** SQL values and row encoding.

    Rows are stored in the KV layer as encoded strings; keys use an
    order-preserving encoding so that range scans over encoded keys agree
    with SQL ordering. *)

type t =
  | V_null
  | V_int of int
  | V_string of string
  | V_uuid of string
  | V_region of string  (** a [crdb_internal_region] enum value (§2.1) *)

val equal : t -> t -> bool
val to_display : t -> string

val zero_pad : int -> int -> string
(** [zero_pad width n] is [Printf.sprintf "%0*d" width n], for [n > min_int]. *)

val encode_key_part : t -> string
(** Order-preserving, [/]-free encoding for use inside KV keys. *)

val encode_row : t list -> string
val decode_row : string -> t list
(** @raise Invalid_argument on malformed input. *)

val gen_uuid : Crdb_stdx.Rng.t -> t
(** [gen_random_uuid()] (§4.1, option 1). *)
