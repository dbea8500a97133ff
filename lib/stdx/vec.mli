(** Growable arrays (OCaml 5.1 lacks [Dynarray]). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
(** @raise Invalid_argument if out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val last : 'a t -> 'a option
val truncate : 'a t -> int -> unit
(** [truncate t n] keeps the first [n] elements. *)

val clear : 'a t -> unit
val to_list : 'a t -> 'a list
val sub_list : 'a t -> pos:int -> 'a list
(** Elements from [pos] (inclusive) to the end. *)

val iter : ('a -> unit) -> 'a t -> unit
