(** Hybrid logical clock timestamps.

    A timestamp is a pair of a wall-clock component in microseconds and a
    logical counter used to break ties between events that share a wall time.
    This is the MVCC version domain of the whole system: every value, intent,
    closed timestamp and transaction read/write timestamp is one of these. *)

type t = private { wall : int; logical : int }

val make : wall:int -> logical:int -> t
val of_wall : int -> t
(** [of_wall w] is the timestamp [(w, 0)]. *)

val zero : t
val max_value : t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val max : t -> t -> t
val min : t -> t -> t

val next : t -> t
(** [next t] is the smallest timestamp strictly greater than [t]. *)

val prev : t -> t
(** [prev t] is the largest timestamp strictly smaller than [t].
    @raise Invalid_argument on [zero]. *)

val add_wall : t -> int -> t
(** [add_wall t d] advances the wall component by [d] microseconds and resets
    the logical counter, i.e. [(t.wall + d, 0)]. Used to build uncertainty
    bounds and closed-timestamp targets. *)

val wall : t -> int
val logical : t -> int

val to_string : t -> string
