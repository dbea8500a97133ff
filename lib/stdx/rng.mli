(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic component of the simulator draws from an explicit [Rng.t]
    so that whole-cluster runs are reproducible from a single seed. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] is a new independent generator derived from [t]'s stream, used
    to give subsystems their own streams without coupling their draws. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. @raise Invalid_argument on empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

(** YCSB-style scrambled Zipfian distribution over [\[0, n)]. *)
module Zipf : sig
  type dist

  val create : n:int -> unit -> dist
  (** Uses the YCSB default skew, [theta = 0.99]. *)

  val sample : dist -> t -> int

  val scrambled_sample : dist -> t -> int
  (** Zipfian rank hashed over the key space, as in YCSB's
      ScrambledZipfianGenerator: hot keys are spread across the space. *)
end
