(** Deterministic discrete-event simulator.

    Simulated time is an integer number of microseconds starting at 0. Events
    scheduled for the same instant fire in scheduling order (FIFO), which,
    together with the explicit {!Crdb_stdx.Rng} streams, makes every run
    reproducible from its seed.

    The queue is a 4-ary heap keyed by [(time, seq)], with the keys stored
    inline in an int array; scheduling, stepping and cancelling each cost
    O(log n) in the number of queued events. *)

type t

val create : unit -> t

val now : t -> int
(** Current simulated time in microseconds. *)

val schedule : t -> after:int -> (unit -> unit) -> unit
(** [schedule t ~after f] runs [f] at [now t + max 0 after]. *)

(** Cancellable timers. *)
type timer

val timer : t -> after:int -> (unit -> unit) -> timer
(** [timer t ~after f] is [schedule t ~after f] that can be cancelled. A
    cancelled timer never runs and leaves every other event's order as it
    was: apart from {!pending}, arming a timer and cancelling it before it
    fires is invisible to the rest of the run. *)

val cancel : timer -> unit
(** Remove the timer from the queue at once, in [O(log n)]. Cancelling an
    already-fired or already-cancelled timer is a no-op. *)

val timer_pending : timer -> bool

val step : t -> bool
(** Execute the next event. [false] if the queue was empty. *)

val run : ?until:int -> t -> unit
(** Drain the event queue; if [until] is given, stop (without executing them)
    at the first event scheduled strictly after [until], leaving it queued,
    and advance [now] to [until]. *)

val pending : t -> int
(** Number of queued events. Every queued event will fire: a cancelled timer
    leaves the queue when it is cancelled. *)
