(** Simulated processes: direct-style coroutines over the event loop.

    A process is an ordinary OCaml function executed under an effect handler
    that interprets blocking operations ({!await}, {!sleep}) as event-loop
    suspensions. Protocol code (Raft, transaction coordination, ...) is
    written in direct style — [let reply = Proc.await reply_slot in ...] —
    instead of as callback state machines.

    Blocking operations must only be performed from inside a process started
    with {!spawn}, {!spawn_now}, {!async} or {!run_main}. *)

val spawn : Sim.t -> (unit -> unit) -> unit
(** Start a process; it begins running at the current simulated instant
    (after already-queued events for that instant). *)

val spawn_now : Sim.t -> (unit -> unit) -> unit
(** Like {!spawn} but runs the process inside the current event, up to its
    first suspension, before returning. For a process started by an event
    that already fires at the right moment, such as a {!Sim.timer}: {!spawn}
    would queue one more event for the same instant. *)

val async : Sim.t -> (unit -> 'a) -> 'a Ivar.t
(** Like {!spawn} but the process's result fills the returned ivar. An
    exception in the child escapes into the event loop; prefer
    {!async_catch} when the child can fail. *)

val async_catch : Sim.t -> (unit -> 'a) -> ('a, exn) result Ivar.t
(** Like {!async} but captures exceptions so the parent can re-raise them
    in its own context with {!await_catch}. *)

val await_catch : ('a, exn) result Ivar.t -> 'a
(** Await an {!async_catch} result, re-raising the child's exception. *)

val await : 'a Ivar.t -> 'a
(** Block until the ivar is filled and return its value. *)

val await_timeout : Sim.t -> 'a Ivar.t -> timeout:int -> 'a option
(** Block until the ivar fills or [timeout] microseconds elapse. The timeout
    is a {!Sim.timer} cancelled when the ivar fills, so an answered wait
    leaves nothing in the event queue. *)

val await_all : 'a Ivar.t list -> 'a list
(** Block until every ivar is filled; results in input order. *)

val await_any : 'a Ivar.t list -> 'a
(** Block until the first ivar fills (earliest fill wins deterministically). *)

val sleep : Sim.t -> int -> unit
(** Suspend for the given number of simulated microseconds. *)

val run_main : Sim.t -> (unit -> 'a) -> 'a
(** [run_main sim f] spawns [f], drains the whole event queue, and returns
    [f]'s result.
    @raise Failure if the queue drains before [f] completes (deadlock). *)
