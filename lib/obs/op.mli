(** One operation's context: the trace span its sub-operations parent
    under, and the {!Phase} cells its simulated time and WAN round trips
    are charged to. Three rules charge each µs at most once, so a flushed
    operation's phases sum to at most its end-to-end time:

    - {b Fork and join.} A sub-operation runs on a branch with its own
      cells ({!fork}); of branches that ran concurrently, {!join} charges
      the parent only the one that finished last (phases and WAN count).
    - {b A routed RPC is a one-branch fork}, joined by {!join_rpc}.
    - {b The outermost scope wins.} {!scope} charges its whole elapsed time
      to one phase; what runs inside keeps only its WAN count.

    They are bookkeeping on the trace recorder's clock: they schedule,
    spawn and draw nothing. *)

type t

val nil : t
(** No span and no cells: every operation on it is a no-op (a child of
    [nil] opens a root span when tracing is on). *)

val make : Trace.t -> t
(** A fresh operation with its own cells and no span, started now. *)

val span : t -> Trace.span

val child : Trace.t -> t -> ?node:int -> ?range:int -> ?txn:int -> string -> t
(** Open a span under [op]'s; the child charges [op]'s cells. *)

val add : t -> Phase.phase -> int -> unit
(** Charge µs of a leaf wait (a sleep) to the phase. *)

val add_wan : t -> unit
val total : t -> Phase.phase -> int
val wan_rtts : t -> int

val fork : t -> t
(** A branch with [op]'s span and its own cells, started now ([op] itself
    when it has no cells). A branch nobody joins charges nothing. *)

val stop : t -> unit
(** Mark the branch finished now; it takes no more charges. *)

val join : t -> t -> unit
(** [join op b] stops [b] and charges [op] its cells in place of the
    branches joined before that ran while [b] did — unless one of those
    finished after [b], and then [b] counts for nothing. *)

val join_rpc : t -> t -> unit
(** [join_rpc op server] charges [server], the fork a routed RPC was
    served under, the rest of its time as {!Phase.Routing} and joins it. *)

val scope : t -> Phase.phase -> (t -> 'a) -> 'a
(** Run [f] under a fork and join it as its elapsed time in the phase plus
    its WAN count; nothing if [f] raises. *)

val annotate : t -> unit
(** Attach the non-zero phase totals and WAN count to [op]'s span. *)

val flush : t -> Phase.sink -> unit
(** {!Phase.flush} the cells, with the time since {!make} as end to end. *)
