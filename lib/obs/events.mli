(** Structured cluster event log: the queryable record of the cluster's
    discrete life events (splits, merges, rebalances, lease movement,
    wound-wait aborts, abandoned-txn cleanup, fault injection), each stamped
    with simulated time and scoped to a node/range/transaction.

    Where the {!Trace} layer answers "where did this request's time go",
    this log answers "what did the cluster do and when" — and unlike trace
    events it is always on, typed, and cheap to query. Events are appended
    in simulated-time order, so the timeline and JSON renderings are
    deterministic per seed. *)

type kind =
  | Split
  | Merge
  | Rebalance
  | Lease_transfer
  | Lease_acquired
  | Wound
  | Abandoned_cleanup
  | Fault
  | Heal
  | Split_queued  (** autopilot split queue decided to split a range *)
  | Merge_queued  (** autopilot merge queue decided to subsume a cold pair *)
  | Lease_moved  (** autopilot moved a lease toward load ([reason] attr) *)
  | Queue_skipped
      (** autopilot suppressed an otherwise-eligible action ([reason] attr,
          e.g. [cooldown]) — the hysteresis that prevents ping-pong thrash *)
  | Txn_staged
      (** a parallel commit wrote its STAGING record at the anchor range
          ([inflight] attr counts the declared in-flight writes) *)
  | Txn_recovered
      (** commit-status recovery finalized someone's STAGING record
          ([result] attr: [committed] or [aborted]) *)

val kind_to_string : kind -> string

type event = {
  ts : int;  (** simulated microseconds *)
  kind : kind;
  node : int option;
  range : int option;
  txn : int option;
  attrs : (string * string) list;
}

type t

val create : now:(unit -> int) -> unit -> t

val log :
  t ->
  ?node:int ->
  ?range:int ->
  ?txn:int ->
  ?attrs:(string * string) list ->
  kind ->
  unit

val all : t -> event list
(** Every event, in recording (= simulated-time) order. *)

val length : t -> int
val of_kind : t -> kind -> event list
val count : t -> kind -> int
val clear : t -> unit

val pp_timeline : Format.formatter -> t -> unit
(** One line per event: time, kind, scope, attributes. *)

val to_json : t -> string
(** Deterministic JSON array in recording order. *)
