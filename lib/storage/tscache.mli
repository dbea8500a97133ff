(** Leaseholder read-timestamp cache.

    Records the maximum timestamp at which each key has been read so that
    later writes can be pushed above it, preventing a write from invalidating
    a read that already completed (§6.1). A low-water mark summarizes evicted
    (or never-recorded) entries; it also rises when a lease changes hands.

    Entries are tagged with the reading transaction so a transaction's own
    reads never push its own writes (as in CRDB): {!max_read} takes the
    writing transaction and excludes entries it owns. *)

type ts = Crdb_hlc.Timestamp.t
type t

val create : low_water:ts -> t

val bump_low_water : t -> ts -> unit
(** Raise the low-water mark (monotonic; lower values are ignored). *)

val max_read : t -> for_txn:int option -> key:string -> ts
(** Max over the low-water mark and recorded reads of the key by {e other}
    transactions ([for_txn = None] excludes nothing). *)

val record_read : t -> txn:int option -> key:string -> ts:ts -> unit

val record_read_span :
  t -> txn:int option -> start_key:string -> end_key:string -> ts:ts -> unit
(** Record a scan over [\[start_key, end_key)]. *)

val max_read_span : t -> for_txn:int option -> start_key:string -> end_key:string -> ts

val prune : t -> closed:ts -> unit
(** Drop every key whose reads are all at or below [closed]. Exact for a
    range whose writes all land above its closed timestamp [closed]: such a
    write is pushed above [closed] already, so those reads could only push
    it to where it already is. Also exact for {!max_read_span} when its
    result only bounds writes above [closed] (a split's right range starts
    from the left's closed timestamp, a merge keeps the greater). *)

val prune_due : t -> bool
(** Whether the point entries have doubled since the last {!prune} (or
    reached 64 before the first). *)
