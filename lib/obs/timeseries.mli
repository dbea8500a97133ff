(** Windowed timeseries over a fixed ring of time-aligned buckets.

    Each series — identified by [(name, range?)] — owns a ring of
    [num_buckets] buckets of [bucket_width] simulated microseconds. Samples
    land in the bucket covering the current sim time; slots are recycled in
    place as time advances, so a series holds at most
    [bucket_width * num_buckets] of history and never grows.

    Read-side queries evaluate a sliding window [\[now - window, now\]]
    ending at the current sim time: buckets fully inside the window count
    fully, the bucket straddling the window's left edge counts fractionally
    (samples are assumed uniform within a bucket), and the current partial
    bucket counts fully. All arithmetic derives from integer simulated time,
    so identical seeds produce identical snapshots — like the trace export,
    the dump is a regression artifact. *)

type t

val create :
  now:(unit -> int) -> ?bucket_width:int -> ?num_buckets:int -> unit -> t
(** [now] returns simulated microseconds. Defaults: 1 s buckets, 60 of them
    (a one-minute retained span).
    @raise Invalid_argument on non-positive width or bucket count. *)

val span : t -> int
(** Retained history: [bucket_width * num_buckets]; also the default query
    window. *)

val observe : t -> ?range:int -> string -> int -> unit
(** Add one sample with the given value to the series' current bucket,
    keeping only count and sum (cheap; no quantiles). *)

val record_sample : t -> ?range:int -> string -> int -> unit
(** Like {!observe} but additionally retains the raw sample inside the
    bucket so {!percentile} can answer over the window. *)

val window_count : t -> ?range:int -> ?window:int -> string -> float
(** Estimated number of samples inside the window (fractional because of
    the straddling bucket). *)

val window_sum : t -> ?range:int -> ?window:int -> string -> float

val rate : t -> ?range:int -> ?window:int -> string -> float
(** Samples per second over the window: [window_count / window]. This is
    the per-range QPS feed for the future autopilot queues. *)

val sum_rate : t -> ?range:int -> ?window:int -> string -> float
(** Value units per second over the window (e.g. write bytes/s). *)

val percentile : t -> ?range:int -> ?window:int -> string -> float -> int option
(** Percentile of the raw samples retained by {!record_sample} whose bucket
    intersects the window; [None] when the window holds no samples. *)

val names : t -> string list
(** Distinct series names, sorted. *)

val ranges_of : t -> string -> int list
(** The range ids that have a series under this name, sorted. *)

val to_json : t -> string
(** Deterministic snapshot: series sorted by (name, range), buckets by
    start time, each as [{start, count, sum}]. *)
