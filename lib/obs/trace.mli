(** Deterministic hierarchical tracing keyed to simulated time.

    Spans are recorded at the resolution of the supplied [now] clock (the
    discrete-event simulator's microsecond counter), so two runs of the same
    seed produce byte-identical exports — traces double as regression
    artifacts. Recording is off by default and costs one branch
    per call site when disabled. The trace holds spans only: discrete cluster
    events (splits, lease moves, faults) live in {!Events}. *)

type t

type span
(** A handle for an in-progress span. Spans created while tracing is
    disabled are the shared {!nil} and every operation on them is a no-op. *)

val create : now:(unit -> int) -> unit -> t
(** [create ~now ()] makes an empty, disabled trace recorder; [now] is
    expected to return simulated microseconds. *)

val enable : t -> unit

val now : t -> int
(** The recorder's clock: simulated µs. *)

val nil : span
(** The inert span: safe to pass as a parent, never recorded. *)

val span :
  t -> ?parent:span -> ?node:int -> ?range:int -> ?txn:int -> string -> span
(** Open a span starting now. [node]/[range]/[txn] scope the span to a
    simulated node, range, or transaction and drive the export layout. *)

val finish : t -> span -> unit
(** Close the span and record it (duration = now - start). Idempotent. *)

val annotate : span -> string -> string -> unit
(** Attach a key/value attribute to an open span. *)

val annotate_int : span -> string -> int -> unit
(** [annotate] with an integer value, formatted only for a live span. *)

val span_id : span -> int option
val clear : t -> unit
val num_records : t -> int

val to_chrome_json : t -> string
(** Chrome trace-event JSON ([{"traceEvents": [...]}]); load the file in
    about://tracing or {{:https://ui.perfetto.dev}Perfetto}. Nodes appear as
    processes (pid), transactions as threads (tid). *)

val json_escape : string -> string
(** Escape a string for the body of a JSON string literal: quote, backslash,
    newline and tab get their short escapes, other control characters
    [\u00XX]. Shared with {!Events.to_json} and the bench's results writer. *)

val pp_tree : Format.formatter -> t -> unit
(** Compact indented text rendering of the span forest. *)
