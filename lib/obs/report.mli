(** Deterministic end-of-run introspection report.

    Renders, purely from an {!Obs.t}: the per-phase latency table per op
    class (from the [phase.<cls>.<phase>] histograms), measured WAN round
    trips per class against the §6 model's predictions (from
    [wan_rtts.<cls>]), the hottest ranges by sliding-window QPS (from the
    [kv.range.*] timeseries), and the structured event log. Every source
    accumulates deterministically in simulated time, so the rendering is
    byte-identical across runs of the same seed — the report doubles as a
    regression artifact, like the Chrome trace export. *)

val qps_series : string
(** ["kv.range.qps"] — the per-range QPS series name the KV layer feeds. *)

val write_bytes_series : string
(** ["kv.range.write_bytes"]. *)

val latency_series : string
(** ["kv.range.latency"] — per-range request latency samples (micros). *)

val pp : ?timeline:bool -> Format.formatter -> Obs.t -> unit
(** The hottest-ranges table shows the top 5 ranges. [timeline] (default
    true) appends the full event timeline. *)

val to_string : Obs.t -> string
(** [pp] with the timeline. *)

val pp_phase_table : Format.formatter -> Metrics.t -> unit
(** Per op class, one row per phase with a nonzero sample, then
    [unattributed] when it is nonzero. *)

val pp_wan_table :
  ?predicted:(string * int) list -> Format.formatter -> Metrics.t -> unit
(** [predicted] maps op-class names to the model's WAN round-trip count; a
    class whose p50 equals its prediction renders [ok], otherwise
    [MISMATCH]. *)
