module Hist = Crdb_stats.Hist

(* End-of-run introspection report, rendered purely from the observability
   context: every number below comes from metrics/timeseries/events that
   accumulate deterministically in simulated time, so the rendering is
   byte-identical across runs of the same seed. *)

(* Op classes are discovered from the metric registry: every flushed class
   registers [wan_rtts.<cls>] along with its [phase.<cls>.*] histograms. *)
let classes metrics =
  List.filter_map
    (fun n ->
      if String.starts_with ~prefix:"wan_rtts." n then
        Some (String.sub n 9 (String.length n - 9))
      else None)
    (Metrics.names metrics)
  |> List.sort_uniq String.compare

let ms v = float_of_int v /. 1000.0

let pp_phase_table ppf metrics =
  let classes = classes metrics in
  if classes = [] then Format.fprintf ppf "(no phase samples)@."
  else
    List.iter
      (fun cls ->
        Format.fprintf ppf "%s:@." cls;
        List.iter
          (fun name ->
            let h = Metrics.merged_hist metrics ("phase." ^ cls ^ "." ^ name) in
            if (not (Hist.is_empty h)) && Hist.max_value h > 0 then
              Format.fprintf ppf
                "  %-14s n=%-6d mean=%8.1fms  p50=%8.1fms  p99=%8.1fms  \
                 max=%8.1fms@."
                name (Hist.count h)
                (Hist.mean h /. 1000.0)
                (ms (Hist.p50 h)) (ms (Hist.p99 h))
                (ms (Hist.max_value h)))
          (List.map Phase.name Phase.all_phases @ [ "unattributed" ]))
      classes

let pp_wan_table ?(predicted = []) ppf metrics =
  let classes = classes metrics in
  if classes = [] then Format.fprintf ppf "(no WAN round-trip samples)@."
  else
    List.iter
      (fun cls ->
        let h = Metrics.merged_hist metrics ("wan_rtts." ^ cls) in
        if not (Hist.is_empty h) then begin
          let measured = Hist.p50 h in
          Format.fprintf ppf "%-24s n=%-6d measured(p50)=%d  mean=%.2f" cls
            (Hist.count h) measured (Hist.mean h);
          (match List.assoc_opt cls predicted with
          | Some p ->
              let verdict = if measured = p then "ok" else "MISMATCH" in
              Format.fprintf ppf "  predicted=%d  [%s]" p verdict
          | None -> ());
          Format.fprintf ppf "@."
        end)
      classes

(* Timeseries names the KV layer feeds (see docs/METRICS.md). *)
let qps_series = "kv.range.qps"
let write_bytes_series = "kv.range.write_bytes"
let latency_series = "kv.range.latency"

(* Rows in the hottest-ranges table. *)
let top = 5

let pp_hot_ranges ppf ts =
  let ranges = Timeseries.ranges_of ts qps_series in
  let scored =
    List.map (fun r -> (r, Timeseries.rate ts ~range:r qps_series)) ranges
    |> List.sort (fun (r1, q1) (r2, q2) ->
           match compare q2 q1 with 0 -> Int.compare r1 r2 | c -> c)
  in
  match List.filteri (fun i _ -> i < top) scored with
  | [] -> Format.fprintf ppf "(no per-range load recorded)@."
  | hot ->
      List.iter
        (fun (r, qps) ->
          let wb = Timeseries.sum_rate ts ~range:r write_bytes_series in
          let p99 = Timeseries.percentile ts ~range:r latency_series 99.0 in
          Format.fprintf ppf "range %-4d qps=%8.2f  write-bytes/s=%10.1f" r
            qps wb;
          (match p99 with
          | Some v -> Format.fprintf ppf "  p99=%8.1fms" (ms v)
          | None -> ());
          Format.fprintf ppf "@.")
        hot

let pp_event_summary ppf events =
  let kinds =
    [ Events.Split; Events.Merge; Events.Rebalance; Events.Lease_transfer;
      Events.Lease_acquired; Events.Wound; Events.Abandoned_cleanup;
      Events.Fault; Events.Heal; Events.Split_queued; Events.Merge_queued;
      Events.Lease_moved; Events.Queue_skipped ]
  in
  let nonzero =
    List.filter_map
      (fun k ->
        let n = Events.count events k in
        if n > 0 then Some (k, n) else None)
      kinds
  in
  if nonzero = [] then Format.fprintf ppf "(none)@."
  else
    List.iter
      (fun (k, n) ->
        Format.fprintf ppf "%-18s %d@." (Events.kind_to_string k) n)
      nonzero

let pp ?(timeline = true) ppf obs =
  Format.fprintf ppf "== Phase latency by op class ==@.";
  pp_phase_table ppf (Obs.metrics obs);
  Format.fprintf ppf "@.== WAN round trips by op class (measured vs \u{00a7}6 model) ==@.";
  pp_wan_table ppf (Obs.metrics obs);
  Format.fprintf ppf "@.== Hottest ranges (sliding-window) ==@.";
  pp_hot_ranges ppf (Obs.timeseries obs);
  Format.fprintf ppf "@.== Cluster events ==@.";
  pp_event_summary ppf (Obs.events obs);
  if timeline then begin
    Format.fprintf ppf "@.== Event timeline ==@.";
    Events.pp_timeline ppf (Obs.events obs)
  end

let to_string obs = Format.asprintf "%a" (fun ppf () -> pp ppf obs) ()
