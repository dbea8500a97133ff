module Hist = Crdb_stats.Hist

(* End-of-run introspection report, rendered purely from the observability
   context: every number below comes from metrics/timeseries/events that
   accumulate deterministically in simulated time, so the rendering is
   byte-identical across runs of the same seed. *)

let phase_prefix = "phase."
let wan_prefix = "wan_rtts."

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Op classes are discovered from the metric registry: [phase.<cls>.<phase>]
   and [wan_rtts.<cls>]. Phase names are a closed set without dots, so the
   class is everything between the prefix and the final [.<phase>]. *)
let phase_classes metrics =
  List.filter_map
    (fun n ->
      if not (starts_with ~prefix:phase_prefix n) then None
      else
        let rest =
          String.sub n (String.length phase_prefix)
            (String.length n - String.length phase_prefix)
        in
        List.find_map
          (fun p ->
            let suffix = "." ^ Phase.name p in
            if
              String.length rest > String.length suffix
              && String.sub rest
                   (String.length rest - String.length suffix)
                   (String.length suffix)
                 = suffix
            then
              Some (String.sub rest 0 (String.length rest - String.length suffix))
            else None)
          Phase.all_phases)
    (Metrics.names metrics)
  |> List.sort_uniq String.compare

let wan_classes metrics =
  List.filter_map
    (fun n ->
      if starts_with ~prefix:wan_prefix n then
        Some
          (String.sub n (String.length wan_prefix)
             (String.length n - String.length wan_prefix))
      else None)
    (Metrics.names metrics)
  |> List.sort_uniq String.compare

let ms v = float_of_int v /. 1000.0

let pp_phase_table ppf metrics =
  let classes = phase_classes metrics in
  if classes = [] then Format.fprintf ppf "(no phase samples)@."
  else
    List.iter
      (fun cls ->
        Format.fprintf ppf "%s:@." cls;
        List.iter
          (fun p ->
            let h =
              Metrics.merged_hist metrics
                (phase_prefix ^ cls ^ "." ^ Phase.name p)
            in
            if (not (Hist.is_empty h)) && Hist.max_value h > 0 then
              Format.fprintf ppf
                "  %-14s n=%-6d mean=%8.1fms  p50=%8.1fms  p99=%8.1fms  \
                 max=%8.1fms@."
                (Phase.name p) (Hist.count h)
                (Hist.mean h /. 1000.0)
                (ms (Hist.p50 h)) (ms (Hist.p99 h))
                (ms (Hist.max_value h)))
          Phase.all_phases)
      classes

let pp_wan_table ?(predicted = []) ppf metrics =
  let classes = wan_classes metrics in
  if classes = [] then Format.fprintf ppf "(no WAN round-trip samples)@."
  else
    List.iter
      (fun cls ->
        let h = Metrics.merged_hist metrics (wan_prefix ^ cls) in
        if not (Hist.is_empty h) then begin
          let measured = Hist.p50 h in
          Format.fprintf ppf "%-24s n=%-6d measured(p50)=%d  mean=%.2f" cls
            (Hist.count h) measured (Hist.mean h);
          (match List.assoc_opt cls predicted with
          | Some p ->
              let verdict =
                if abs (measured - p) <= 1 then "ok" else "MISMATCH"
              in
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
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  match take top scored with
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
