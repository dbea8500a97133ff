module Vec = Crdb_stdx.Vec

type t = { samples : int Vec.t; mutable sorted : bool }

let create () = { samples = Vec.create (); sorted = true }

let add t v =
  Vec.push t.samples v;
  t.sorted <- false

let count t = Vec.length t.samples
let is_empty t = count t = 0

let ensure_sorted t =
  if not t.sorted then begin
    Vec.sort Int.compare t.samples;
    t.sorted <- true
  end

let min_value t =
  ensure_sorted t;
  if is_empty t then 0 else Vec.get t.samples 0

let max_value t =
  ensure_sorted t;
  if is_empty t then 0 else Vec.get t.samples (count t - 1)

let mean t =
  if is_empty t then 0.0
  else begin
    let sum = ref 0.0 in
    Vec.iter (fun v -> sum := !sum +. float_of_int v) t.samples;
    !sum /. float_of_int (count t)
  end

let percentile t p =
  if is_empty t then 0
  else begin
    ensure_sorted t;
    let n = count t in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = if rank <= 0 then 0 else if rank > n then n - 1 else rank - 1 in
    Vec.get t.samples idx
  end

let p50 t = percentile t 50.0
let p90 t = percentile t 90.0
let p99 t = percentile t 99.0

let to_json t =
  Printf.sprintf
    "{\"count\":%d,\"mean\":%.1f,\"min\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"max\":%d}"
    (count t) (mean t) (min_value t) (p50 t) (p90 t) (p99 t) (max_value t)

type boxplot = {
  p25 : int;
  p50 : int;
  p75 : int;
  whisker_lo : int;
  whisker_hi : int;
}

let boxplot t =
  ensure_sorted t;
  let p25 = percentile t 25.0
  and p50 = percentile t 50.0
  and p75 = percentile t 75.0 in
  let iqr = p75 - p25 in
  let lo_bound = p25 - (3 * iqr / 2) and hi_bound = p75 + (3 * iqr / 2) in
  let n = count t in
  let whisker_lo = ref p25 and whisker_hi = ref p75 in
  for i = 0 to n - 1 do
    let v = Vec.get t.samples i in
    if v >= lo_bound && v < !whisker_lo then whisker_lo := v;
    if v <= hi_bound && v > !whisker_hi then whisker_hi := v
  done;
  { p25; p50; p75; whisker_lo = !whisker_lo; whisker_hi = !whisker_hi }

let cdf t percentiles = List.map (fun p -> (p, percentile t p)) percentiles

let merge_into ~dst src =
  Vec.iter (fun v -> add dst v) src.samples

let pp_ms ppf micros = Format.fprintf ppf "%7.1f" (float_of_int micros /. 1000.0)

let pp_row ~label ppf t =
  if is_empty t then Format.fprintf ppf "%-34s (no samples)" label
  else
    Format.fprintf ppf
      "%-34s n=%-7d mean=%a p25=%a p50=%a p75=%a p90=%a p99=%a max=%a" label
      (count t) pp_ms
      (int_of_float (mean t))
      pp_ms (percentile t 25.0) pp_ms (percentile t 50.0) pp_ms
      (percentile t 75.0) pp_ms (percentile t 90.0) pp_ms (percentile t 99.0)
      pp_ms (max_value t)
