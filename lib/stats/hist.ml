(* A histogram is the exact multiset of its samples, kept as (value, count)
   pairs, so its memory follows the number of distinct values and not the
   number of samples.

   [slots] is an open-addressing table with linear probing: slot [i] is
   the pair [slots.(2i)] (a value) and [slots.(2i + 1)] (its count, 0 for
   a free slot). Its slot count is a power of two and at most 3/4 of the
   slots are used. Reads sort the distinct values once into [ranked],
   each value followed by the running count up to it, and reuse it until
   the sample count [n] moves past [ranked_for]. *)
type t = {
  mutable slots : int array;
  mutable distinct : int;
  mutable n : int;
  mutable sum : int;
  mutable ranked : int array;
  mutable ranked_for : int;
}

let create () =
  { slots = [||]; distinct = 0; n = 0; sum = 0; ranked = [||]; ranked_for = 0 }

let hash v = (v * 0x2545F4914F6CDD1D) lsr 32

(* The slot holding [v], or the free slot where it belongs. *)
let rec probe slots mask v i =
  if slots.((2 * i) + 1) = 0 || slots.(2 * i) = v then i
  else probe slots mask v ((i + 1) land mask)

let rec add_count t v c =
  let slots = t.slots in
  let mask = (Array.length slots / 2) - 1 in
  let i = if mask < 0 then -1 else probe slots mask v (hash v land mask) in
  if i >= 0 && slots.((2 * i) + 1) > 0 then
    slots.((2 * i) + 1) <- slots.((2 * i) + 1) + c
  else if (t.distinct + 1) * 4 > (mask + 1) * 3 then begin
    grow t;
    add_count t v c
  end
  else begin
    slots.(2 * i) <- v;
    slots.((2 * i) + 1) <- c;
    t.distinct <- t.distinct + 1
  end

and grow t =
  let old = t.slots in
  t.slots <- Array.make (max 16 (2 * Array.length old)) 0;
  t.distinct <- 0;
  for i = 0 to (Array.length old / 2) - 1 do
    let c = old.((2 * i) + 1) in
    if c > 0 then add_count t old.(2 * i) c
  done

let add t v =
  add_count t v 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v

let count t = t.n
let is_empty t = t.n = 0

let ranked t =
  if t.ranked_for <> t.n then begin
    let values = Array.make t.distinct 0 and filled = ref 0 in
    for i = 0 to (Array.length t.slots / 2) - 1 do
      if t.slots.((2 * i) + 1) > 0 then begin
        values.(!filled) <- t.slots.(2 * i);
        incr filled
      end
    done;
    Array.sort Int.compare values;
    let mask = (Array.length t.slots / 2) - 1 in
    let r = Array.make (2 * t.distinct) 0 and below = ref 0 in
    Array.iteri
      (fun j v ->
        below := !below + t.slots.((2 * probe t.slots mask v (hash v land mask)) + 1);
        r.(2 * j) <- v;
        r.((2 * j) + 1) <- !below)
      values;
    t.ranked <- r;
    t.ranked_for <- t.n
  end;
  t.ranked

let min_value t = if is_empty t then 0 else (ranked t).(0)

let max_value t =
  if is_empty t then 0
  else
    let r = ranked t in
    r.(Array.length r - 2)

let mean t = if is_empty t then 0.0 else float_of_int t.sum /. float_of_int t.n

(* The value of the [rank]th smallest sample, [rank] in [1, n]: the first
   distinct value whose running count reaches [rank]. *)
let value_of_rank r rank =
  let rec search lo hi =
    if lo = hi then r.(2 * lo)
    else
      let mid = (lo + hi) / 2 in
      if r.((2 * mid) + 1) >= rank then search lo mid else search (mid + 1) hi
  in
  search 0 ((Array.length r / 2) - 1)

let percentile t p =
  if is_empty t then 0
  else begin
    let n = t.n in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let rank = if rank <= 0 then 1 else if rank > n then n else rank in
    value_of_rank (ranked t) rank
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
  let p25 = percentile t 25.0
  and p50 = percentile t 50.0
  and p75 = percentile t 75.0 in
  let iqr = p75 - p25 in
  let lo_bound = p25 - (3 * iqr / 2) and hi_bound = p75 + (3 * iqr / 2) in
  let r = ranked t in
  let whisker_lo = ref p25 and whisker_hi = ref p75 in
  for j = 0 to (Array.length r / 2) - 1 do
    let v = r.(2 * j) in
    if v >= lo_bound && v < !whisker_lo then whisker_lo := v;
    if v <= hi_bound && v > !whisker_hi then whisker_hi := v
  done;
  { p25; p50; p75; whisker_lo = !whisker_lo; whisker_hi = !whisker_hi }

let cdf t percentiles = List.map (fun p -> (p, percentile t p)) percentiles

let merge_into ~dst src =
  let slots = src.slots and n = src.n and sum = src.sum in
  for i = 0 to (Array.length slots / 2) - 1 do
    let c = slots.((2 * i) + 1) in
    if c > 0 then add_count dst slots.(2 * i) c
  done;
  dst.n <- dst.n + n;
  dst.sum <- dst.sum + sum

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
