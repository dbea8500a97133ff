(* Unit tests for the Hist percentile/summary additions. *)

module Hist = Crdb_stats.Hist

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let test_percentiles () =
  let h = Hist.create () in
  (* Insert out of order to exercise the lazy sort. *)
  List.iter (Hist.add h) (List.init 100 (fun i -> 100 - i));
  check Alcotest.int "count" 100 (Hist.count h);
  check Alcotest.int "p50" 50 (Hist.p50 h);
  check Alcotest.int "p90" 90 (Hist.p90 h);
  check Alcotest.int "p99" 99 (Hist.p99 h);
  check Alcotest.int "min" 1 (Hist.min_value h);
  check Alcotest.int "max" 100 (Hist.max_value h)

let test_percentiles_small () =
  let h = Hist.create () in
  Hist.add h 7;
  (* Nearest-rank on a single sample: every percentile is that sample. *)
  check Alcotest.int "p50 single" 7 (Hist.p50 h);
  check Alcotest.int "p90 single" 7 (Hist.p90 h);
  check Alcotest.int "p99 single" 7 (Hist.p99 h)

let test_empty () =
  let h = Hist.create () in
  check Alcotest.bool "empty" true (Hist.is_empty h);
  check Alcotest.int "p90 empty" 0 (Hist.p90 h);
  check Alcotest.int "p99 empty" 0 (Hist.p99 h)

let test_to_json () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 40; 10; 30; 20 ];
  check Alcotest.string "json shape"
    "{\"count\":4,\"mean\":25.0,\"min\":10,\"p50\":20,\"p90\":40,\"p99\":40,\"max\":40}"
    (Hist.to_json h)

let test_to_json_after_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.add a) [ 1; 2 ];
  List.iter (Hist.add b) [ 3; 4 ];
  Hist.merge_into ~dst:a b;
  check Alcotest.string "merged json"
    "{\"count\":4,\"mean\":2.5,\"min\":1,\"p50\":2,\"p90\":4,\"p99\":4,\"max\":4}"
    (Hist.to_json a)

(* The sample-keeping histogram [Hist] replaced, kept as the oracle of
   its summaries: every sample in arrival order, sorted when read. *)
module Oracle = struct
  type t = { mutable newest_first : int list; mutable sorted : int array option }

  let create () = { newest_first = []; sorted = None }

  let add t v =
    t.newest_first <- v :: t.newest_first;
    t.sorted <- None

  let merge_into ~dst src =
    dst.newest_first <- src.newest_first @ dst.newest_first;
    dst.sorted <- None

  let count t = List.length t.newest_first
  let is_empty t = count t = 0

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Array.of_list (List.sort Int.compare t.newest_first) in
        t.sorted <- Some a;
        a
  let min_value t = if is_empty t then 0 else (sorted t).(0)
  let max_value t = if is_empty t then 0 else (sorted t).(count t - 1)

  let mean t =
    if is_empty t then 0.0
    else
      List.fold_left
        (fun sum v -> sum +. float_of_int v)
        0.0 (List.rev t.newest_first)
      /. float_of_int (count t)

  let percentile t p =
    if is_empty t then 0
    else begin
      let n = count t in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      let idx = if rank <= 0 then 0 else if rank > n then n - 1 else rank - 1 in
      (sorted t).(idx)
    end

  let to_json t =
    Printf.sprintf
      "{\"count\":%d,\"mean\":%.1f,\"min\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"max\":%d}"
      (count t) (mean t) (min_value t) (percentile t 50.0) (percentile t 90.0)
      (percentile t 99.0) (max_value t)

  let boxplot t : Hist.boxplot =
    let p25 = percentile t 25.0
    and p50 = percentile t 50.0
    and p75 = percentile t 75.0 in
    let iqr = p75 - p25 in
    let lo_bound = p25 - (3 * iqr / 2) and hi_bound = p75 + (3 * iqr / 2) in
    let whisker_lo = ref p25 and whisker_hi = ref p75 in
    Array.iter
      (fun v ->
        if v >= lo_bound && v < !whisker_lo then whisker_lo := v;
        if v <= hi_bound && v > !whisker_hi then whisker_hi := v)
      (sorted t);
    { p25; p50; p75; whisker_lo = !whisker_lo; whisker_hi = !whisker_hi }

  let cdf t percentiles = List.map (fun p -> (p, percentile t p)) percentiles

  let pp_row ~label ppf t =
    let pp_ms = Hist.pp_ms in
    if is_empty t then Format.fprintf ppf "%-34s (no samples)" label
    else
      Format.fprintf ppf
        "%-34s n=%-7d mean=%a p25=%a p50=%a p75=%a p90=%a p99=%a max=%a" label
        (count t) pp_ms
        (int_of_float (mean t))
        pp_ms (percentile t 25.0) pp_ms (percentile t 50.0) pp_ms
        (percentile t 75.0) pp_ms (percentile t 90.0) pp_ms (percentile t 99.0)
        pp_ms (max_value t)
end

type op = Add of int * int | Merge of int * int | Read of int

(* Every summary of [h] equals the oracle's, at the given percentiles. *)
let same_summaries ps h o =
  Hist.count h = Oracle.count o
  && Hist.is_empty h = Oracle.is_empty o
  && Float.equal (Hist.mean h) (Oracle.mean o)
  && Hist.min_value h = Oracle.min_value o
  && Hist.max_value h = Oracle.max_value o
  && List.for_all (fun p -> Hist.percentile h p = Oracle.percentile o p) ps
  && Hist.boxplot h = Oracle.boxplot o
  && Hist.cdf h ps = Oracle.cdf o ps
  && String.equal (Hist.to_json h) (Oracle.to_json o)
  && String.equal
       (Format.asprintf "%a" (Hist.pp_row ~label:"h") h)
       (Format.asprintf "%a" (Oracle.pp_row ~label:"h") o)

(* Three histograms take random adds (duplicates and negative values
   included) and merges, some stay empty, and reads come between updates;
   every read and the final state agree with the oracle. A merge goes to a
   higher-numbered histogram only, so sizes cannot double run after run. *)
let prop_matches_sample_oracle =
  let value =
    QCheck.Gen.(
      frequency
        [
          (4, int_range (-20) 20);
          (2, int_range (-1_000_000) 1_000_000);
          (1, oneofl [ 0; 1; 1_000; 250_000 ]);
        ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (12, map2 (fun h v -> Add (h, v)) (int_bound 2) value);
          ( 2,
            int_range 1 2 >>= fun d ->
            map (fun s -> Merge (d, s)) (int_bound (d - 1)) );
          (2, map (fun h -> Read h) (int_bound 2));
        ])
  in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 300) op)
        (list_size (int_range 1 6) (float_bound_inclusive 100.0)))
  in
  let print (ops, ps) =
    String.concat " "
      (List.map
         (function
           | Add (h, v) -> Printf.sprintf "add(%d,%d)" h v
           | Merge (d, s) -> Printf.sprintf "merge(%d<-%d)" d s
           | Read h -> Printf.sprintf "read(%d)" h)
         ops)
    ^ " @ "
    ^ String.concat "," (List.map string_of_float ps)
  in
  QCheck.Test.make ~name:"hist summaries match the sample-keeping oracle"
    ~count:300 (QCheck.make ~print gen) (fun (ops, ps) ->
      let hs = Array.init 3 (fun _ -> Hist.create ())
      and os = Array.init 3 (fun _ -> Oracle.create ()) in
      List.for_all
        (function
          | Add (i, v) ->
              Hist.add hs.(i) v;
              Oracle.add os.(i) v;
              true
          | Merge (d, s) ->
              Hist.merge_into ~dst:hs.(d) hs.(s);
              Oracle.merge_into ~dst:os.(d) os.(s);
              true
          | Read i -> same_summaries ps hs.(i) os.(i))
        ops
      && List.for_all (fun i -> same_summaries ps hs.(i) os.(i)) [ 0; 1; 2 ])

(* Memory follows the distinct values, not the samples. *)
let test_memory_follows_distinct_values () =
  let h = Hist.create () in
  for i = 0 to 999_999 do
    Hist.add h (i mod 1_000 * 37)
  done;
  check Alcotest.int "count" 1_000_000 (Hist.count h);
  check Alcotest.int "p50" (499 * 37) (Hist.p50 h);
  let words = Obj.reachable_words (Obj.repr h) in
  if words >= 16_000 then
    Alcotest.failf "1M samples over 1,000 values hold %d words (limit 16,000)" words

let suite =
  [
    Alcotest.test_case "percentiles 1..100" `Quick test_percentiles;
    Alcotest.test_case "percentiles single" `Quick test_percentiles_small;
    Alcotest.test_case "empty histogram" `Quick test_empty;
    Alcotest.test_case "to_json" `Quick test_to_json;
    Alcotest.test_case "to_json after merge" `Quick test_to_json_after_merge;
    qcheck prop_matches_sample_oracle;
    Alcotest.test_case "memory follows distinct values" `Quick
      test_memory_follows_distinct_values;
  ]
