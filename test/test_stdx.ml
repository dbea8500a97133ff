(* Unit and property tests for the stdx substrate: vec, rng, zipf. *)

module Vec = Crdb_stdx.Vec
module Rng = Crdb_stdx.Rng

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let test_vec () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get" 42 (Vec.get v 42);
  check Alcotest.(option int) "last" (Some 99) (Vec.last v);
  Vec.set v 0 7;
  check Alcotest.int "set" 7 (Vec.get v 0);
  check Alcotest.(list int) "sub_list" [ 97; 98; 99 ] (Vec.sub_list v ~pos:97);
  Vec.truncate v 10;
  check Alcotest.int "truncate" 10 (Vec.length v);
  Alcotest.check_raises "oob"
    (Invalid_argument "Vec.get: index 10 out of bounds (len 10)") (fun () ->
      ignore (Vec.get v 10))

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  check Alcotest.(list int) "same stream" xs ys;
  let c = Rng.create ~seed:8 in
  let zs = List.init 50 (fun _ -> Rng.int c 1000) in
  check Alcotest.bool "different seeds differ" true (xs <> zs)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let child = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 100) in
  let ys = List.init 20 (fun _ -> Rng.int child 100) in
  check Alcotest.bool "streams diverge" true (xs <> ys)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float within bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let x = Rng.float rng 3.5 in
      x >= 0.0 && x < 3.5)

let test_exponential_mean () =
  let rng = Rng.create ~seed:42 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean close to 5" true (abs_float (mean -. 5.0) < 0.2)

let test_zipf_bounds_and_skew () =
  let rng = Rng.create ~seed:1 in
  let d = Rng.Zipf.create ~n:1000 () in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let k = Rng.Zipf.sample d rng in
    check Alcotest.bool "in range" true (k >= 0 && k < 1000);
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank 0 must be much hotter than rank 500 under theta = 0.99. *)
  check Alcotest.bool "zipf skew" true (counts.(0) > 20 * (counts.(500) + 1))

let test_zipf_scrambled_spreads () =
  let rng = Rng.create ~seed:1 in
  let d = Rng.Zipf.create ~n:1000 () in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let k = Rng.Zipf.scrambled_sample d rng in
    counts.(k) <- counts.(k) + 1
  done;
  (* The hottest key should no longer be key 0. *)
  let hottest = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!hottest) then hottest := i) counts;
  check Alcotest.bool "hot key scrambled away from 0" true (!hottest <> 0)

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:3 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 100 Fun.id) sorted

let suite =
  [
    Alcotest.test_case "vec" `Quick test_vec;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    qcheck prop_rng_int_bounds;
    qcheck prop_rng_float_bounds;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "zipf bounds+skew" `Quick test_zipf_bounds_and_skew;
    Alcotest.test_case "zipf scrambled" `Quick test_zipf_scrambled_spreads;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
  ]
