type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix64 (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = int64 t }

(* Mask to 62 bits so the Int64 -> int conversion stays non-negative. *)
let nonneg_int_of_int64 v = Int64.to_int (Int64.logand v 0x3FFF_FFFF_FFFF_FFFFL)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  nonneg_int_of_int64 (int64 t) mod bound

(* 53 random bits mapped into [0, 1). *)
let unit_float t =
  let bits = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bits *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound
let bool t = Int64.logand (int64 t) 1L = 1L
let bernoulli t p = unit_float t < p

let exponential t ~mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

module Zipf = struct
  (* YCSB's default skew. *)
  let theta = 0.99

  type dist = {
    n : int;
    alpha : float;
    zetan : float;
    eta : float;
    zeta2 : float;
  }

  let zeta n =
    let sum = ref 0.0 in
    for i = 1 to n do
      sum := !sum +. (1.0 /. (float_of_int i ** theta))
    done;
    !sum

  let create ~n () =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    let zetan = zeta n in
    let zeta2 = zeta 2 in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; alpha; zetan; eta; zeta2 }

  (* Gray/Sundaresan rejection-free zipfian sampler, as used by YCSB. *)
  let sample d t =
    let u = unit_float t in
    let uz = u *. d.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. (0.5 ** theta) then 1
    else
      let rank =
        float_of_int d.n *. (((d.eta *. u) -. d.eta +. 1.0) ** d.alpha)
      in
      let rank = int_of_float rank in
      if rank >= d.n then d.n - 1 else rank

  let scrambled_sample d t =
    let rank = sample d t in
    (* Offset before hashing: mix64 0 = 0 would leave rank 0 in place. *)
    nonneg_int_of_int64 (mix64 (Int64.add (Int64.of_int rank) golden_gamma))
    mod d.n
end
