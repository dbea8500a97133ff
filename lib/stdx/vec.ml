type 'a t = { mutable arr : 'a array; mutable len : int }

let create () = { arr = [||]; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let check t i name =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds (len %d)" name i t.len)

let get t i =
  check t i "get";
  t.arr.(i)

let set t i x =
  check t i "set";
  t.arr.(i) <- x

let push t x =
  let cap = Array.length t.arr in
  if t.len = cap then begin
    let new_cap = if cap = 0 then 16 else cap * 2 in
    let arr = Array.make new_cap x in
    Array.blit t.arr 0 arr 0 t.len;
    t.arr <- arr
  end;
  t.arr.(t.len) <- x;
  t.len <- t.len + 1

let last t = if t.len = 0 then None else Some t.arr.(t.len - 1)

(* Dropped elements must not stay reachable from the backing array: [clear]
   lets the array go, and [truncate] overwrites every slot from [n] on (the
   unused capacity too, which [push] fills with a pushed element) with a
   kept one. *)
let clear t =
  t.arr <- [||];
  t.len <- 0

let truncate t n =
  if n < 0 then invalid_arg "Vec.truncate: negative length";
  if n = 0 then clear t
  else if n < t.len then begin
    Array.fill t.arr n (Array.length t.arr - n) t.arr.(n - 1);
    t.len <- n
  end

(* [drop_prefix] keeps the backing array, so a queue that drains and refills
   allocates nothing: the kept elements move to the front and only the [n]
   slots this vacates are overwritten, with the first kept element, or with
   the last dropped one when none is kept. *)
let drop_prefix t n =
  if n < 0 || n > t.len then
    invalid_arg (Printf.sprintf "Vec.drop_prefix: %d out of bounds (len %d)" n t.len);
  if n > 0 then begin
    let kept = t.len - n in
    Array.blit t.arr n t.arr 0 kept;
    Array.fill t.arr kept n (if kept > 0 then t.arr.(0) else t.arr.(t.len - 1));
    t.len <- kept
  end

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.arr.(i) :: acc) in
  loop (t.len - 1) []

let sub_list t ~pos =
  let pos = if pos < 0 then 0 else pos in
  let rec loop i acc = if i < pos then acc else loop (i - 1) (t.arr.(i) :: acc) in
  loop (t.len - 1) []

let iter f t =
  for i = 0 to t.len - 1 do
    f t.arr.(i)
  done
