(* The queue is a 4-ary min-heap of events ordered by [(time, seq)]. Slot
   [i] is the int triple [heap.(3i)] (time), [heap.(3i+1)] (seq) and
   [heap.(3i+2)] (the event's id). An id indexes a slab: [fns.(id)] is the
   callback and [slot.(id)] the event's heap slot, or [-2 - next] while the
   id is free, [next] being the next free id. Sifting moves ints only, so it
   neither allocates nor runs the write barrier, and [cancel] and [rearm]
   find their event's slot on the spot: the heap only ever holds events
   that will fire. Seqs are never reused, so a timer handle [(id, seq)]
   tells a reused id from its own event. *)

type t = {
  mutable now : int;
  mutable seq : int;
  mutable heap : int array;
  mutable len : int;
  mutable fns : (unit -> unit) array;
  mutable slot : int array;
  mutable free : int; (* the first free id, [-1] when there is none *)
}

type timer = { q : t; id : int; mutable tseq : int }

let create () =
  { now = 0; seq = 0; heap = [||]; len = 0; fns = [||]; slot = [||]; free = -1 }

let now t = t.now

(* Does slot [i] fire before [(time, seq)]? *)
let slot_before (heap : int array) i (time : int) (seq : int) =
  let it = Array.unsafe_get heap (3 * i) in
  it < time || (it = time && Array.unsafe_get heap ((3 * i) + 1) < seq)

let set t i time seq id =
  let heap = t.heap in
  Array.unsafe_set heap (3 * i) time;
  Array.unsafe_set heap ((3 * i) + 1) seq;
  Array.unsafe_set heap ((3 * i) + 2) id;
  Array.unsafe_set t.slot id i

(* Move [(time, seq, id)] up from the hole at [i] until its parent precedes
   it. Every slot index passed here and below is below [t.len]. *)
let rec sift_up t i time seq id =
  if i = 0 then set t 0 time seq id
  else
    let parent = (i - 1) / 4 and heap = t.heap in
    if slot_before heap parent time seq then set t i time seq id
    else begin
      let p = 3 * parent in
      set t i heap.(p) heap.(p + 1) heap.(p + 2);
      sift_up t parent time seq id
    end

(* Move [(time, seq, id)] down from the hole at [i] until it precedes every
   child. *)
let rec sift_down t i time seq id =
  let first = (4 * i) + 1 and len = t.len in
  if first >= len then set t i time seq id
  else begin
    (* The earliest child [c], keyed [(ct, cs)]. *)
    let heap = t.heap in
    let c = ref first in
    let ct = ref (Array.unsafe_get heap (3 * first)) in
    let cs = ref (Array.unsafe_get heap ((3 * first) + 1)) in
    let last = if first + 3 < len then first + 3 else len - 1 in
    for j = first + 1 to last do
      let jt = Array.unsafe_get heap (3 * j) in
      if jt <= !ct then begin
        let js = Array.unsafe_get heap ((3 * j) + 1) in
        if jt < !ct || js < !cs then begin
          c := j;
          ct := jt;
          cs := js
        end
      end
    done;
    if !ct < time || (!ct = time && !cs < seq) then begin
      set t i !ct !cs (Array.unsafe_get heap ((3 * !c) + 2));
      sift_down t !c time seq id
    end
    else set t i time seq id
  end

(* Put [(time, seq, id)] in the hole at slot [i], moving it up or down. *)
let place t i time seq id =
  if i > 0 && not (slot_before t.heap ((i - 1) / 4) time seq) then
    sift_up t i time seq id
  else sift_down t i time seq id

(* Take the event at slot [i] out of the heap, filling the hole with the
   last event, free its id and return its callback. *)
let remove t i =
  let id = t.heap.((3 * i) + 2) in
  let fn = t.fns.(id) in
  t.fns.(id) <- ignore;
  t.slot.(id) <- -2 - t.free;
  t.free <- id;
  t.len <- t.len - 1;
  let n = t.len in
  if i < n then place t i t.heap.(3 * n) t.heap.((3 * n) + 1) t.heap.((3 * n) + 2);
  fn

(* A free id. The slab doubles when none is left, and the heap with it: it
   never holds more events than there are ids. *)
let alloc_id t =
  if t.free < 0 then begin
    let cap = Array.length t.fns in
    let ncap = max 16 (2 * cap) in
    let fns = Array.make ncap ignore and heap = Array.make (3 * ncap) 0 in
    Array.blit t.fns 0 fns 0 cap;
    Array.blit t.heap 0 heap 0 (3 * t.len);
    (* The new ids, lowest first, make up the free list. *)
    t.slot <- Array.init ncap (fun id -> if id < cap then t.slot.(id) else -3 - id);
    t.slot.(ncap - 1) <- -1;
    t.fns <- fns;
    t.heap <- heap;
    t.free <- cap
  end;
  let id = t.free in
  t.free <- -2 - t.slot.(id);
  id

(* Queue [fn] at [now + max 0 after] with the next seq; returns its id. *)
let enqueue t ~after fn =
  let id = alloc_id t in
  t.fns.(id) <- fn;
  let seq = t.seq in
  t.seq <- seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) (t.now + max 0 after) seq id;
  id

let schedule t ~after fn = ignore (enqueue t ~after fn : int)

let timer t ~after fn =
  let id = enqueue t ~after fn in
  { q = t; id; tseq = t.seq - 1 }

(* The heap slot of the timer's event, or [-1] when the handle is stale. *)
let timer_slot { q; id; tseq } =
  let i = q.slot.(id) in
  if i >= 0 && q.heap.((3 * i) + 1) = tseq then i else -1

let timer_pending tm = timer_slot tm >= 0

let cancel tm =
  let i = timer_slot tm in
  if i >= 0 then ignore (remove tm.q i : unit -> unit)

let rearm tm ~after =
  let i = timer_slot tm in
  if i >= 0 then begin
    let q = tm.q in
    tm.tseq <- q.seq;
    q.seq <- q.seq + 1;
    place q i (q.now + max 0 after) tm.tseq tm.id
  end

let step t =
  if t.len = 0 then false
  else begin
    let time = t.heap.(0) in
    let fn = remove t 0 in
    t.now <- time;
    fn ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      while t.len > 0 && t.heap.(0) <= limit do
        ignore (step t)
      done;
      if t.now < limit then t.now <- limit

let pending t = t.len
