(* The queue is a 4-ary min-heap of events ordered by [(time, seq)]. The
   keys live inline in one int array ([keys.(2i)] is slot [i]'s time and
   [keys.(2i+1)] its seq), so sifting compares ints without touching an
   event record. Each event records its slot in the heap ([-1] once it has
   fired or been cancelled), so [cancel] removes it on the spot and the heap
   only ever holds events that will fire. *)

type event = { fn : unit -> unit; mutable slot : int }

type t = {
  mutable now : int;
  mutable seq : int;
  mutable keys : int array;
  mutable evs : event array;
  mutable len : int;
}

(* A timer remembers its queue so that [cancel] can take it out. *)
type timer = { q : t; ev : event }

let dummy = { fn = ignore; slot = -1 }
let create () = { now = 0; seq = 0; keys = [||]; evs = [||]; len = 0 }
let now t = t.now

(* Does slot [i] fire before [(time, seq)]? *)
let slot_before (keys : int array) i (time : int) (seq : int) =
  let it = Array.unsafe_get keys (2 * i) in
  it < time || (it = time && Array.unsafe_get keys ((2 * i) + 1) < seq)

let set t i time seq ev =
  let keys = t.keys in
  Array.unsafe_set keys (2 * i) time;
  Array.unsafe_set keys ((2 * i) + 1) seq;
  Array.unsafe_set t.evs i ev;
  ev.slot <- i

(* Move the event in slot [j] to slot [i]. *)
let move t ~src:j ~dst:i =
  let keys = t.keys in
  set t i
    (Array.unsafe_get keys (2 * j))
    (Array.unsafe_get keys ((2 * j) + 1))
    (Array.unsafe_get t.evs j)

(* Move [(time, seq, ev)] up from the hole at [i] until its parent precedes
   it. Every slot index passed here and below is below [t.len]. *)
let rec sift_up t i time seq ev =
  if i = 0 then set t 0 time seq ev
  else
    let parent = (i - 1) / 4 in
    if slot_before t.keys parent time seq then set t i time seq ev
    else begin
      move t ~src:parent ~dst:i;
      sift_up t parent time seq ev
    end

(* Move [(time, seq, ev)] down from the hole at [i] until it precedes every
   child. *)
let rec sift_down t i time seq ev =
  let first = (4 * i) + 1 and len = t.len in
  if first >= len then set t i time seq ev
  else begin
    (* The earliest child [c], keyed [(ct, cs)]. *)
    let keys = t.keys in
    let c = ref first in
    let ct = ref (Array.unsafe_get keys (2 * first)) in
    let cs = ref (Array.unsafe_get keys ((2 * first) + 1)) in
    let last = if first + 3 < len then first + 3 else len - 1 in
    for j = first + 1 to last do
      let jt = Array.unsafe_get keys (2 * j) in
      if jt <= !ct then begin
        let js = Array.unsafe_get keys ((2 * j) + 1) in
        if jt < !ct || js < !cs then begin
          c := j;
          ct := jt;
          cs := js
        end
      end
    done;
    if !ct < time || (!ct = time && !cs < seq) then begin
      set t i !ct !cs (Array.unsafe_get t.evs !c);
      sift_down t !c time seq ev
    end
    else set t i time seq ev
  end

(* Take the event at slot [i] out of the heap, filling the hole with the last
   event. *)
let remove t i =
  let ev = t.evs.(i) in
  ev.slot <- -1;
  t.len <- t.len - 1;
  let n = t.len in
  if i < n then begin
    let time = t.keys.(2 * n) and seq = t.keys.((2 * n) + 1) in
    let last = t.evs.(n) in
    if i > 0 && not (slot_before t.keys ((i - 1) / 4) time seq) then
      sift_up t i time seq last
    else sift_down t i time seq last
  end;
  t.evs.(n) <- dummy;
  ev

let enqueue t ~at fn =
  let at = if at < t.now then t.now else at in
  let ev = { fn; slot = -1 } in
  let seq = t.seq in
  t.seq <- seq + 1;
  if t.len = Array.length t.evs then begin
    let cap = max 16 (2 * t.len) in
    let keys = Array.make (2 * cap) 0 and evs = Array.make cap dummy in
    Array.blit t.keys 0 keys 0 (2 * t.len);
    Array.blit t.evs 0 evs 0 t.len;
    t.keys <- keys;
    t.evs <- evs
  end;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) at seq ev;
  ev

let schedule t ~after fn =
  let after = if after < 0 then 0 else after in
  ignore (enqueue t ~at:(t.now + after) fn)

let timer t ~after fn =
  let after = if after < 0 then 0 else after in
  { q = t; ev = enqueue t ~at:(t.now + after) fn }

let cancel { q; ev } = if ev.slot >= 0 then ignore (remove q ev.slot)
let timer_pending { ev; _ } = ev.slot >= 0

let step t =
  if t.len = 0 then false
  else begin
    let time = t.keys.(0) in
    let ev = remove t 0 in
    t.now <- time;
    ev.fn ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      while t.len > 0 && t.keys.(0) <= limit do
        ignore (step t)
      done;
      if t.now < limit then t.now <- limit

let pending t = t.len
