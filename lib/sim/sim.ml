(* The queue is a binary min-heap of events ordered by [(time, seq)]. Each
   event records its slot in the heap ([-1] once it has fired or been
   cancelled), so [cancel] removes it on the spot and the heap only ever
   holds events that will fire. *)

type event = {
  time : int;
  seq : int;
  fn : unit -> unit;
  mutable slot : int;
}

type t = {
  mutable now : int;
  mutable seq : int;
  mutable heap : event array;
  mutable len : int;
}

(* A timer remembers its queue so that [cancel] can take it out. *)
type timer = { q : t; ev : event }

let dummy = { time = 0; seq = 0; fn = ignore; slot = -1 }
let create () = { now = 0; seq = 0; heap = [||]; len = 0 }
let now t = t.now

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let set t i ev =
  t.heap.(i) <- ev;
  ev.slot <- i

(* Move [ev] up from the hole at [i] until its parent precedes it. *)
let rec sift_up t i ev =
  if i = 0 then set t 0 ev
  else
    let parent = (i - 1) / 2 in
    let p = t.heap.(parent) in
    if before ev p then begin
      set t i p;
      sift_up t parent ev
    end
    else set t i ev

(* Move [ev] down from the hole at [i] until it precedes both children. *)
let rec sift_down t i ev =
  let l = (2 * i) + 1 in
  if l >= t.len then set t i ev
  else
    let r = l + 1 in
    let c = if r < t.len && before t.heap.(r) t.heap.(l) then r else l in
    let child = t.heap.(c) in
    if before child ev then begin
      set t i child;
      sift_down t c ev
    end
    else set t i ev

(* Take the event at slot [i] out of the heap, filling the hole with the last
   event. *)
let remove t i =
  let ev = t.heap.(i) in
  ev.slot <- -1;
  t.len <- t.len - 1;
  if i < t.len then begin
    let last = t.heap.(t.len) in
    if i > 0 && before last t.heap.((i - 1) / 2) then sift_up t i last
    else sift_down t i last
  end;
  t.heap.(t.len) <- dummy;
  ev

let enqueue t ~at fn =
  let at = if at < t.now then t.now else at in
  let ev = { time = at; seq = t.seq; fn; slot = -1 } in
  t.seq <- t.seq + 1;
  if t.len = Array.length t.heap then begin
    let heap = Array.make (max 16 (2 * t.len)) dummy in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) ev;
  ev

let schedule t ~after fn =
  let after = if after < 0 then 0 else after in
  ignore (enqueue t ~at:(t.now + after) fn)

let schedule_at t ~at fn = ignore (enqueue t ~at fn)

let timer t ~after fn =
  let after = if after < 0 then 0 else after in
  { q = t; ev = enqueue t ~at:(t.now + after) fn }

let cancel { q; ev } = if ev.slot >= 0 then ignore (remove q ev.slot)
let timer_pending { ev; _ } = ev.slot >= 0

let step t =
  if t.len = 0 then false
  else begin
    let ev = remove t 0 in
    t.now <- ev.time;
    ev.fn ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      while t.len > 0 && t.heap.(0).time <= limit do
        ignore (step t)
      done;
      if t.now < limit then t.now <- limit

let run_for t d = run ~until:(t.now + d) t
let pending t = t.len
