(* A branch's cells: µs per phase (at [Phase.index]) and WAN round trips;
   the clock that times it (the trace recorder's); when it started and
   stopped (-1 while it runs: a stopped branch takes no more charges); the
   cells it was forked from, and how many of its own forks are not joined
   yet; and the branches joined into it since its forks last all were. *)
type cells = {
  acc : int array;
  mutable wan : int;
  tr : Trace.t;
  start : int;
  mutable stop : int;
  parent : cells option;
  mutable unjoined : int;
  mutable joined : cells list;
}

type t = { span : Trace.span; cells : cells option }

let nil = { span = Trace.nil; cells = None }

let fresh ?parent tr =
  let acc = Array.make Phase.num_phases 0 in
  { acc; wan = 0; tr; start = Trace.now tr; stop = -1; parent; unjoined = 0;
    joined = [] }

let make tr = { span = Trace.nil; cells = Some (fresh tr) }
let span op = op.span

let child tr op ?node ?range ?txn name =
  let sp = Trace.span tr ~parent:op.span ?node ?range ?txn name in
  if sp == op.span then op else { op with span = sp }

let charge c phase us =
  if c.stop < 0 then c.acc.(Phase.index phase) <- c.acc.(Phase.index phase) + us

let add op phase us = match op.cells with Some c -> charge c phase us | None -> ()

let add_wan op =
  match op.cells with Some c when c.stop < 0 -> c.wan <- c.wan + 1 | _ -> ()

let total op p = match op.cells with Some c -> c.acc.(Phase.index p) | None -> 0
let wan_rtts op = match op.cells with Some c -> c.wan | None -> 0
let elapsed c = Trace.now c.tr - c.start

let fork op =
  match op.cells with
  | Some c ->
      c.unjoined <- c.unjoined + 1;
      { op with cells = Some (fresh ~parent:c c.tr) }
  | None -> op

let stop_cells c = if c.stop < 0 then c.stop <- Trace.now c.tr
let stop op = Option.iter stop_cells op.cells

let merge ~sign ~into c =
  Array.iteri (fun i us -> into.acc.(i) <- into.acc.(i) + (sign * us)) c.acc;
  into.wan <- into.wan + (sign * c.wan)

(* Of the branches joined so far, [b]'s rivals are those that ran while it
   did. If [b] finished last it takes their place, else it counts for
   nothing: of concurrent branches only the last to finish is charged. Once
   every fork of [op] has joined, no later join can have a rival among
   them. *)
let join op b =
  match (op.cells, b.cells) with
  | Some c, Some bc when bc != c && c.stop < 0 ->
      stop_cells bc;
      let rival e = e.stop > bc.start && e.start < bc.stop in
      let rivals = List.filter rival c.joined in
      if List.for_all (fun e -> e.stop <= bc.stop) rivals then begin
        List.iter (merge ~sign:(-1) ~into:c) rivals;
        if rivals <> [] then c.joined <- List.filter (fun e -> not (rival e)) c.joined;
        c.joined <- bc :: c.joined;
        merge ~sign:1 ~into:c bc
      end;
      (match bc.parent with
      | Some p ->
          p.unjoined <- p.unjoined - 1;
          if p == c && c.unjoined = 0 then c.joined <- []
      | None -> ())
  | _ -> ()

let join_rpc op server =
  (match server.cells with
  | Some s -> charge s Phase.Routing (elapsed s - Array.fold_left ( + ) 0 s.acc)
  | None -> ());
  join op server

let scope op phase f =
  let inner = fork op in
  let result = f inner in
  Option.iter
    (fun i ->
      Array.fill i.acc 0 Phase.num_phases 0;
      charge i phase (elapsed i))
    inner.cells;
  join op inner;
  result

let annotate op =
  match op.cells with
  | Some c when op.span != Trace.nil ->
      List.iter
        (fun p ->
          let us = c.acc.(Phase.index p) in
          if us > 0 then Trace.annotate_int op.span ("phase." ^ Phase.name p) us)
        Phase.all_phases;
      if c.wan > 0 then Trace.annotate_int op.span "wan_rtts" c.wan
  | _ -> ()

let flush op sink =
  Option.iter (fun c -> Phase.flush sink c.acc ~wan:c.wan ~e2e:(elapsed c)) op.cells
