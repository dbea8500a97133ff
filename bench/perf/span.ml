(* Wall-clock spans recorded by the benchmark around its own calls into the
   simulator's layers. Nothing inside the program is instrumented: a span
   covers one public call (a boot, a DDL batch, a load, a workload run, a
   checker pass) and carries the GC work done inside it. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, [-1] at the top *)
  start_ns : int64;  (** monotonic clock *)
  mutable end_ns : int64;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
}

let now_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9
let duration_s s = seconds_between s.start_ns s.end_ns
let finished = ref []
let open_spans = ref []
let next_id = ref 0

(* Spans nest: [finish] closes the most recently started open span. The GC
   counters are stored at [start] and replaced by their deltas at [finish].
   [Gc.minor_words] is exact; the [Gc.quick_stat] counters move only at
   collections, which is fine for promotions and major cycles. *)
let start name =
  let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
  let g = Gc.quick_stat () in
  let s =
    {
      id = !next_id;
      name;
      parent;
      start_ns = now_ns ();
      end_ns = 0L;
      minor_words = Gc.minor_words ();
      promoted_words = g.Gc.promoted_words;
      major_collections = g.Gc.major_collections;
    }
  in
  incr next_id;
  open_spans := s :: !open_spans;
  s

let finish s =
  s.end_ns <- now_ns ();
  let g = Gc.quick_stat () in
  s.minor_words <- Gc.minor_words () -. s.minor_words;
  s.promoted_words <- g.Gc.promoted_words -. s.promoted_words;
  s.major_collections <- g.Gc.major_collections - s.major_collections;
  open_spans := List.tl !open_spans;
  finished := s :: !finished

let with_span name f =
  let s = start name in
  Fun.protect f ~finally:(fun () -> finish s)

let all () = List.rev !finished

let total_s spans name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. duration_s s else acc)
    0.0 spans

(* Chrome trace-event JSON ("X" complete events): one thread per workload,
   timestamps in microseconds from the first span. *)
let to_chrome_json (runs : (string * t list) list) =
  let origin =
    List.fold_left
      (fun acc (_, spans) -> List.fold_left (fun acc s -> min acc s.start_ns) acc spans)
      Int64.max_int runs
  in
  let us t = Json.num (Int64.to_float (Int64.sub t origin) /. 1e3) in
  let int i = Json.num (float_of_int i) in
  let event tid workload s =
    Json.obj
      [
        ("name", Json.str s.name);
        ("ph", Json.str "X");
        ("pid", "1");
        ("tid", int tid);
        ("ts", us s.start_ns);
        ("dur", Json.num (duration_s s *. 1e6));
        ( "args",
          Json.obj
            [
              ("id", int s.id);
              ("parent", int s.parent);
              ("workload", Json.str workload);
              ("minor_words", Json.num s.minor_words);
              ("promoted_words", Json.num s.promoted_words);
              ("major_collections", int s.major_collections);
            ] );
      ]
  in
  let events =
    List.concat
      (List.mapi (fun tid (workload, spans) -> List.map (event tid workload) spans) runs)
  in
  Json.obj [ ("traceEvents", Json.arr events) ] ^ "\n"
