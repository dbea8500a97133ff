module Vec = Crdb_stdx.Vec

(* One ring of time-aligned buckets per (name, range?) series. A bucket
   covers [epoch * width, (epoch + 1) * width) of simulated time and keeps
   the sample count, value sum and the raw samples (for window quantiles).
   Buckets are recycled in place as time advances: writing into a slot whose
   recorded epoch is stale resets it, so a series never allocates after its
   ring is warm. *)

type bucket = {
  mutable b_epoch : int;  (* -1 = never used *)
  mutable b_count : int;
  mutable b_sum : int;
  b_samples : int Vec.t;
}

type series = { s_name : string; s_range : int option; ring : bucket array }

type t = {
  now : unit -> int;
  width : int;
  num_buckets : int;
  tbl : (string * int option, series) Hashtbl.t;
}

let create ~now ?(bucket_width = 1_000_000) ?(num_buckets = 60) () =
  if bucket_width <= 0 then invalid_arg "Timeseries.create: bucket_width";
  if num_buckets <= 0 then invalid_arg "Timeseries.create: num_buckets";
  { now; width = bucket_width; num_buckets; tbl = Hashtbl.create 64 }

let span t = t.width * t.num_buckets

let series t ?range name =
  let key = (name, range) in
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
      let ring =
        Array.init t.num_buckets (fun _ ->
            { b_epoch = -1; b_count = 0; b_sum = 0; b_samples = Vec.create () })
      in
      let s = { s_name = name; s_range = range; ring } in
      Hashtbl.add t.tbl key s;
      s

let observe t ?range name value =
  let s = series t ?range name in
  let epoch = t.now () / t.width in
  let b = s.ring.(epoch mod t.num_buckets) in
  if b.b_epoch <> epoch then begin
    b.b_epoch <- epoch;
    b.b_count <- 0;
    b.b_sum <- 0;
    Vec.clear b.b_samples
  end;
  b.b_count <- b.b_count + 1;
  b.b_sum <- b.b_sum + value

(* Window arithmetic. A bucket with epoch e spans [e*w, (e+1)*w). Against
   the sliding window [now - window, now] it contributes fully once inside,
   and fractionally while the window's left edge crosses it — the classic
   sliding-window-counter estimate, assuming samples spread uniformly within
   a bucket. The current (partial) bucket always contributes fully: all of
   its samples are <= now. Everything is derived from integer sim time, so
   the result is deterministic across runs. *)

let fold_window t ?range ~window name f acc =
  match Hashtbl.find_opt t.tbl (name, range) with
  | None -> acc
  | Some s ->
      let now = t.now () in
      let lo = now - window in
      let cur_epoch = now / t.width in
      Array.fold_left
        (fun acc b ->
          if b.b_epoch < 0 || b.b_epoch > cur_epoch then acc
          else
            let s_start = b.b_epoch * t.width in
            let s_end = s_start + t.width in
            if s_end <= lo then acc
            else
              let frac =
                if s_start >= lo then 1.0
                else float_of_int (s_end - lo) /. float_of_int t.width
              in
              f acc b frac)
        acc s.ring

let window_count t ?range ?window name =
  let window = match window with Some w -> w | None -> span t in
  fold_window t ?range ~window name
    (fun acc b frac -> acc +. (float_of_int b.b_count *. frac))
    0.0

let window_sum t ?range ?window name =
  let window = match window with Some w -> w | None -> span t in
  fold_window t ?range ~window name
    (fun acc b frac -> acc +. (float_of_int b.b_sum *. frac))
    0.0

let rate t ?range ?window name =
  let w = match window with Some w -> w | None -> span t in
  window_count t ?range ~window:w name /. (float_of_int w /. 1e6)

let sum_rate t ?range ?window name =
  let w = match window with Some w -> w | None -> span t in
  window_sum t ?range ~window:w name /. (float_of_int w /. 1e6)

let percentile t ?range ?window name p =
  let window = match window with Some w -> w | None -> span t in
  let h = Crdb_stats.Hist.create () in
  let () =
    fold_window t ?range ~window name
      (fun () b _frac -> Vec.iter (Crdb_stats.Hist.add h) b.b_samples)
      ()
  in
  if Crdb_stats.Hist.is_empty h then None
  else Some (Crdb_stats.Hist.percentile h p)

let record_sample t ?range name value =
  let s = series t ?range name in
  let epoch = t.now () / t.width in
  let b = s.ring.(epoch mod t.num_buckets) in
  if b.b_epoch <> epoch then begin
    b.b_epoch <- epoch;
    b.b_count <- 0;
    b.b_sum <- 0;
    Vec.clear b.b_samples
  end;
  b.b_count <- b.b_count + 1;
  b.b_sum <- b.b_sum + value;
  Vec.push b.b_samples value

let names t =
  Hashtbl.fold (fun (n, _) _ acc -> n :: acc) t.tbl []
  |> List.sort_uniq String.compare

let ranges_of t name =
  Hashtbl.fold
    (fun (n, r) _ acc ->
      match r with Some r when n = name -> r :: acc | _ -> acc)
    t.tbl []
  |> List.sort_uniq Int.compare

let sorted_series t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.tbl []
  |> List.sort (fun a b ->
         match String.compare a.s_name b.s_name with
         | 0 -> compare a.s_range b.s_range
         | c -> c)

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[";
  let first = ref true in
  List.iter
    (fun s ->
      if not !first then Buffer.add_string buf ",";
      first := false;
      Buffer.add_string buf "{\"name\":\"";
      Buffer.add_string buf s.s_name;
      Buffer.add_string buf "\"";
      (match s.s_range with
      | Some r -> Buffer.add_string buf (Printf.sprintf ",\"range\":%d" r)
      | None -> ());
      Buffer.add_string buf ",\"buckets\":[";
      let bs =
        Array.to_list s.ring
        |> List.filter (fun b -> b.b_epoch >= 0)
        |> List.sort (fun a b -> Int.compare a.b_epoch b.b_epoch)
      in
      List.iteri
        (fun i b ->
          if i > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf
            (Printf.sprintf "{\"start\":%d,\"count\":%d,\"sum\":%d}"
               (b.b_epoch * t.width) b.b_count b.b_sum))
        bs;
      Buffer.add_string buf "]}")
    (sorted_series t);
  Buffer.add_string buf "]";
  Buffer.contents buf
