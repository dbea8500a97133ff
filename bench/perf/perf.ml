(* Wall-clock benchmark of the simulator: what running it costs, end to end
   and layer by layer, on workloads that put the cost in different layers.
   README.md in this directory has the metric catalog and the reasons for
   each workload.

   Usage:
     perf.exe [--scale F] [--seconds S] [--held-out] [--out FILE]
              [--trace-file FILE]
         every workload: 3 untraced runs (with --seconds, runs while they
         fit in S seconds, at least one), then one traced run
     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
         one workload: untraced runs while they fit in S seconds (at least
         one); with --trace 1 also the traced run. The last line of output
         is a JSON summary.
     perf.exe compare PARENT.json[,PARENT.json...] CHANGE.json[,...]
         per workload and metric: both medians and quartiles, and a verdict

   A run executes every instance of the workload once, each in a freshly
   started process (this program with --instance), one at a time: the heap
   peak and GC state of the benchmark and of one instance never leak into
   the next. *)

module W = Workloads
module Hist = Crdb_stats.Hist

(* One instance, executed in a child process. *)
type rep = { outcome : W.outcome; digest : string; spans : Span.t list }

let spans_s rep names =
  List.fold_left (fun acc n -> acc +. Span.total_s rep.spans n) 0.0 names

let setup_spans = [ "setup.start"; "setup.ddl"; "setup.load" ]
let check_spans = [ "check.linearizable"; "check.bank"; "check.serializable" ]
let setup_s rep = spans_s rep setup_spans
let run_s rep = spans_s rep [ "run" ]
let ms us = float_of_int us /. 1e3
let sum f reps = List.fold_left (fun acc r -> acc + f r.outcome) 0 reps

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4), the default "exclusive" method. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)

type better = Higher | Lower

type e2e = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** share of the parent's median it may worsen by *)
  simulated : bool;  (** a pure function of the seed, not of the machine *)
  value : rep list -> float;  (** one run's value, over all its instances *)
}

let ops run = sum (fun o -> o.W.attempted) run

let latency run =
  let h = Hist.create () in
  List.iter (fun r -> Hist.merge_into ~dst:h r.outcome.W.latency) run;
  h

(* Throughput and set-up time are the median instance's: on a shared
   machine a slow spell then moves a few instances and not the run. The heap
   peak is the largest child's, the memory the workload needs. Simulated
   metrics pool every instance. *)
let end_to_end =
  let wall name unit_ better bound value =
    { name; unit_; better; bound; simulated = false; value }
  and sim name unit_ better bound value =
    { name; unit_; better; bound; simulated = true; value }
  in
  [
    wall "ops_per_s" "1/s" Higher 0.25 (fun run ->
        median (List.map (fun r -> float_of_int (ops [ r ]) /. run_s r) run));
    wall "setup_s" "s" Lower 0.25 (fun run -> median (List.map setup_s run));
    wall "peak_heap_mb" "MB" Lower 0.10 (fun run ->
        let heap r = r.outcome.W.top_heap_words in
        let words = List.fold_left (fun acc r -> max acc (heap r)) 0 run in
        float_of_int (words * (Sys.word_size / 8)) /. 1e6);
    sim "ok_ratio" "ratio" Higher 0.01 (fun run ->
        float_of_int (ops run - sum (fun o -> o.W.failed) run)
        /. float_of_int (ops run));
    sim "sim_mean_ms" "ms" Lower 0.25 (fun run -> Hist.mean (latency run) /. 1e3);
    sim "sim_p99_ms" "ms" Lower 0.25 (fun run ->
        ms (Hist.percentile (latency run) 99.0));
    sim "sim_ops_per_s" "1/s" Higher 0.25 (fun run ->
        float_of_int (ops run)
        /. (float_of_int (sum (fun o -> o.W.window_us) run) /. 1e6));
  ]

(* A set-up time within this many seconds of the parent's is never worse:
   at small set-up times the share alone would flag scheduler noise. *)
let setup_floor_s = 0.05

(* ------------------------------------------------------------------ *)
(* Per-layer metrics, from one traced instance                         *)

(* (name, unit, value). [overhead_pct] compares traced runs of the instance
   with untraced ones. *)
let per_layer rep ~micro ~overhead_pct =
  let o = rep.outcome in
  let c = W.counter o and h = W.hist o in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let per_op n = ratio n o.W.attempted in
  let run = List.filter (fun s -> s.Span.name = "run") rep.spans in
  let gc_per_op f =
    List.fold_left (fun acc s -> acc +. f s) 0.0 run /. float_of_int o.W.attempted
  in
  let micro name = Option.value (List.assoc_opt name micro) ~default:Float.nan in
  let phase p = Hist.mean (h ("phase.txn." ^ Crdb_obs.Phase.name p)) /. 1e3 in
  let p50 name = ms (Hist.percentile (h name) 50.0)
  and p99 name = ms (Hist.percentile (h name) 99.0) in
  let sim_s = float_of_int o.W.sim_us /. 1e6 in
  let splits, merges, lease_moves = o.W.autopilot in
  (* Coverage: the share of the workload's wall time, from the start of its
     set-up to the end of its last run or check, inside a span. *)
  let spans =
    List.filter
      (fun s -> List.mem s.Span.name (("run" :: setup_spans) @ check_spans))
      rep.spans
  in
  let first = List.fold_left (fun acc s -> min acc s.Span.start_ns) Int64.max_int spans
  and last = List.fold_left (fun acc s -> max acc s.Span.end_ns) Int64.min_int spans in
  let covered = List.fold_left (fun acc s -> acc +. Span.duration_s s) 0.0 spans in
  [
    ("setup.start_s", "s", Span.total_s rep.spans "setup.start");
    ("setup.ddl_s", "s", Span.total_s rep.spans "setup.ddl");
    ("setup.load_s", "s", Span.total_s rep.spans "setup.load");
    ("run_s", "s", run_s rep);
    ("trace_overhead_pct", "%", overhead_pct);
    ("span_coverage_pct", "%", 100.0 *. covered /. Span.seconds_between first last);
    ("sim.sim_s_per_wall_s", "ratio", sim_s /. run_s rep);
    ("sim.queue_depth_p50", "count", float_of_int (Hist.percentile o.W.queue_depth 50.0));
    ("sim.queue_depth_max", "count", float_of_int (Hist.max_value o.W.queue_depth));
    ("sim.schedule_step_ns", "ns", micro "sim.schedule_step_ns");
    ("gc.minor_words_per_op", "words", gc_per_op (fun s -> s.Span.minor_words));
    ("gc.promoted_words_per_op", "words", gc_per_op (fun s -> s.Span.promoted_words));
    ( "gc.major_collections", "count",
      float_of_int
        (List.fold_left (fun acc s -> acc + s.Span.major_collections) 0 run) );
    ("net.msgs_per_op", "count", per_op (c "net.msgs_sent"));
    ("net.rpcs_per_op", "count", per_op (c "net.rpcs"));
    ("net.wan_rpcs_per_op", "count", per_op (c "net.wan_rpcs"));
    ("net.drop_ratio", "ratio", ratio (c "net.msgs_dropped") (c "net.msgs_sent"));
    ("raft.appends_per_op", "count", per_op (c "raft.appends_sent"));
    ("raft.elections", "count", float_of_int (c "raft.elections"));
    ("raft.snapshots_sent", "count", float_of_int (c "raft.snapshots_sent"));
    ("raft.commit_latency_p50_ms", "ms", p50 "raft.commit_latency");
    ("raft.commit_latency_p99_ms", "ms", p99 "raft.commit_latency");
    ("storage.mvcc_read_ns", "ns", micro "storage.mvcc_read_ns");
    ("storage.mvcc_read_deep_ns", "ns", micro "storage.mvcc_read_deep_ns");
    ("storage.mvcc_put_ns", "ns", micro "storage.mvcc_put_ns");
    ("kv.txn_pushes_per_op", "count", per_op (c "kv.txn_pushes"));
    ("kv.intent_cleanups_per_op", "count", per_op (c "kv.intent_cleanups"));
    ("kv.conflict_timeouts", "count", float_of_int (c "kv.conflict_timeouts"));
    ( "kv.follower_read_hit_ratio", "ratio",
      ratio (c "kv.follower_read_hits")
        (c "kv.follower_read_hits" + c "kv.follower_read_misses") );
    ("kv.ct_publishes_per_sim_s", "1/s", float_of_int (c "kv.ct_publishes") /. sim_s);
    ("kv.ranges", "count", float_of_int (c "kv.ranges"));
    ("kv.lock_acquire_release_ns", "ns", micro "kv.lock_acquire_release_ns");
    ("txn.commits_per_attempt", "ratio", ratio (c "txn.commits") (c "txn.attempts"));
    ("txn.restarts_per_op", "count", per_op (c "txn.restarts"));
    ("txn.refreshes_per_op", "count", per_op (c "txn.refreshes"));
    ("txn.commit_wait_p99_ms", "ms", p99 "txn.commit_wait");
    ("txn.wan_rtts_per_txn", "count", Hist.mean (h "wan_rtts.txn"));
  ]
  @ List.map
      (fun p -> ("phase." ^ Crdb_obs.Phase.name p ^ "_ms", "ms", phase p))
      W.txn_phases
  @ [
      ("obs.timeseries_observe_ns", "ns", micro "obs.timeseries_observe_ns");
      ("stats.hist_add_ns", "ns", micro "stats.hist_add_ns");
      ("check.linearizable_s", "s", Span.total_s rep.spans "check.linearizable");
      ("check.bank_s", "s", Span.total_s rep.spans "check.bank");
      ("check.serializable_s", "s", Span.total_s rep.spans "check.serializable");
      ("autopilot.splits", "count", float_of_int splits);
      ("autopilot.merges", "count", float_of_int merges);
      ("autopilot.lease_moves", "count", float_of_int lease_moves);
      ("chaos.faults_injected", "count", float_of_int (c "chaos.injected"));
    ]

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

(* The child being waited for, killed with the parent on SIGTERM/SIGINT. *)
let child = ref None

let () =
  let stop _ =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      !child;
    exit 2
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

(* The child's side of [one_rep]: run one instance and send the result on
   standard output. Anything else the program prints goes to stderr. *)
let serve_instance (w : W.workload) ~scale ~traced seed =
  let result_fd = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let result =
    try
      let outcome = W.run_instance w ~scale ~traced seed in
      let digest = W.digest outcome in
      outcome.W.digest_parts <- [];
      Ok { outcome; digest; spans = Span.all () }
    with e -> Error (Printexc.to_string e)
  in
  let oc = Unix.out_channel_of_descr result_fd in
  Marshal.to_channel oc (result : (rep, string) result) [];
  close_out oc

(* Run one instance in a new process of this program, not a fork: a fork
   would inherit the benchmark's heap and its peak. The parent waits for
   the child before returning. *)
let one_rep (w : W.workload) ~scale ~traced seed =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [|
      Sys.executable_name; "--instance"; "--workload"; w.W.name;
      "--seed"; string_of_int seed; "--scale"; Printf.sprintf "%.17g" scale;
      "--trace"; (if traced then "1" else "0");
    |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  child := Some pid;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let result =
    try (Marshal.from_channel ic : (rep, string) result)
    with End_of_file | Failure _ -> Error "the child process died without a result"
  in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  child := None;
  result

type result = {
  workload : W.workload;
  seed : int;
  runs : rep list list;  (** untraced; one rep per instance *)
  traced : rep option;  (** the last instance, traced *)
  layer : (string * string * float) list;
  problems : string list;
}

(* [micro] is the microbenchmark result, shared by every workload's traced
   run: the entry points it times do not depend on the workload. *)
let measure (w : W.workload) ~scale ~seed ~min_runs ~seconds ~traced ~micro =
  let problems = ref [] in
  let problem p = if not (List.mem p !problems) then problems := p :: !problems in
  let rep ~traced seed =
    match one_rep w ~scale ~traced seed with
    | Ok r ->
        List.iter
          (fun p -> problem (Printf.sprintf "seed %d: %s" seed p))
          r.outcome.W.problems;
        Some r
    | Error msg ->
        problem (Printf.sprintf "seed %d: %s" seed msg);
        None
  in
  let seeds = List.init (W.instances w ~scale) (fun i -> seed + i) in
  let t0 = Span.now_ns () in
  (* Start another run only while it can end within [seconds]. A run holds
     one slot per seed, [None] where the instance failed. *)
  let rec loop acc =
    let r0 = Span.now_ns () in
    let run = List.map (rep ~traced:false) seeds in
    let acc = run :: acc in
    let now = Span.now_ns () in
    let fits =
      Span.seconds_between t0 now +. Span.seconds_between r0 now <= seconds
    in
    if List.for_all Option.is_some run && (List.length acc < min_runs || fits)
    then loop acc
    else List.rev acc
  in
  let slots = loop [] in
  let first_run = List.hd slots in
  List.iter
    (fun run ->
      List.iteri
        (fun i -> function
          | Some a, Some b when a.digest <> b.digest ->
              problem (Printf.sprintf "seed %d: digests differ across runs" (seed + i))
          | _ -> ())
        (List.combine first_run run))
    slots;
  let runs = List.map (List.filter_map Fun.id) slots in
  (* The traced runs repeat the last instance, each followed by one more
     untraced run of it: on a shared machine speed drifts over tens of
     seconds, so each traced run is compared with its neighbour in time.
     (A process right after an idle spell runs slower, which is why the
     neighbour comes after the traced run and not before it.) One pair
     still differs from the next by up to 15%, so the overhead is the
     median over 3 pairs (scaled like the instance counts). The per-layer
     numbers come from the first traced run. *)
  let last = List.nth first_run (List.length seeds - 1) in
  let last_seed = seed + List.length seeds - 1 in
  let pairs =
    if traced && Option.is_some last then
      List.init (W.scaled scale 3 ~min:1) (fun _ ->
          let t = rep ~traced:true last_seed in
          (t, rep ~traced:false last_seed))
    else []
  in
  let pairs = List.filter_map (function Some t, Some u -> Some (t, u) | _ -> None) pairs in
  let layer =
    match (last, pairs) with
    | Some last, (t, _) :: _ ->
        List.iter
          (fun (t, u) ->
            List.iter
              (fun (r, what) ->
                if r.digest <> last.digest then
                  problem
                    (Printf.sprintf "seed %d: the %s digest differs from the first run's"
                       last_seed what))
              [ (t, "traced"); (u, "last untraced") ])
          pairs;
        let micro =
          match micro with
          | Ok m -> m
          | Error msg ->
              problem ("microbenchmarks: " ^ msg);
              []
        in
        let overhead_pct =
          median
            (List.map
               (fun (t, u) ->
                 let wall r = setup_s r +. run_s r in
                 100.0 *. (wall t -. wall u) /. wall u)
               pairs)
        in
        let layer = per_layer t ~micro ~overhead_pct in
        List.iter
          (fun (n, _, v) ->
            if not (Float.is_finite v) then problem (n ^ " has no value")
            else if n = "span_coverage_pct" && v < 95.0 then
              problem (Printf.sprintf "spans cover only %.1f%% of the traced run" v))
          layer;
        layer
    | _ -> []
  in
  let traced = match pairs with (t, _) :: _ -> Some t | [] -> None in
  { workload = w; seed; runs; traced; layer; problems = List.rev !problems }

let values r m = List.map m.value r.runs
let first_run r = match r.runs with run :: _ -> run | [] -> []
let correct r = if r.problems = [] then "true" else "false"

let print_result r =
  let w = r.workload.W.name in
  if r.runs <> [] then
    List.iter
      (fun m ->
        let vs = values r m in
        let q1, q3 = quartiles vs in
        Printf.printf "%-15s %-28s %14.6g %14.6g %14.6g %8d %s\n" w m.name (median vs)
          q1 q3 (ops (first_run r)) m.unit_)
      end_to_end;
  List.iter
    (fun (name, unit_, v) -> Printf.printf "%-15s %-28s %14.6g %s\n" w name v unit_)
    r.layer;
  List.iter (fun p -> Printf.eprintf "%s: FAILED: %s\n%!" w p) r.problems

let metrics_json entries =
  Json.obj
    (List.map
       (fun (n, u, v) -> (n, Json.obj [ ("value", Json.num v); ("unit", Json.str u) ]))
       entries)

let result_json r =
  let e2e m =
    let vs = values r m in
    let q1, q3 = quartiles vs in
    ( m.name,
      Json.obj
        [
          ("unit", Json.str m.unit_);
          ("values", Json.arr (List.map Json.num vs));
          ("median", Json.num (median vs));
          ("q1", Json.num q1);
          ("q3", Json.num q3);
          ("n", Json.num (float_of_int (ops (first_run r))));
        ] )
  in
  Json.obj
    [
      ("name", Json.str r.workload.W.name);
      ("seed", Json.num (float_of_int r.seed));
      ("correct", correct r);
      ("problems", Json.arr (List.map Json.str r.problems));
      ("digests", Json.arr (List.map (fun rep -> Json.str rep.digest) (first_run r)));
      ("end_to_end", Json.obj (List.map e2e end_to_end));
      ("per_layer", metrics_json r.layer);
    ]

let write_file path contents =
  try
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s\n" path
  with Sys_error msg -> Printf.printf "cannot write %s: %s\n" path msg

(* The one-line summary for a single workload: with --trace 0 every
   end-to-end metric, with --trace 1 every per-layer one. *)
let summary_json r ~traced =
  let reps = List.concat r.runs @ Option.to_list r.traced in
  let metrics =
    if traced then r.layer
    else List.map (fun m -> (m.name, m.unit_, median (values r m))) end_to_end
  in
  Json.obj
    [
      ("correct", correct r);
      ("attempted", Json.num (float_of_int (max 1 (ops reps))));
      ("failed", Json.num (float_of_int (sum (fun o -> o.W.failed) reps)));
      ("metrics", metrics_json metrics);
    ]

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json must describe exactly what this program measures.    *)

let check_benchmark_json path results =
  let problems = ref [] in
  let expect cond msg = if not cond then problems := (path ^ ": " ^ msg) :: !problems in
  (try
     let j = Json.of_file path in
     let entries field = Json.to_list (Json.member field j) in
     let str k x = Json.to_string (Json.member k x) in
     let names field = List.map (str "name") (entries field) in
     let listed = List.filter (fun w -> w.W.in_benchmark_json) W.all in
     expect (names "workloads" = List.map (fun w -> w.W.name) listed) "workloads differ";
     expect
       (names "end_to_end" = List.map (fun m -> m.name) end_to_end)
       "end-to-end metrics differ";
     List.iter2
       (fun x m ->
         expect (str "unit" x = m.unit_) (m.name ^ ": unit differs");
         expect
           (str "better" x = if m.better = Higher then "higher" else "lower")
           (m.name ^ ": direction differs");
         expect
           (Json.to_float (Json.member "bound" x) = m.bound)
           (m.name ^ ": bound differs"))
       (entries "end_to_end") end_to_end;
     match results with
     | { layer = _ :: _ as layer; _ } :: _ ->
         expect
           (List.map (fun x -> (str "name" x, str "unit" x)) (entries "per_layer")
           = List.map (fun (n, u, _) -> (n, u)) layer)
           "per-layer metrics or their units differ"
     | _ -> expect false "no traced run to compare the per-layer metrics with"
   with Json.Error msg | Sys_error msg | Invalid_argument msg -> expect false msg);
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* compare PARENT.json CHANGE.json                                     *)

(* The rule of bench/perf/README.md: "better" needs the change to win at
   least 9 of 10 index-paired runs and to move the median by more than the
   parent's interquartile range; "unresolved" when the parent's own spread
   is wider than the bound allows; "worse" when the median moved the wrong
   way by more than the bound (by anything at all, for simulated metrics of
   the same seed). *)
let verdict m ~same_seed pv cv =
  let mp = median pv and mc = median cv in
  let pq1, pq3 = quartiles pv in
  let gain a b = match m.better with Higher -> b -. a | Lower -> a -. b in
  let rec pairs = function
    | a :: pt, b :: ct -> (a, b) :: pairs (pt, ct)
    | _ -> []
  in
  let pairs = pairs (pv, cv) in
  let wins = List.length (List.filter (fun (a, b) -> gain a b > 0.0) pairs) in
  let allowed =
    if m.simulated && same_seed then 0.0
    else if m.name = "setup_s" then Float.max (m.bound *. mp) setup_floor_s
    else m.bound *. Float.abs mp
  in
  let all_better = List.for_all (fun b -> List.for_all (fun a -> gain a b > 0.0) pv) cv in
  if pairs <> [] && 10 * wins >= 9 * List.length pairs && gain mp mc > pq3 -. pq1 then
    "better"
  else if (not m.simulated) && pq3 -. pq1 > allowed && not all_better then "unresolved"
  else if gain mp mc < -.allowed then "worse"
  else "no-worse"

(* Each side is a list of result files, e.g. runs made alternately on the
   two commits; their values are paired in file order. *)
let compare_files parents changes =
  let load paths =
    List.concat_map
      (fun path ->
        List.map
          (fun w -> (Json.to_string (Json.member "name" w), w))
          (Json.to_list (Json.member "workloads" (Json.of_file path))))
      paths
  in
  let p = load parents and c = load changes in
  let side docs name =
    List.filter_map (fun (n, w) -> if n = name then Some w else None) docs
  in
  let distinct field ws = List.sort_uniq compare (List.map (Json.member field) ws) in
  let worse = ref false in
  Printf.printf "%-15s %-14s %12s %12s %12s | %12s %12s %12s  %s\n" "workload" "metric"
    "parent" "q1" "q3" "change" "q1" "q3" "verdict";
  List.iter
    (fun name ->
      match (side p name, side c name) with
      | _, [] -> Printf.printf "%-15s missing from the change's results\n" name
      | pws, cws ->
          let seeds = distinct "seed" pws in
          let same_seed = List.length seeds = 1 && seeds = distinct "seed" cws in
          let values m ws =
            List.concat_map
              (fun w ->
                Json.member "end_to_end" w |> Json.member m.name |> Json.member "values"
                |> Json.to_list |> List.map Json.to_float)
              ws
          in
          List.iter
            (fun m ->
              let pv = values m pws and cv = values m cws in
              let pq1, pq3 = quartiles pv and cq1, cq3 = quartiles cv in
              let v = verdict m ~same_seed pv cv in
              if v = "worse" then worse := true;
              Printf.printf
                "%-15s %-14s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g  %s\n" name
                m.name (median pv) pq1 pq3 (median cv) cq1 cq3 v)
            end_to_end;
          let digests = distinct "digests" pws in
          Printf.printf "%-15s digests %s\n" name
            (if not same_seed then "not comparable (different seeds)"
             else if List.length digests = 1 && digests = distinct "digests" cws then
               "identical"
             else "DIFFER: the simulated results changed"))
    (List.fold_right (fun (n, _) acc -> if List.mem n acc then acc else n :: acc) p []);
  if !worse then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0.0 and trace = ref 1 in
  let scale = ref 1.0 and instance = ref false in
  let held_out = ref false and check_json = ref "" and anon = ref [] in
  let out = ref "_build/perf.json" and trace_file = ref "_build/perf-trace.json" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload");
      ( "--seed", Arg.Int (fun s -> seed := Some s),
        "N first instance seed (default: the workload's)" );
      ("--held-out", Arg.Set held_out, " use each workload's held-out seed");
      ( "--seconds", Arg.Set_float seconds,
        "S start runs while they fit in S seconds (at least one)" );
      ("--trace", Arg.Set_int trace, "0|1 also make the traced run (default 1)");
      ("--scale", Arg.Set_float scale, "F workload size factor (default 1.0)");
      ("--out", Arg.Set_string out, "FILE results JSON (default _build/perf.json)");
      ("--trace-file", Arg.Set_string trace_file, "FILE Chrome trace of the traced runs");
      ( "--check-benchmark-json", Arg.Set_string check_json,
        "FILE fail unless FILE lists exactly these workloads and metrics" );
      ( "--instance", Arg.Set instance,
        " (internal) run one instance of --workload at --seed, send the result \
         on stdout" );
    ]
  in
  let usage =
    "perf.exe [OPTIONS] | perf.exe compare PARENT.json[,...] CHANGE.json[,...]"
  in
  Arg.parse spec (fun a -> anon := a :: !anon) usage;
  match List.rev !anon with
  | [ "compare"; parents; changes ] -> (
      let files = String.split_on_char ',' in
      try compare_files (files parents) (files changes)
      with Json.Error msg | Sys_error msg ->
        prerr_endline msg;
        exit 2)
  | _ :: _ ->
      Arg.usage spec usage;
      exit 2
  | [] ->
      let workloads =
        if !workload = "" then W.all
        else
          match W.find !workload with
          | Some w -> [ w ]
          | None ->
              Printf.eprintf "unknown workload %S\n" !workload;
              exit 2
      in
      let traced = !trace <> 0 in
      if !instance then begin
        serve_instance (List.hd workloads) ~scale:!scale ~traced
          (Option.value !seed ~default:(List.hd workloads).W.default_seed);
        exit 0
      end;
      (* Before any workload, while this process's heap is still small. *)
      let micro =
        if not traced then Ok []
        else
          try Ok (Micro.run ~quota:(0.2 *. !scale))
          with e -> Error (Printexc.to_string e)
      in
      let min_runs = if !seconds > 0.0 then 1 else 3 in
      let results =
        List.map
          (fun w ->
            let seed =
              match !seed with
              | Some s -> s
              | None -> if !held_out then w.W.held_out_seed else w.W.default_seed
            in
            let r =
              measure w ~scale:!scale ~seed ~min_runs ~seconds:!seconds ~traced ~micro
            in
            print_result r;
            r)
          workloads
      in
      let bench_problems =
        if !check_json = "" then [] else check_benchmark_json !check_json results
      in
      List.iter (fun p -> Printf.eprintf "FAILED: %s\n%!" p) bench_problems;
      write_file !out
        (Json.obj
           [
             ("scale", Json.num !scale);
             ("workloads", Json.arr (List.map result_json results));
           ]
        ^ "\n");
      if traced then
        write_file !trace_file
          (Span.to_chrome_json
             (List.filter_map
                (fun r -> Option.map (fun t -> (r.workload.W.name, t.spans)) r.traced)
                results));
      (match results with
      | [ r ] when !workload <> "" -> print_endline (summary_json r ~traced)
      | _ -> ());
      if bench_problems <> [] || List.exists (fun r -> r.problems <> []) results then
        exit 1
