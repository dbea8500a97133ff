(* Benchmark harness: one experiment per table and figure of the paper's
   evaluation (§7), plus ablations of design choices. The microbenchmarks
   of the core data structures live in bench/perf/micro.ml.

   Usage:   dune exec bench/main.exe [-- EXPERIMENT...]
   where EXPERIMENT is any of: table1 fig3 fig4a fig4b fig4c fig5 fig6
   table2 ablations conflicts latency-audit commit-path autopilot.
   With no arguments, everything runs; an unknown name runs nothing and
   exits 2.

   Workload volumes are scaled down from the paper's GCP runs (the paper's
   absolute numbers come from 3-node-per-region clusters and millions of
   requests); the latency *structure* — who is local, who pays which RTT,
   where tails come from — is what the simulator reproduces. See
   EXPERIMENTS.md for the side-by-side reading. *)

module Crdb = Crdb_core.Crdb
module Value = Crdb.Value
module Ddl = Crdb.Ddl
module Engine = Crdb.Engine
module Cluster = Crdb.Cluster
module Txn = Crdb.Txn
module Latency = Crdb.Latency
module Hist = Crdb_stats.Hist
module Ycsb = Crdb_workload.Ycsb
module Tpcc = Crdb_workload.Tpcc
module Movr = Crdb_workload.Movr
module Autopilot = Crdb_autopilot.Autopilot

let regions5 = Latency.table1_regions
let regions3 = [ "us-east1"; "europe-west2"; "asia-northeast1" ]
let printf = Format.printf

(* Machine-readable mirror of every histogram the pretty-printers show,
   keyed "section / subsection / label" and written to BENCH_results.json
   when the harness exits. *)
let bench_results : (string * Hist.t) list ref = ref []
let current_section = ref ""
let current_subsection = ref ""

let record label hist =
  if not (Hist.is_empty hist) then begin
    let parts =
      List.filter
        (fun s -> s <> "")
        [ !current_section; !current_subsection; String.trim label ]
    in
    let base = String.concat " / " parts in
    let taken k = List.mem_assoc k !bench_results in
    let key =
      if not (taken base) then base
      else
        let rec next i =
          let k = Printf.sprintf "%s #%d" base i in
          if taken k then next (i + 1) else k
        in
        next 2
    in
    bench_results := (key, hist) :: !bench_results
  end

let write_bench_results file =
  (* The bench's only file write, streamed entry by entry. *)
  let oc = open_out file in
  output_string oc "{\n";
  let entries = List.rev !bench_results in
  List.iteri
    (fun i (key, hist) ->
      Printf.fprintf oc "  \"%s\": %s%s\n" (Crdb.Trace.json_escape key)
        (Hist.to_json hist)
        (if i = List.length entries - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc;
  printf "@.[%d latency summaries -> %s]@." (List.length entries) file

let section title =
  current_section := title;
  current_subsection := "";
  printf "@.==================================================================@.";
  printf "%s@." title;
  printf "==================================================================@."

let subsection title =
  current_subsection := title;
  printf "@.---- %s ----@." title

let row label hist =
  record label hist;
  printf "%a@." (Hist.pp_row ~label) hist

let box label hist =
  record label hist;
  if Hist.is_empty hist then printf "%-36s (no samples)@." label
  else begin
    let b = Hist.boxplot hist in
    printf "%-36s |-%a [%a %a %a] %a-| (n=%d)@." label Hist.pp_ms
      b.Hist.whisker_lo Hist.pp_ms b.Hist.p25 Hist.pp_ms b.Hist.p50 Hist.pp_ms
      b.Hist.p75 Hist.pp_ms b.Hist.whisker_hi (Hist.count hist)
  end

let cdf_percentiles = [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9; 100.0 ]

let cdf_row label hist =
  record label hist;
  if Hist.is_empty hist then printf "%-22s (no samples)@." label
  else begin
    printf "%-22s" label;
    List.iter
      (fun (p, v) -> printf " p%-4g=%a" p Hist.pp_ms v)
      (Hist.cdf hist cdf_percentiles);
    printf "@."
  end

let merge hists =
  let h = Hist.create () in
  List.iter (fun src -> Hist.merge_into ~dst:h src) hists;
  h

(* Fail [experiment] after its output when a check it makes is [broken]:
   print each broken check on a line of its own, then exit nonzero. *)
let fail_if_broken experiment broken =
  List.iter (printf "  !! %s@.") broken;
  if broken <> [] then failwith (experiment ^ ": a checked claim does not hold")

(* The regions of [per_region] whose samples' [p]th percentile is [bound]
   microseconds or more, each as a line naming [what]. *)
let at_or_above ~what ~p ~bound per_region =
  List.filter_map
    (fun (region, h) ->
      let v = Hist.percentile h p in
      if Hist.is_empty h || v < bound then None
      else
        Some
          (Printf.sprintf "%s @ %s: p%g %d us is not under %d us" what region p
             v bound))
    per_region

(* ------------------------------------------------------------------ *)
(* Table 1: inter-region round-trip times                              *)

let run_table1 () =
  section "Table 1: inter-region round-trip times (ms)";
  printf "@[<v>%a@]@." (fun ppf () -> Latency.pp_matrix Latency.table1 regions5 ppf ()) ();
  printf
    "The simulator's transport uses exactly this matrix for the 5-region@.\
     experiments (one-way delay = RTT/2, 5%% jitter); larger clusters use@.\
     a distance-derived profile over the real GCP region locations.@."

(* ------------------------------------------------------------------ *)
(* Fig. 3: transaction latency for REGIONAL and GLOBAL tables          *)

let split_primary results ~primary =
  let pick per_region want_primary =
    merge
      (List.filter_map
         (fun (r, h) ->
           if String.equal r primary = want_primary then Some h else None)
         per_region)
  in
  ( pick results.Ycsb.by_region_read true,
    pick results.Ycsb.by_region_read false,
    pick results.Ycsb.by_region_write true,
    pick results.Ycsb.by_region_write false )

let run_fig3 () =
  section "Fig. 3: transaction latency, REGIONAL vs GLOBAL tables";
  printf
    "YCSB-A (50/50), Zipf keys, 5 regions x 10 clients, max_offset=250ms,@.\
     primary = us-east1. Paper: GLOBAL reads <3ms anywhere with 500-600ms@.\
     writes; REGIONAL <3ms locally, 100-200ms remote; stale remote reads <3ms.@.";
  let keyspace = 5_000 and ops = 120 in
  let configs =
    [
      ("Global", Ycsb.Global_table, Ycsb.Latest);
      ("Regional (Latest)", Ycsb.Regional_table, Ycsb.Latest);
      ("Regional (Stale)", Ycsb.Regional_table, Ycsb.Bounded_stale 10_000_000);
    ]
  in
  let broken =
    List.concat_map
      (fun (label, variant, read_mode) ->
        let t, db = Ycsb.setup ~regions:regions5 variant ~keyspace in
        let r =
          Ycsb.run t db ~clients_per_region:10 ~ops_per_client:ops
            ~workload:Ycsb.A ~keyspace ~read_mode ()
        in
        let rp, rn, wp, wn = split_primary r ~primary:"us-east1" in
        subsection label;
        box "  read  / primary region" rp;
        box "  read  / non-primary" rn;
        box "  write / primary region" wp;
        box "  write / non-primary" wn;
        if r.Ycsb.errors > 0 then printf "  (%d errors)@." r.Ycsb.errors;
        (* The paper's claim: GLOBAL reads take under 3 ms at p75 in every
           region. *)
        if variant = Ycsb.Global_table then
          at_or_above ~what:"GLOBAL read" ~p:75.0 ~bound:3_000
            r.Ycsb.by_region_read
        else [])
      configs
  in
  fail_if_broken "fig3" broken

(* ------------------------------------------------------------------ *)
(* Fig. 4a: locality optimized search and automatic rehoming           *)

let run_fig4a () =
  section "Fig. 4a: LOS and auto-rehoming (YCSB-B, disjoint keys)";
  printf
    "3 regions, uniform keys, localities 95%% and 50%%. Paper: Unoptimized@.\
     fans out on every op (150-200ms); Default stays local via LOS; Rehoming@.\
     converges to all-local under disjoint access; Baseline is manual@.\
     partitioning (region derivable from the key).@.";
  let keyspace = 3_000 in
  let variants =
    [
      (* The rehoming variant runs longer: convergence needs enough remote
         updates to move each client's pool (the paper ran 10 minutes). *)
      ("Baseline (manual partitioning)", Ycsb.Rbr_computed, true, 400);
      ("Unoptimized (no LOS)", Ycsb.Rbr_default, false, 400);
      ("Default (LOS)", Ycsb.Rbr_default, true, 400);
      ("Rehoming (LOS + rehome)", Ycsb.Rbr_rehoming, true, 2000);
    ]
  in
  List.iter
    (fun locality ->
      subsection (Printf.sprintf "locality of access = %.0f%%" (locality *. 100.));
      List.iter
        (fun (label, variant, los, ops) ->
          let t, db = Ycsb.setup ~regions:regions3 variant ~keyspace in
          Engine.set_locality_optimized_search db los;
          let r =
            Ycsb.run t db ~clients_per_region:10 ~ops_per_client:ops
              ~distribution:`Uniform ~locality ~remote_pool:6 ~workload:Ycsb.B
              ~keyspace ()
          in
          printf "%s@." label;
          row "    read  local" r.Ycsb.read_local;
          row "    read  remote" r.Ycsb.read_remote;
          row "    write local" r.Ycsb.write_local;
          row "    write remote" r.Ycsb.write_remote)
        variants)
    [ 0.95; 0.5 ]

(* ------------------------------------------------------------------ *)
(* Fig. 4b: uniqueness constraint checks on INSERT                     *)

let run_fig4b () =
  section "Fig. 4b: uniqueness checks (YCSB-D inserts, 100% locality)";
  printf
    "Paper: Computed avoids the uniqueness fan-out entirely (local inserts,@.\
     same as Baseline); Default pays one point lookup per remote region@.\
     (latency spikes at the inter-region RTTs).@.";
  let keyspace = 3_000 and ops = 100 in
  let computed = "Computed (region from key)" in
  let variants =
    [
      (computed, Ycsb.Rbr_computed);
      ("Default (gateway region)", Ycsb.Rbr_default);
      ("Baseline (manual partitioning)", Ycsb.Rbr_computed);
    ]
  in
  (* The paper's claim: Computed inserts stay region-local, so no region's
     p99 reaches the nearest other region. *)
  let nearest_rtt =
    List.fold_left min max_int
      (List.concat_map
         (fun a ->
           List.filter_map
             (fun b ->
               if a = b then None else Some (Latency.rtt Latency.table1 a b))
             regions3)
         regions3)
  in
  let broken =
    List.concat_map
      (fun (label, variant) ->
        let t, db = Ycsb.setup ~regions:regions3 variant ~keyspace in
        let r =
          Ycsb.run t db ~clients_per_region:10 ~ops_per_client:ops
            ~distribution:`Uniform ~locality:1.0 ~workload:Ycsb.D ~keyspace ()
        in
        subsection label;
        row "  INSERT (all regions)" r.Ycsb.write_local;
        List.iter
          (fun (region, h) ->
            if not (Hist.is_empty h) then
              row (Printf.sprintf "  INSERT @ %s" region) h)
          r.Ycsb.by_region_write;
        row "  SELECT" (Ycsb.reads r);
        if String.equal label computed then
          at_or_above ~what:"Computed INSERT" ~p:99.0 ~bound:nearest_rtt
            r.Ycsb.by_region_write
        else [])
      variants
  in
  fail_if_broken "fig4b" broken

(* ------------------------------------------------------------------ *)
(* Fig. 4c: auto-rehoming under contention                             *)

let run_fig4c () =
  section "Fig. 4c: auto-rehoming under contention (YCSB-B, 50% locality)";
  printf
    "Remote accesses of the first c regions target a shared key range.@.\
     Paper: c=1 re-homes everything into one local-latency band; c=2,3@.\
     thrash and approach the non-rehoming Default.@.";
  let keyspace = 3_000 and ops = 400 in
  let run_one label variant ~contending =
    let t, db = Ycsb.setup ~regions:regions3 variant ~keyspace in
    let r =
      Ycsb.run t db ~clients_per_region:10 ~ops_per_client:ops
        ~distribution:`Uniform ~locality:0.5 ~remote_pool:10
        ~sharing:contending ~workload:Ycsb.B ~keyspace ()
    in
    subsection label;
    row "  read  local" r.Ycsb.read_local;
    row "  read  remote" r.Ycsb.read_remote;
    row "  write local" r.Ycsb.write_local;
    row "  write remote" r.Ycsb.write_remote
  in
  run_one "Rehoming, c=1" Ycsb.Rbr_rehoming ~contending:1;
  run_one "Rehoming, c=2" Ycsb.Rbr_rehoming ~contending:2;
  run_one "Rehoming, c=3" Ycsb.Rbr_rehoming ~contending:3;
  run_one "Default (no rehoming), c=3" Ycsb.Rbr_default ~contending:3

(* ------------------------------------------------------------------ *)
(* Fig. 5: latency CDFs — GLOBAL vs duplicate indexes vs REGIONAL      *)

let run_fig5 () =
  section "Fig. 5: read/write latency CDFs (GLOBAL vs duplicate indexes)";
  printf
    "Workload of Fig. 3. Paper: all configs read <3ms below p90; in the@.\
     tail, GLOBAL read latency is bounded by max_clock_offset (tighter for@.\
     smaller offsets) while duplicate indexes' tail is unbounded (reads@.\
     block on WAN write transactions); GLOBAL writes 250-600ms by offset;@.\
     duplicate-index writes spike into the seconds under contention.@.";
  let keyspace = 2_000 and ops = 150 in
  let run_one label variant ~max_offset ~read_mode =
    let t, db =
      Ycsb.setup ~config:{ Cluster.default with max_offset } ~regions:regions5
        variant ~keyspace
    in
    let r =
      Ycsb.run t db ~clients_per_region:10 ~ops_per_client:ops ~workload:Ycsb.A
        ~keyspace ~read_mode ()
    in
    (label, r)
  in
  let runs =
    [
      run_one "Global 250ms" Ycsb.Global_table ~max_offset:250_000 ~read_mode:Ycsb.Latest;
      run_one "Global 50ms" Ycsb.Global_table ~max_offset:50_000 ~read_mode:Ycsb.Latest;
      run_one "Global 10ms" Ycsb.Global_table ~max_offset:10_000 ~read_mode:Ycsb.Latest;
      run_one "Duplicate indexes" Ycsb.Dup_indexes ~max_offset:250_000 ~read_mode:Ycsb.Latest;
      run_one "Regional (Latest)" Ycsb.Regional_table ~max_offset:250_000 ~read_mode:Ycsb.Latest;
      run_one "Regional (Stale)" Ycsb.Regional_table ~max_offset:250_000
        ~read_mode:(Ycsb.Bounded_stale 10_000_000);
    ]
  in
  subsection "reads";
  List.iter (fun (label, r) -> cdf_row label (Ycsb.reads r)) runs;
  subsection "writes";
  List.iter (fun (label, r) -> cdf_row label (Ycsb.writes r)) runs

(* ------------------------------------------------------------------ *)
(* Fig. 6: TPC-C scalability                                           *)

let fig6_regions = function
  | 4 -> [ "us-east1"; "us-east4"; "us-central1"; "us-west1" ]
  | 10 ->
      [
        "us-east1"; "us-east4"; "us-central1"; "us-west1"; "europe-west1";
        "europe-west2"; "europe-west3"; "asia-east1"; "asia-northeast1";
        "asia-southeast1";
      ]
  | n -> List.filteri (fun i _ -> i < n) Latency.gcp_region_names

let pp_region_latencies r =
  List.iter
    (fun (region, h) ->
      if not (Hist.is_empty h) then
        printf "    %-26s p50=%a  p90=%a@." region Hist.pp_ms
          (Hist.percentile h 50.0) Hist.pp_ms (Hist.percentile h 90.0))
    r.Tpcc.by_region

let run_fig6 () =
  section "Fig. 6: multi-region TPC-C scalability";
  printf
    "2 warehouses/region, 10 paced terminals/warehouse (think times = spec@.\
     / %d, so the per-warehouse ceiling is %.1f tpmC). Paper: throughput@.\
     scales linearly with regions at >=97%% efficiency; p50 per region stays@.\
     local; PLACEMENT RESTRICTED does not raise latency.@."
    Tpcc.time_scale
    (12.86 *. float_of_int Tpcc.time_scale);
  let warehouses_per_region = 2 in
  List.iter
    (fun nregions ->
      let regions = fig6_regions nregions in
      let t, db =
        Tpcc.setup ~regions ~warehouses_per_region ~districts_per_warehouse:10
          ~customers_per_district:20 ()
      in
      let r =
        Tpcc.run t db ~warehouses_per_region ~duration:60_000_000
          ~districts_per_warehouse:10 ~customers_per_district:20 ()
      in
      let warehouses = warehouses_per_region * nregions in
      subsection (Printf.sprintf "%d regions (%d warehouses)" nregions warehouses);
      printf "  tpmC = %.1f   efficiency = %.1f%%   errors = %d@." (Tpcc.tpmc r)
        (100.0 *. Tpcc.efficiency r)
        r.Tpcc.errors;
      printf "  new-order txns: %d (%.1f%% touched a remote warehouse)@."
        r.Tpcc.committed_new_orders
        (if r.Tpcc.committed_new_orders = 0 then 0.0
         else
           100.0
           *. float_of_int r.Tpcc.remote_new_orders
           /. float_of_int r.Tpcc.committed_new_orders);
      row "  new_order" r.Tpcc.new_order;
      row "  payment" r.Tpcc.payment;
      if nregions = 10 then begin
        printf "  per-region p50/p90 (all transaction types):@.";
        pp_region_latencies r
      end)
    [ 4; 10; 26 ];
  subsection "10 regions, PLACEMENT RESTRICTED";
  let regions = fig6_regions 10 in
  let t, db =
    Tpcc.setup ~regions ~warehouses_per_region ~districts_per_warehouse:10
      ~customers_per_district:20 ()
  in
  Crdb.exec t (Ddl.N_placement { db = "tpcc"; restricted = true });
  let r =
    Tpcc.run t db ~warehouses_per_region ~duration:60_000_000
      ~districts_per_warehouse:10 ~customers_per_district:20 ()
  in
  printf "  tpmC = %.1f   efficiency = %.1f%%@." (Tpcc.tpmc r)
    (100.0 *. Tpcc.efficiency r);
  pp_region_latencies r

(* ------------------------------------------------------------------ *)
(* Table 2: DDL statements before/after the new syntax                 *)

let run_table2 () =
  section "Table 2: DDL statements for multi-region schema operations";
  printf
    "Counts are derived by constructing the actual statement lists (the new@.\
     declarative syntax is also executed against live clusters in the test@.\
     suite and the other experiments). Paper reference (Bef./Aft.):@.\
     movr 28/12 28/14 15/1 9/1; TPC-C 44/18 44/20 20/1 11/1; YCSB 5/1 5/1 2/1 2/1.@.";
  let movr_regions = [ "us-east1"; "us-west1"; "europe-west2" ] in
  let ops =
    [
      ("New multi-region schema", Movr.New_schema);
      ("Converting single-region schema", Movr.Convert_schema);
      ("Adding a region", Movr.Add_region "asia-northeast1");
      ("Dropping a region", Movr.Drop_region "europe-west2");
    ]
  in
  (* Print one schema's table and answer its "After" counts. *)
  let table schema ~before ~after =
    printf "@.%-36s %8s %8s@." schema "Before" "After";
    List.map
      (fun (label, op) ->
        let n = after op in
        printf "%-36s %8d %8d@." label (before op) n;
        n)
      ops
  in
  let movr =
    table "movr"
      ~before:(fun op ->
        Ddl.count (Movr.legacy_ddl ~db:"movr" ~regions:movr_regions op))
      ~after:(fun op ->
        Ddl.count (Movr.ddl ~db:"movr" ~regions:movr_regions op))
  in
  let tpcc_tables = Tpcc.tables ~regions:movr_regions ~warehouses_per_region:10 in
  let tpcc_after = function
    | Movr.New_schema ->
        Ddl.count (Tpcc.ddl ~db:"tpcc" ~regions:movr_regions ~warehouses_per_region:10)
    | Movr.Convert_schema -> 1 + 2 + 9 + 8 (* SET PRIMARY + 2 ADD REGION + 9 SET LOCALITY + 8 computed *)
    | Movr.Add_region _ | Movr.Drop_region _ -> 1
  in
  let tpcc =
    table "TPC-C"
      ~before:(fun op ->
        Ddl.count
          (Crdb.Legacy.statements ~db:"tpcc" ~regions:movr_regions
             ~tables:tpcc_tables op))
      ~after:tpcc_after
  in
  let ycsb_tables = [ Ycsb.schema Ycsb.Rbr_default ~regions:movr_regions ] in
  let ycsb =
    table "YCSB"
      ~before:(fun op ->
        Ddl.count
          (Crdb.Legacy.statements ~db:"ycsb" ~regions:movr_regions
             ~tables:ycsb_tables op))
      ~after:(fun _ -> 1)
  in
  printf "@.Sample of the legacy statements replaced by a single ALTER:@.";
  let sample =
    Crdb.Legacy.statements ~db:"movr" ~regions:movr_regions
      ~tables:(Movr.tables ~regions:movr_regions)
      (Crdb.Legacy.Add_region "asia-northeast1")
  in
  List.iteri (fun i stmt -> if i < 4 then printf "  %s@." (Ddl.to_sql stmt)) sample;
  (* The paper's claim: the "After" counts of its Table 2. *)
  let counts l = String.concat "/" (List.map string_of_int l) in
  fail_if_broken "table2"
    (List.filter_map
       (fun (schema, got, paper) ->
         if got = paper then None
         else
           Some
             (Printf.sprintf "%s: After counts %s, the paper's %s" schema
                (counts got) (counts paper)))
       [
         ("movr", movr, [ 12; 14; 1; 1 ]);
         ("TPC-C", tpcc, [ 18; 20; 1; 1 ]);
         ("YCSB", ycsb, [ 1; 1; 1; 1 ]);
       ])

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let run_ablations () =
  section "Ablations of design choices";
  subsection "closed-timestamp lead for GLOBAL tables (§6.2.1)";
  List.iter
    (fun max_offset ->
      let t, db =
        Ycsb.setup ~config:{ Cluster.default with max_offset }
          ~regions:regions5 Ycsb.Global_table ~keyspace:100
      in
      let rid = List.hd (Engine.ranges_of_table db Ycsb.table_name) in
      let lead = Cluster.closed_lead_duration (Crdb.cluster t) rid in
      let gw = Crdb.gateway t ~region:"us-east1" () in
      let lat = Hist.create () in
      Crdb.run t (fun () ->
          for i = 1 to 20 do
            let t0 = Crdb.sim_now t in
            (match
               Engine.upsert db ~gateway:gw ~table:Ycsb.table_name
                 [
                   ("ycsb_key", Value.V_string (Printf.sprintf "zw%04d" i));
                   ("field0", Value.V_string "v");
                 ]
             with
            | Ok () -> ()
            | Error _ -> ());
            Hist.add lat (Crdb.sim_now t - t0)
          done);
      printf "  max_offset=%3dms: lead=%a ms, measured GLOBAL write p50=%a ms@."
        (max_offset / 1000) Hist.pp_ms lead Hist.pp_ms (Hist.percentile lat 50.0))
    [ 250_000; 50_000; 10_000 ];
  subsection "write pipelining (multi-statement TPC-C new-order)";
  List.iter
    (fun (label, pipelined) ->
      let t, db =
        Tpcc.setup ~regions:regions3 ~warehouses_per_region:2
          ~districts_per_warehouse:10 ~customers_per_district:20 ()
      in
      let mgr = Engine.txn_manager (Crdb.engine t) in
      Txn.set_options mgr
        { (Txn.options mgr) with Txn.Options.pipelined_writes = pipelined };
      let r =
        Tpcc.run t db ~warehouses_per_region:2 ~duration:15_000_000
          ~districts_per_warehouse:10 ~customers_per_district:20 ()
      in
      printf "  %-34s new_order p50=%a p90=%a@." label Hist.pp_ms
        (Hist.percentile r.Tpcc.new_order 50.0)
        Hist.pp_ms
        (Hist.percentile r.Tpcc.new_order 90.0))
    [ ("pipelined (CRDB)", true); ("unpipelined", false) ]

(* ------------------------------------------------------------------ *)
(* Wound-wait vs timeout-only conflict resolution                      *)

let run_conflicts () =
  section "Conflict resolution: wound-wait vs 10s-timeout baseline";
  printf
    "6 clients hammer 4 hot keys with two-key transactions that acquire@.\
     locks in random order (deadlock-prone); the hot range's leaseholder@.\
     is killed mid-run, orphaning in-flight intents. The baseline sets@.\
     push_delay = conflict_wait_timeout, disabling pushes: every deadlock@.\
     and orphaned intent costs the full 10s timeout. Wound-wait pushes@.\
     after 100ms and wounds the younger transaction instead.@.";
  let run_one ~label ~push_delay =
    let home = List.hd regions3 in
    let cl, rids =
      Crdb.kv_cluster ~config:{ Cluster.default with push_delay }
        ~regions:regions3 ~home ~survival:Crdb.Zoneconfig.Zone
        ~ranges:[ (("hot", "hot~"), Cluster.Lag) ]
        ()
    in
    let rid = List.hd rids in
    let mgr = Txn.create_manager cl in
    let sim = Cluster.sim cl in
    let rng = Crdb_stdx.Rng.create ~seed:7 in
    let lat = Hist.create () in
    let key i = Printf.sprintf "hot%02d" i in
    let nclients = 6 and ops = 8 and hot = 4 in
    let ok = ref 0 and failed = ref 0 in
    Cluster.run cl (fun () ->
        Crdb_sim.Proc.spawn sim (fun () ->
            Crdb_sim.Proc.sleep sim 2_000_000;
            match Cluster.leaseholder cl rid with
            | Some lh ->
                Crdb.Transport.kill_node (Cluster.net cl) lh;
                Crdb_sim.Proc.sleep sim 4_000_000;
                Crdb.Transport.revive_node (Cluster.net cl) lh
            | None -> ());
        let clients =
          List.init nclients (fun c ->
              let crng = Crdb_stdx.Rng.split rng in
              Crdb_sim.Proc.async sim (fun () ->
                  let gw =
                    Crdb.Topology.gateway (Cluster.topology cl) ~region:home
                      ~index:c ()
                  in
                  for _ = 1 to ops do
                    Crdb_sim.Proc.sleep sim
                      (50_000 + Crdb_stdx.Rng.int crng 100_000);
                    let a = Crdb_stdx.Rng.int crng hot in
                    let b = (a + 1 + Crdb_stdx.Rng.int crng (hot - 1)) mod hot in
                    let t0 = Crdb_sim.Sim.now sim in
                    (match
                       Txn.run mgr ~gateway:gw (fun t ->
                           Txn.put t (key a) "x";
                           Crdb_sim.Proc.sleep sim 20_000;
                           Txn.put t (key b) "y")
                     with
                    | Ok () -> incr ok
                    | Error _ -> incr failed);
                    Hist.add lat (Crdb_sim.Sim.now sim - t0)
                  done))
        in
        List.iter Crdb_sim.Proc.await clients);
    subsection label;
    row "  txn latency" lat;
    let obs = Cluster.obs cl in
    let m = Crdb.Obs.metrics obs in
    printf "  %d ok, %d failed; %d pushes, %d wounds, %d conflict timeouts@."
      !ok !failed
      (Crdb.Metrics.total m "kv.txn_pushes")
      (Crdb.Events.count (Crdb.Obs.events obs) Crdb.Events.Wound)
      (Crdb.Metrics.total m "kv.conflict_timeouts")
  in
  run_one ~label:"timeout-only baseline (pushes disabled)"
    ~push_delay:Cluster.conflict_wait_timeout;
  run_one ~label:"wound-wait (100ms push delay)"
    ~push_delay:Cluster.default.Cluster.push_delay

(* ------------------------------------------------------------------ *)
(* Latency audit: measured WAN round trips vs the §6 model             *)

let run_latency_audit () =
  section "Latency audit: phase decomposition vs the paper's latency model";
  printf
    "Table-1 topology (5 regions x 3 nodes), a REGIONAL range homed in@.\
     us-east1 (SURVIVE ZONE) and a GLOBAL range over the same placement.@.\
     Every operation threads one operation context through kv/txn/net; the@.\
     model prices each op class in WAN round trips (one cross-region RPC,@.\
     or a consensus round whose quorum needs a remote voter). The harness@.\
     exits nonzero unless every class's measured p50 WAN RTTs equal the@.\
     prediction and its unattributed p50 is at most 2%% of its end-to-end@.\
     p50.@.";
  let home = List.hd regions5 (* us-east1 *) and remote = "europe-west2" in
  let cl, _ =
    Crdb.kv_cluster ~regions:regions5 ~home ~survival:Crdb.Zoneconfig.Zone
      ~ranges:
        [
          (("reg", "reg~"), Cluster.Lag);
          (("glob", "glob~"), Cluster.Lead);
        ]
      ()
  in
  let mgr = Txn.create_manager cl in
  let sim = Cluster.sim cl in
  let m = Crdb.Obs.metrics (Cluster.obs cl) in
  let tr = Crdb.Obs.trace (Cluster.obs cl) in
  let gw region = Crdb.Topology.gateway (Cluster.topology cl) ~region () in
  let gw_home = gw home and gw_remote = gw remote in
  let key p i = Printf.sprintf "%s%02d" p (i mod 10) in
  (* Op classes: (name, predicted WAN RTTs, gateway, body). The txn_commit
     class is a single-write read-write transaction from a remote gateway:
     one WAN RTT for the intent write, one for the parallel commit's
     STAGING record write (the intent's and the record's consensus rounds
     stay in the home region, whose 3 voters make a quorum; intent
     resolution runs after the ack). *)
  let classes =
    [
      ( "local_read", 0, gw_home,
        fun op i ->
          Txn.run mgr ~gateway:gw_home ~op (fun t ->
              ignore (Txn.get t (key "reg" i))) );
      ( "local_write", 0, gw_home,
        fun op i ->
          Txn.run mgr ~gateway:gw_home ~op (fun t ->
              Txn.put t (key "reg" i) "v") );
      ( "global_read", 0, gw_remote,
        fun op i ->
          Txn.run_fresh_read mgr ~gateway:gw_remote ~op (fun ro ->
              ignore (Txn.ro_get ro (key "glob" i))) );
      ( "global_write", 1, gw_remote,
        fun op i ->
          Txn.run_blind_put mgr ~gateway:gw_remote ~op (key "glob" i) "v" );
      ( "txn_commit", 2, gw_remote,
        fun op i ->
          Txn.run mgr ~gateway:gw_remote ~op (fun t ->
              Txn.put t (key "reg" i) "v") );
    ]
  in
  let ops = 24 in
  let e2e = List.map (fun (cls, _, _, _) -> (cls, Hist.create ())) classes in
  Cluster.run cl (fun () ->
      (* Load both keyspaces (scratch phase context: loads are not audited). *)
      let scratch = Crdb.Op.make tr in
      for i = 0 to 9 do
        (match
           Txn.run mgr ~gateway:gw_home ~op:scratch (fun t ->
               Txn.put t (key "reg" i) "seed")
         with
        | Ok () -> ()
        | Error _ -> ());
        match Txn.run_blind_put mgr ~gateway:gw_home ~op:scratch
                (key "glob" i) "seed"
        with
        | Ok () -> ()
        | Error _ -> ()
      done;
      Crdb_sim.Proc.sleep sim 1_000_000;
      List.iter
        (fun (cls, _, _, body) ->
          (* One unmeasured warmup op per class to warm routing caches. *)
          (match body scratch 0 with Ok _ -> () | Error _ -> ());
          let sink = Crdb.Phase.sink m ~cls in
          let h = List.assoc cls e2e in
          for i = 1 to ops do
            Crdb_sim.Proc.sleep sim 100_000;
            let t0 = Crdb_sim.Sim.now sim in
            let op = Crdb.Op.make tr in
            (match body op i with Ok _ -> () | Error _ -> ());
            Hist.add h (Crdb_sim.Sim.now sim - t0);
            Crdb.Op.flush op sink
          done)
        classes);
  let predicted = List.map (fun (cls, p, _, _) -> (cls, p)) classes in
  subsection "end-to-end latency per op class";
  List.iter (fun (cls, h) -> row (Printf.sprintf "  %s" cls) h) e2e;
  subsection "phase decomposition";
  printf "%a" Crdb.Report.pp_phase_table m;
  subsection "WAN round trips: measured vs model";
  printf "%a" (Crdb.Report.pp_wan_table ~predicted) m;
  (* Machine-readable mirror: the wan_rtts histogram per class, the
     prediction encoded in the label so the JSON is self-describing. *)
  let failures =
    List.concat_map
      (fun (cls, pred) ->
        let wan = Crdb.Metrics.merged_hist m ("wan_rtts." ^ cls) in
        record (Printf.sprintf "wan_rtts %s (predicted=%d)" cls pred) wan;
        let measured = Hist.p50 wan in
        let e2e = Hist.p50 (List.assoc cls e2e) in
        let unattributed =
          Hist.p50
            (Crdb.Metrics.merged_hist m
               (Printf.sprintf "phase.%s.unattributed" cls))
        in
        (if measured <> pred then
           [ Printf.sprintf "%s: measured p50 %d WAN RTTs vs predicted %d" cls
               measured pred ]
         else [])
        @
        if unattributed * 50 > e2e then
          [ Printf.sprintf "%s: unattributed p50 %d us is over 2%% of %d us"
              cls unattributed e2e ]
        else [])
      predicted
  in
  List.iter
    (fun (cls, _) ->
      List.iter
        (fun ph ->
          let h =
            Crdb.Metrics.merged_hist m
              (Printf.sprintf "phase.%s.%s" cls (Crdb.Phase.name ph))
          in
          if not (Hist.is_empty h) && Hist.max_value h > 0 then
            record (Printf.sprintf "phase %s %s" cls (Crdb.Phase.name ph)) h)
        Crdb.Phase.all_phases)
    predicted;
  fail_if_broken "latency-audit" failures

(* ------------------------------------------------------------------ *)
(* Commit path: sequential vs pipelined writes vs parallel commits     *)

let run_commit_path () =
  section "Commit path: sequential vs pipelined vs parallel commits";
  printf
    "A two-key write transaction from a us-east1 gateway against two@.\
     ranges whose leaseholders are also in us-east1 but which SURVIVE@.\
     REGION failure: the consensus quorum needs a vote from@.\
     europe-west2 (87ms RTT), so every replicated write — intent,@.\
     commit record, STAGING record — costs one WAN round trip of@.\
     replication. Sequential: each intent replicates before the next@.\
     is sent, then the record, >= 3 WAN RTTs in series. Pipelined:@.\
     the intents replicate concurrently, the record still waits for@.\
     both, ~2. Parallel: the STAGING record replicates alongside the@.\
     intents — the commit point is reached in ~1 WAN RTT (the §5@.\
     headline). The harness exits nonzero unless parallel p50 is ~1@.\
     WAN RTT and sequential p50 is >= 3, and unless the WAN round trips@.\
     the operation context counts read 3 / 2 / 1 at p50.@.";
  let home = "us-east1" in
  let rtt = Latency.rtt Latency.table1 home "europe-west2" in
  let ops = 24 in
  let run_one ~label ~pipelined_writes ~parallel_commits =
    let cl, _ =
      Crdb.kv_cluster ~regions:regions3 ~home ~survival:Crdb.Zoneconfig.Region
        ~ranges:
          [
            (("a", "a~"), Cluster.Lag);
            (("b", "b~"), Cluster.Lag);
          ]
        ()
    in
    let mgr = Txn.create_manager cl in
    Txn.set_options mgr { Txn.Options.pipelined_writes; parallel_commits };
    let sim = Cluster.sim cl in
    let m = Crdb.Obs.metrics (Cluster.obs cl) in
    let gw = Crdb.Topology.gateway (Cluster.topology cl) ~region:home () in
    let lat = Hist.create () in
    let failed = ref 0 in
    let sink = Crdb.Phase.sink m ~cls:label in
    Cluster.run cl (fun () ->
        (* One unmeasured warmup transaction to warm the routing caches. *)
        (match
           Txn.run mgr ~gateway:gw (fun t ->
               Txn.put t "a_warm" "v";
               Txn.put t "b_warm" "v")
         with
        | Ok () | Error _ -> ());
        for i = 1 to ops do
          Crdb_sim.Proc.sleep sim 200_000;
          let ka = Printf.sprintf "a%03d" i
          and kb = Printf.sprintf "b%03d" i in
          let t0 = Crdb_sim.Sim.now sim in
          let op = Crdb.Op.make (Crdb.Obs.trace (Cluster.obs cl)) in
          (match
             Txn.run mgr ~gateway:gw ~op (fun t ->
                 Txn.put t ka "v";
                 Txn.put t kb "v")
           with
          | Ok () -> ()
          | Error _ -> incr failed);
          Hist.add lat (Crdb_sim.Sim.now sim - t0);
          Crdb.Op.flush op sink
        done);
    subsection
      (Printf.sprintf "%s (pipelined=%b parallel=%b)" label pipelined_writes
         parallel_commits);
    row "  commit latency" lat;
    let wan = Crdb.Metrics.merged_hist m ("wan_rtts." ^ label) in
    record (Printf.sprintf "wan_rtts %s" label) wan;
    printf "  p50 = %.2f WAN RTTs (%d failed); counted wan_rtts p50 = %d@."
      (float_of_int (Hist.p50 lat) /. float_of_int rtt)
      !failed (Hist.p50 wan);
    if !failed > 0 then
      failwith (Printf.sprintf "commit-path: %d %s transactions failed"
                  !failed label);
    (Hist.p50 lat, Hist.p50 wan)
  in
  let seq, seq_wan = run_one ~label:"sequential" ~pipelined_writes:false
      ~parallel_commits:false in
  let pipe, pipe_wan = run_one ~label:"pipelined" ~pipelined_writes:true
      ~parallel_commits:false in
  let par, par_wan = run_one ~label:"parallel" ~pipelined_writes:true
      ~parallel_commits:true in
  let in_rtts us = float_of_int us /. float_of_int rtt in
  printf
    "@.  commit-point p50: sequential %.2f / pipelined %.2f / parallel %.2f \
     WAN RTTs@."
    (in_rtts seq) (in_rtts pipe) (in_rtts par);
  if in_rtts par > 1.5 then
    failwith "commit-path: parallel commit p50 is not ~1 WAN RTT";
  if in_rtts seq < 2.5 then
    failwith "commit-path: sequential commit p50 is under 3 WAN RTTs";
  if not (par < pipe && pipe < seq) then
    failwith
      "commit-path: expected parallel < pipelined < sequential commit p50";
  if (seq_wan, pipe_wan, par_wan) <> (3, 2, 1) then
    failwith
      (Printf.sprintf
         "commit-path: counted wan_rtts p50 %d / %d / %d, expected 3 / 2 / 1"
         seq_wan pipe_wan par_wan)

(* ------------------------------------------------------------------ *)
(* Autopilot: background queues vs a static cluster                    *)

let run_autopilot () =
  section "Autopilot: moving hot spot, background queues off vs on";
  printf
    "YCSB-A, zipf keys with the hot set rotating every 5s of simulated@.\
     time, 5 regions x 20 clients, zero manual splits. Off: every@.\
     regional partition stays a single range, so one range absorbs the@.\
     whole zipf head wherever it drifts. On: the split / merge / lease@.\
     queues reshape the keyspace under load, spreading leaseholders and@.\
     pulling the hottest range's share of total QPS back down. Latency@.\
     in the simulator is RTT-structural (no CPU saturation model), so@.\
     the convergence evidence is the share / range series; the latency@.\
     rows check the queues reshape without hurting the tail.@.";
  let keyspace = 5_000 and ops = 150 in
  let sample_every = 2_000_000 in
  let run_phase ~autopilot =
    let t, db = Ycsb.setup ~regions:regions5 Ycsb.Regional_table ~keyspace in
    let cl = Crdb.cluster t in
    let sim = Cluster.sim cl in
    let ts = Crdb_obs.Obs.timeseries (Cluster.obs cl) in
    (* Share of the cluster's total windowed QPS served by its hottest
       range: the convergence signal the split queue is judged on. *)
    let hottest_share () =
      let rates =
        List.map
          (fun rid ->
            Crdb_obs.Timeseries.rate ts ~range:rid ~window:5_000_000
              "kv.range.qps")
          (Cluster.ranges cl)
      in
      let total = List.fold_left ( +. ) 0.0 rates in
      if total <= 0.0 then 0.0
      else List.fold_left Float.max 0.0 rates /. total
    in
    let samples = ref [] in
    let monitoring = ref true in
    let t0 = Crdb_sim.Sim.now sim in
    let rec monitor () =
      if !monitoring then begin
        samples :=
          ( Crdb_sim.Sim.now sim - t0,
            List.length (Cluster.ranges cl),
            hottest_share () )
          :: !samples;
        Crdb_sim.Sim.schedule sim ~after:sample_every monitor
      end
    in
    Crdb_sim.Sim.schedule sim ~after:1 monitor;
    let ap = if autopilot then Some (Autopilot.start cl) else None in
    let r =
      Ycsb.run t db ~clients_per_region:20 ~ops_per_client:ops
        ~workload:Ycsb.A ~hot_shift_every:5_000_000 ~keyspace ()
    in
    monitoring := false;
    Option.iter Autopilot.stop ap;
    ( r,
      List.rev !samples,
      Option.map Autopilot.stats ap,
      List.length (Cluster.ranges cl) )
  in
  let r_off, s_off, _, ranges_off = run_phase ~autopilot:false in
  let r_on, s_on, stats_on, ranges_on = run_phase ~autopilot:true in
  subsection "latency (all regions)";
  cdf_row "reads  (autopilot off)" (Ycsb.reads r_off);
  cdf_row "reads  (autopilot on)" (Ycsb.reads r_on);
  cdf_row "writes (autopilot off)" (Ycsb.writes r_off);
  cdf_row "writes (autopilot on)" (Ycsb.writes r_on);
  subsection "ranges / hottest-range QPS share over time";
  let fmt_sample = function
    | Some (_, n, share) ->
        Printf.sprintf "%3d ranges  %3.0f%% hot" n (100. *. share)
    | None -> ""
  in
  printf "  %7s  %-22s %-22s@." "" "autopilot off" "autopilot on";
  let n_rows = max (List.length s_off) (List.length s_on) in
  for i = 0 to n_rows - 1 do
    let dt =
      match (List.nth_opt s_on i, List.nth_opt s_off i) with
      | Some (dt, _, _), _ | None, Some (dt, _, _) -> dt
      | None, None -> 0
    in
    printf "  %6.1fs  %-22s %-22s@."
      (float_of_int dt /. 1e6)
      (fmt_sample (List.nth_opt s_off i))
      (fmt_sample (List.nth_opt s_on i))
  done;
  (* BENCH_results.json only carries histograms, so the time series go in
     as distributions of the sampled values: min = starting point, max =
     where the run ended up, the spread = how far the queues moved it. *)
  let series label samples f =
    let h = Hist.create () in
    List.iter (fun s -> Hist.add h (f s)) samples;
    record label h
  in
  series "ranges over time (off)" s_off (fun (_, n, _) -> n);
  series "ranges over time (on)" s_on (fun (_, n, _) -> n);
  series "hottest-range share x1000 (off)" s_off (fun (_, _, sh) ->
      int_of_float (1000. *. sh));
  series "hottest-range share x1000 (on)" s_on (fun (_, _, sh) ->
      int_of_float (1000. *. sh));
  printf "@.  final ranges: off=%d on=%d (no manual splits in either run)@."
    ranges_off ranges_on;
  match stats_on with
  | Some s ->
      printf
        "  autopilot decisions: %d splits, %d merges, %d lease moves,@.\
        \  %d replica moves, %d cooldown skips@."
        s.Autopilot.auto_splits s.Autopilot.auto_merges s.Autopilot.lease_moves
        s.Autopilot.replica_moves s.Autopilot.skips
  | None -> ()

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", run_table1);
    ("fig3", run_fig3);
    ("fig4a", run_fig4a);
    ("fig4b", run_fig4b);
    ("fig4c", run_fig4c);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("table2", run_table2);
    ("ablations", run_ablations);
    ("conflicts", run_conflicts);
    ("latency-audit", run_latency_audit);
    ("commit-path", run_commit_path);
    ("autopilot", run_autopilot);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  (* Reject a typo before spending minutes on the experiments ahead of it. *)
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Format.eprintf "unknown experiment %S (available: %s)@." name
          (String.concat ", " (List.map fst experiments));
        exit 2
      end)
    requested;
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      (List.assoc name experiments) ();
      printf "@.[%s completed in %.1fs wall clock]@." name
        (Unix.gettimeofday () -. t0))
    requested;
  write_bench_results "BENCH_results.json"
