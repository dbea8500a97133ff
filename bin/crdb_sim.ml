(* crdb_sim: command-line explorer for the simulated multi-region CRDB.

   Subcommands:
     ycsb     run a YCSB workload against a chosen table locality
     tpcc     run TPC-C across N regions
     chaos    run a nemesis schedule with Jepsen-style history checking
     check    re-run the checkers over a dumped chaos history
     ddl      print the DDL statement lists (Table 2 machinery)
     regions  print the latency profiles
     splits   range-lifecycle demo: 100+ splits, traffic, merges
     report   deterministic audit scenario + end-of-run introspection report

   Examples:
     dune exec bin/crdb_sim.exe -- ycsb --variant global --workload a
     dune exec bin/crdb_sim.exe -- tpcc --regions 4 --duration 20
     dune exec bin/crdb_sim.exe -- chaos --seed 42 --survival region
     dune exec bin/crdb_sim.exe -- ddl --schema movr --op convert *)

module Crdb = Crdb_core.Crdb
module Ddl = Crdb.Ddl
module Engine = Crdb.Engine
module Hist = Crdb_stats.Hist
module Ycsb = Crdb_workload.Ycsb
module Tpcc = Crdb_workload.Tpcc
module Movr = Crdb_workload.Movr
open Cmdliner

let regions5 = Crdb.Latency.table1_regions

(* ---------------- observability flags ---------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans across the transport, Raft, KV and transaction \
           layers and write a Chrome trace-event JSON file (load it in \
           about://tracing or ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the metrics registry (counters and histograms) on exit.")

(* Every file the CLI writes goes through here: a path that cannot be
   written fails the run. *)
let write_output file text =
  match open_out file with
  | oc ->
      output_string oc text;
      close_out oc
  | exception Sys_error msg ->
      Format.eprintf "crdb_sim: cannot write %s@." msg;
      exit 1

let write_trace obs file =
  let tr = Crdb.Obs.trace obs in
  write_output file (Crdb.Trace.to_chrome_json tr);
  Format.printf "trace: %d records -> %s@." (Crdb.Trace.num_records tr) file

(* Call before the workload so spans are recorded. *)
let arm_obs obs ~trace =
  if trace <> None then Crdb.Trace.enable (Crdb.Obs.trace obs)

let finish_obs obs ~trace ~metrics =
  Option.iter (write_trace obs) trace;
  if metrics then Format.printf "%a" Crdb.Metrics.pp (Crdb.Obs.metrics obs)

(* ---------------- bounded options ---------------- *)

(* An integer option bounded to [lo, hi]; out-of-range values are usage
   errors, not crashes deep inside the run. *)
let int_in ~lo ?(hi = max_int) () =
  let expected =
    if hi = max_int then Printf.sprintf "an integer >= %d" lo
    else Printf.sprintf "an integer in %d..%d" lo hi
  in
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo && n <= hi -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))),
      Format.pp_print_int )

(* A float option bounded to [lo, hi]. *)
let float_in ~lo ~hi =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | Some x when x >= lo && x <= hi -> Ok x
        | _ ->
            Error
              (`Msg (Printf.sprintf "expected a number in [%g, %g], got %S" lo hi s))),
      Format.pp_print_float )

(* ---------------- ycsb ---------------- *)

(* [Arg.enum] prints a value as its last spelling in the list, so in
   every spelling list below a value's canonical spelling comes last. *)
let variant_conv =
  Arg.enum
    [
      ("rbr", Ycsb.Rbr_default);
      ("computed", Ycsb.Rbr_computed);
      ("rehoming", Ycsb.Rbr_rehoming);
      ("regional", Ycsb.Regional_table);
      ("global", Ycsb.Global_table);
      ("dup", Ycsb.Dup_indexes);
    ]

let workload_conv =
  Arg.enum
    [
      ("A", Ycsb.A); ("a", Ycsb.A); ("B", Ycsb.B); ("b", Ycsb.B); ("D", Ycsb.D);
      ("d", Ycsb.D);
    ]

let run_ycsb variant workload nregions clients ops keyspace locality stale
    trace metrics =
  let regions = List.filteri (fun i _ -> i < nregions) regions5 in
  let t, db = Ycsb.setup ~regions variant ~keyspace in
  arm_obs (Crdb.obs t) ~trace;
  let read_mode =
    if stale then Ycsb.Bounded_stale 10_000_000 else Ycsb.Latest
  in
  let r =
    Ycsb.run t db ~clients_per_region:clients ~ops_per_client:ops ~locality
      ~workload ~keyspace ~read_mode ()
  in
  Format.printf "%d ops, %d errors, %d ms simulated@." r.Ycsb.ops r.Ycsb.errors
    (r.Ycsb.elapsed / 1000);
  Format.printf "%a@." (Hist.pp_row ~label:"read  local") r.Ycsb.read_local;
  Format.printf "%a@." (Hist.pp_row ~label:"read  remote") r.Ycsb.read_remote;
  Format.printf "%a@." (Hist.pp_row ~label:"write local") r.Ycsb.write_local;
  Format.printf "%a@." (Hist.pp_row ~label:"write remote") r.Ycsb.write_remote;
  finish_obs (Crdb.obs t) ~trace ~metrics

let ycsb_cmd =
  let variant =
    Arg.(value & opt variant_conv Ycsb.Rbr_default
         & info [ "variant" ] ~doc:"Table locality: rbr|computed|rehoming|regional|global|dup")
  in
  let workload =
    Arg.(value & opt workload_conv Ycsb.A & info [ "workload" ] ~doc:"a|b|d")
  in
  let nregions =
    Arg.(value & opt (int_in ~lo:2 ~hi:(List.length regions5) ()) 3
         & info [ "regions" ] ~doc:"Regions (2-5)")
  in
  let clients =
    Arg.(value & opt (int_in ~lo:1 ()) 10 & info [ "clients" ] ~doc:"Clients per region")
  in
  let ops =
    Arg.(value & opt (int_in ~lo:0 ()) 100 & info [ "ops" ] ~doc:"Ops per client")
  in
  let keyspace =
    Arg.(value & opt (int_in ~lo:1 ()) 3000 & info [ "keys" ] ~doc:"Loaded keyspace")
  in
  let locality =
    Arg.(value & opt (float_in ~lo:0.0 ~hi:1.0) 1.0
         & info [ "locality" ] ~doc:"Locality of access (0-1)")
  in
  let stale = Arg.(value & flag & info [ "stale" ] ~doc:"Bounded-staleness reads") in
  Cmd.v (Cmd.info "ycsb" ~doc:"Run a YCSB workload")
    Term.(
      const run_ycsb $ variant $ workload $ nregions $ clients $ ops $ keyspace
      $ locality $ stale $ trace_arg $ metrics_arg)

(* ---------------- tpcc ---------------- *)

let run_tpcc nregions warehouses duration trace metrics =
  let regions = List.filteri (fun i _ -> i < nregions) Crdb.Latency.gcp_region_names in
  let t, db =
    Tpcc.setup ~regions ~warehouses_per_region:warehouses
      ~districts_per_warehouse:10 ~customers_per_district:20 ()
  in
  arm_obs (Crdb.obs t) ~trace;
  let r =
    Tpcc.run t db ~warehouses_per_region:warehouses
      ~duration:(duration * 1_000_000) ~districts_per_warehouse:10
      ~customers_per_district:20 ()
  in
  Format.printf "tpmC = %.1f  efficiency = %.1f%%  errors = %d@." (Tpcc.tpmc r)
    (100.0 *. Tpcc.efficiency r)
    r.Tpcc.errors;
  Format.printf "%a@." (Hist.pp_row ~label:"new_order") r.Tpcc.new_order;
  Format.printf "%a@." (Hist.pp_row ~label:"payment") r.Tpcc.payment;
  finish_obs (Crdb.obs t) ~trace ~metrics

let tpcc_cmd =
  let nregions =
    Arg.(value
         & opt (int_in ~lo:1 ~hi:(List.length Crdb.Latency.gcp_region_names) ()) 4
         & info [ "regions" ] ~doc:"Number of regions")
  in
  let warehouses =
    Arg.(value & opt (int_in ~lo:1 ()) 2
         & info [ "warehouses" ] ~doc:"Warehouses per region")
  in
  let duration =
    Arg.(value & opt (int_in ~lo:0 ()) 20
         & info [ "duration" ] ~doc:"Seconds (simulated)")
  in
  Cmd.v (Cmd.info "tpcc" ~doc:"Run TPC-C")
    Term.(const run_tpcc $ nregions $ warehouses $ duration $ trace_arg
          $ metrics_arg)

(* ---------------- chaos ---------------- *)

module Cluster = Crdb.Cluster
module Nemesis = Crdb_chaos.Nemesis
module Chaos_workload = Crdb_chaos.Workload
module Harness = Crdb_chaos.Harness
module Dump = Crdb_chaos.Dump
module Checker = Crdb_check.Checker
module Autopilot = Crdb_autopilot.Autopilot

let checker_conv =
  Arg.enum
    [
      ("lin", `Linearizability);
      ("linearizability", `Linearizability);
      ("ser", `Serializability);
      ("serializability", `Serializability);
    ]

let fault_kind_conv =
  Arg.enum
    [
      ("kill-node", Nemesis.K_kill_node);
      ("kill-zone", Nemesis.K_kill_zone);
      ("kill-region", Nemesis.K_kill_region);
      ("partition", Nemesis.K_partition);
      ("clock-jump", Nemesis.K_clock_jump);
      ("lease-transfer", Nemesis.K_lease_transfer);
      ("split-range", Nemesis.K_split_range);
      ("merge-range", Nemesis.K_merge_range);
      ("rebalance", Nemesis.K_rebalance);
    ]

let survival_conv =
  Arg.enum
    [
      ("zone", Crdb.Zoneconfig.Zone);
      ("ZONE", Crdb.Zoneconfig.Zone);
      ("region", Crdb.Zoneconfig.Region);
      ("REGION", Crdb.Zoneconfig.Region);
    ]

let run_chaos_one ~seed ~nregions ~survival ~global ~duration ~faults
    ~fault_interval ~fault_duration ~no_quorum_guard ~clients ~ops ~keys
    ~write_ratio ~accounts ~broken ~checker ~txn ~max_conflict_timeouts
    ~autopilot ~min_auto_splits ~dump_history ~show_history ~report ~trace
    ~metrics =
  (* [--checker serializability] implies the transactional workload. *)
  let txn =
    if checker = `Serializability && txn.Chaos_workload.Txn_config.clients = 0
    then { txn with Chaos_workload.Txn_config.clients = 2 }
    else txn
  in
  let txn_clients = txn.Chaos_workload.Txn_config.clients in
  let workload =
    {
      Chaos_workload.seed;
      clients_per_region = clients;
      ops_per_client = ops;
      keys;
      write_ratio;
      accounts;
      txn;
    }
  in
  let setup =
    {
      Harness.default with
      Harness.regions = nregions;
      survival;
      policy = (if global then Crdb.Cluster.Lead else Crdb.Cluster.Lag);
      cluster_seed = seed;
      nemesis_seed = seed;
      duration = duration * 1_000_000;
      nemesis =
        Some
          {
            Nemesis.kinds = faults;
            mean_interval = fault_interval * 1_000;
            mean_duration = fault_duration * 1_000;
            enforce_quorum = not no_quorum_guard;
          };
      workload;
      cluster_config = Some { Cluster.default with broken };
    }
  in
  (* The autopilot races its background queues against the nemesis for the
     whole run: started from [arm], i.e. after range setup and before the
     workload and fault injection begin. *)
  let ap = ref None in
  let arm cl =
    arm_obs (Cluster.obs cl) ~trace;
    if autopilot then ap := Some (Autopilot.start cl)
  in
  let o = Harness.run ~arm setup in
  Option.iter Autopilot.stop !ap;
  let r = o.Harness.result in
  Format.printf "== seed %d ==@." seed;
  Format.printf "fault log:@.%s@." o.Harness.fault_log;
  Format.printf "ops: %d ok, %d failed, %d indeterminate@." r.Chaos_workload.ok
    r.Chaos_workload.failed r.Chaos_workload.info;
  if show_history then begin
    Format.printf "register history:@.%s@."
      (Crdb_check.History.to_string r.Chaos_workload.registers);
    Format.printf "bank history:@.%s@."
      (Crdb_check.History.to_string r.Chaos_workload.bank);
    if txn_clients > 0 then
      Format.printf "txn history:@.%s@."
        (Crdb_check.History.txns_to_string r.Chaos_workload.txns)
  end;
  Format.printf "registers linearizable: %s@."
    (Checker.verdict_to_string o.Harness.register_verdict);
  Format.printf "bank serializable: %s@."
    (Checker.verdict_to_string o.Harness.bank_verdict);
  if txn_clients > 0 then
    Format.printf "txns serializable: %s@."
      (Checker.verdict_to_string o.Harness.txn_verdict);
  Option.iter
    (fun file ->
      let d =
        Dump.of_result ~bank_total:(Chaos_workload.bank_total workload) r
      in
      write_output file (Dump.serialize d);
      Format.printf "history dump -> %s@." file)
    dump_history;
  let obs = Cluster.obs o.Harness.cluster in
  finish_obs obs ~trace ~metrics;
  let m = Crdb.Obs.metrics obs in
  let events = Crdb.Obs.events obs in
  let conflict_timeouts = Crdb.Metrics.total m "kv.conflict_timeouts" in
  Format.printf "conflicts: %d pushes, %d wounds, %d cleanups, %d timeouts@."
    (Crdb.Metrics.total m "kv.txn_pushes")
    (Crdb.Events.count events Crdb.Events.Wound)
    (Crdb.Metrics.total m "kv.intent_cleanups")
    conflict_timeouts;
  let timeouts_ok =
    max_conflict_timeouts < 0 || conflict_timeouts <= max_conflict_timeouts
  in
  if not timeouts_ok then
    Format.eprintf
      "chaos: %d conflict timeouts exceed --max-conflict-timeouts %d@."
      conflict_timeouts max_conflict_timeouts;
  let autopilot_ok =
    match !ap with
    | None ->
        (* A split floor without the queues armed can only fail; refuse it
           loudly rather than letting a gate typo pass vacuously. *)
        if min_auto_splits > 0 then
          Format.eprintf "chaos: --min-auto-splits %d requires --autopilot@."
            min_auto_splits;
        min_auto_splits <= 0
    | Some ap ->
        let s = Autopilot.stats ap in
        let total_splits = Crdb.Events.count events Crdb.Events.Split in
        let manual_splits = total_splits - s.Autopilot.auto_splits in
        Format.printf
          "autopilot: %d splits, %d merges, %d lease moves, %d replica \
           moves, %d cooldown skips (%d manual splits)@."
          s.Autopilot.auto_splits s.Autopilot.auto_merges
          s.Autopilot.lease_moves s.Autopilot.replica_moves s.Autopilot.skips
          manual_splits;
        let splits_ok = s.Autopilot.auto_splits >= min_auto_splits in
        if not splits_ok then
          Format.eprintf
            "chaos: %d autopilot splits below --min-auto-splits %d@."
            s.Autopilot.auto_splits min_auto_splits;
        (* With the gate armed the cluster must reshape itself: any split
           not decided by a queue means an operator (or nemesis) had to
           intervene. *)
        let manual_ok = min_auto_splits <= 0 || manual_splits = 0 in
        if not manual_ok then
          Format.eprintf "chaos: %d manual splits with the autopilot armed@."
            manual_splits;
        splits_ok && manual_ok
  in
  if report then begin
    (* End-of-run introspection: per-phase latency tables (the workload's
       transactions flush into the "txn" op class), WAN round trips, hottest
       ranges, and the structured event log — faults and heals included. *)
    Format.printf "@.== end-of-run report (seed %d) ==@." seed;
    Format.printf "%a"
      (fun ppf o -> Crdb.Report.pp ~timeline:false ppf o)
      obs;
    Format.printf "serializability verdict: %s@."
      (Checker.verdict_to_string
         (if txn_clients > 0 then o.Harness.txn_verdict
          else o.Harness.bank_verdict))
  end;
  Harness.passed o && timeouts_ok && autopilot_ok

let run_chaos seed seeds (nregions, survival) global duration faults fault_interval
    fault_duration no_quorum_guard clients ops keys write_ratio accounts
    broken checker txn_clients txn_ops txn_keys txn_ranges txn_hot_keys
    max_conflict_timeouts autopilot min_auto_splits dump_history show_history
    report trace metrics =
  (* The five --txn-* flags assemble the one workload record. *)
  let txn =
    {
      Chaos_workload.Txn_config.clients = txn_clients;
      ops_per_client = txn_ops;
      keys = txn_keys;
      ranges = txn_ranges;
      hot_keys = txn_hot_keys;
    }
  in
  let all_ok = ref true in
  for s = seed to seed + seeds - 1 do
    let dump_history =
      match dump_history with
      | Some file when seeds > 1 -> Some (Printf.sprintf "%s.%d" file s)
      | d -> d
    in
    if
      not
        (run_chaos_one ~seed:s ~nregions ~survival ~global ~duration ~faults
           ~fault_interval ~fault_duration ~no_quorum_guard ~clients ~ops ~keys
           ~write_ratio ~accounts ~broken ~checker ~txn ~max_conflict_timeouts
           ~autopilot ~min_auto_splits ~dump_history ~show_history ~report
           ~trace ~metrics)
    then all_ok := false
  done;
  if not !all_ok then begin
    Format.eprintf "chaos: consistency violation detected@.";
    exit 1
  end

let chaos_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base seed (cluster, nemesis and workload)") in
  let seeds =
    Arg.(value & opt (int_in ~lo:1 ()) 1
         & info [ "seeds" ] ~doc:"Number of consecutive seeds to run (at least 1)")
  in
  let nregions =
    Arg.(value & opt (int_in ~lo:2 ~hi:(List.length regions5) ()) 3
         & info [ "regions" ] ~doc:"Regions (2-5; at least 3 with --survival region)")
  in
  let survival =
    Arg.(value & opt survival_conv Crdb.Zoneconfig.Region
         & info [ "survival" ] ~doc:"Survivability goal: zone|region")
  in
  (* Surviving a region failure needs a third region to hold the quorum. *)
  let placement =
    let check n survival =
      if survival = Crdb.Zoneconfig.Region && n < 3 then
        Error (`Msg "--survival region needs --regions 3 or more")
      else Ok (n, survival)
    in
    Term.(term_result ~usage:true (const check $ nregions $ survival))
  in
  let global = Arg.(value & flag & info [ "global" ] ~doc:"GLOBAL tables (future-time closed timestamps)") in
  let duration =
    Arg.(value & opt (int_in ~lo:0 ()) 20
         & info [ "duration" ] ~doc:"Nemesis window, simulated seconds")
  in
  let faults =
    Arg.(value & opt (list fault_kind_conv) Nemesis.all_kinds
         & info [ "faults" ]
             ~doc:
               "Comma-separated fault kinds: \
                kill-node,kill-zone,kill-region,partition,clock-jump,\
                lease-transfer,split-range,merge-range,rebalance")
  in
  let fault_interval =
    Arg.(value & opt (int_in ~lo:0 ()) 2000 & info [ "fault-interval" ] ~doc:"Mean ms between fault injections")
  in
  let fault_duration =
    Arg.(value & opt (int_in ~lo:0 ()) 4000 & info [ "fault-duration" ] ~doc:"Mean ms a fault stays active")
  in
  let no_quorum_guard =
    Arg.(value & flag
         & info [ "no-quorum-guard" ]
             ~doc:"Disable the min-healthy invariant (allow killing voter majorities beyond the survivability goal)")
  in
  let clients =
    Arg.(value & opt (int_in ~lo:0 ()) 2
         & info [ "clients" ] ~doc:"Register clients per region")
  in
  let ops =
    Arg.(value & opt (int_in ~lo:0 ()) 20
         & info [ "ops" ] ~doc:"Ops per register client")
  in
  let keys = Arg.(value & opt (int_in ~lo:1 ()) 16 & info [ "keys" ] ~doc:"Register keyspace") in
  let write_ratio =
    Arg.(value & opt (float_in ~lo:0.0 ~hi:1.0) 0.5 & info [ "write-ratio" ] ~doc:"Register write fraction (YCSB-A = 0.5)")
  in
  let accounts =
    Arg.(value & opt (int_in ~lo:0 ()) 8
         & info [ "accounts" ] ~doc:"Bank accounts (< 2 disables the bank workload)")
  in
  (* At most one deliberately broken mode per run: giving two is a usage
     error. *)
  let broken =
    Arg.(value
         & vflag None
             [
               ( Some Cluster.Stale_reads,
                 info [ "unsafe-stale-reads" ]
                   ~doc:
                     "Deliberately broken mode: record bounded-stale reads \
                      as fresh; the checker must object" );
               ( Some Cluster.No_refresh,
                 info [ "unsafe-no-refresh" ]
                   ~doc:
                     "Deliberately broken mode: skip read-span refreshes on \
                      timestamp pushes; the serializability checker must \
                      object" );
               ( Some Cluster.No_recovery,
                 info [ "unsafe-no-recovery" ]
                   ~doc:
                     "Deliberately broken mode: pushers abort STAGING \
                      records without probing their declared in-flight \
                      writes, tearing down implicitly committed \
                      transactions; the serializability checker must \
                      object" );
             ])
  in
  let checker =
    Arg.(value & opt checker_conv `Linearizability
         & info [ "checker" ]
             ~doc:
               "Consistency checker emphasis: linearizability (register \
                history, the default) or serializability (enables the \
                multi-key transactional workload and the dependency-graph \
                cycle checker)")
  in
  let txn_clients =
    Arg.(value & opt (int_in ~lo:0 ()) 0
         & info [ "txn-clients" ]
             ~doc:"Multi-key transactional clients (0 disables; --checker serializability implies 2)")
  in
  let txn_ops =
    Arg.(value & opt (int_in ~lo:0 ()) 12
         & info [ "txn-ops" ] ~doc:"Transactions per transactional client")
  in
  let txn_keys =
    Arg.(value & opt (int_in ~lo:1 ()) 12 & info [ "txn-keys" ] ~doc:"Transactional keyspace")
  in
  let txn_ranges =
    Arg.(
      value
      & opt (int_in ~lo:1 ()) 3
      & info [ "txn-ranges" ] ~doc:"Ranges the transactional keyspace is carved into")
  in
  let txn_hot_keys =
    Arg.(value & opt (int_in ~lo:0 ()) 0
         & info [ "txn-hot-keys" ]
             ~doc:
               "Confine transactional clients to the first N keys, forcing \
                write-write conflicts that exercise wound-wait (0 keeps the \
                uniform picker)")
  in
  let max_conflict_timeouts =
    Arg.(value & opt int (-1)
         & info [ "max-conflict-timeouts" ]
             ~doc:
               "Fail the run if kv.conflict_timeouts exceeds this bound \
                (-1 disables the gate); healthy wound-wait runs expect 0")
  in
  let autopilot =
    Arg.(value & flag
         & info [ "autopilot" ]
             ~doc:
               "Start the autopilot background queues (load-driven split / \
                merge / lease-and-replica rebalance) and race them against \
                the nemesis for the whole run")
  in
  let min_auto_splits =
    Arg.(value & opt int 0
         & info [ "min-auto-splits" ]
             ~doc:
               "With --autopilot, fail the run unless the split queue \
                performed at least N splits on its own and no manual splits \
                occurred (0 disables the gate)")
  in
  let dump_history =
    Arg.(value & opt (some string) None
         & info [ "dump-history" ] ~docv:"FILE"
             ~doc:
               "Serialize the recorded histories to FILE for offline \
                checking with 'crdb_sim check' (with --seeds N, one file \
                per seed, suffixed .SEED)")
  in
  let show_history = Arg.(value & flag & info [ "history" ] ~doc:"Print the full operation histories") in
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:
               "Print the end-of-run introspection report: per-phase latency \
                table, WAN round trips, hottest ranges, cluster events \
                (faults, wounds, lease transfers) and the checker verdict")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run a deterministic nemesis schedule with Jepsen-style history checking")
    Term.(
      const run_chaos $ seed $ seeds $ placement $ global $ duration
      $ faults $ fault_interval $ fault_duration $ no_quorum_guard $ clients
      $ ops $ keys $ write_ratio $ accounts $ broken $ checker
      $ txn_clients $ txn_ops $ txn_keys $ txn_ranges $ txn_hot_keys
      $ max_conflict_timeouts $ autopilot $ min_auto_splits $ dump_history
      $ show_history $ report $ trace_arg $ metrics_arg)

(* ---------------- check (offline) ---------------- *)

let run_check file =
  let contents =
    match open_in_bin file with
    | ic ->
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
    | exception Sys_error msg ->
        Format.eprintf "crdb_sim: %s@." msg;
        exit 2
  in
  match Dump.deserialize contents with
  | Error msg ->
      Format.eprintf "crdb_sim: cannot load %s: %s@." file msg;
      exit 2
  | Ok d ->
      let verdicts = Dump.check d in
      List.iter
        (fun (label, v) ->
          Format.printf "%s: %s@." label (Checker.verdict_to_string v))
        verdicts;
      if not (List.for_all (fun (_, v) -> Checker.is_valid v) verdicts) then begin
        Format.eprintf "check: consistency violation detected@.";
        exit 1
      end

let check_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"History dump written by chaos --dump-history")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Re-run the consistency checkers over a dumped chaos history")
    Term.(const run_check $ file)

(* ---------------- ddl ---------------- *)

let run_ddl schema movr_op =
  let regions = [ "us-east1"; "us-west1"; "europe-west2" ] in
  let stmts, legacy =
    match schema with
    | `Movr ->
        ( Movr.ddl ~db:"movr" ~regions movr_op,
          Movr.legacy_ddl ~db:"movr" ~regions movr_op )
    | `Tpcc ->
        let tables = Tpcc.tables ~regions ~warehouses_per_region:10 in
        ( Tpcc.ddl ~db:"tpcc" ~regions ~warehouses_per_region:10,
          Crdb.Legacy.statements ~db:"tpcc" ~regions ~tables movr_op )
  in
  Format.printf "--- new declarative syntax (%d statements) ---@."
    (List.length stmts);
  List.iter (fun s -> Format.printf "%s;@." (Ddl.to_sql s)) stmts;
  Format.printf "@.--- legacy imperative equivalent (%d statements) ---@."
    (List.length legacy);
  List.iter (fun s -> Format.printf "%s;@." (Ddl.to_sql s)) legacy

let ddl_cmd =
  let schema =
    Arg.(value & opt (enum [ ("movr", `Movr); ("tpcc", `Tpcc) ]) `Movr
         & info [ "schema" ] ~doc:"movr|tpcc")
  in
  let op =
    Arg.(value
         & opt
             (enum
                [ ("new", Movr.New_schema);
                  ("convert", Movr.Convert_schema);
                  ("add", Movr.Add_region "asia-northeast1");
                  ("drop", Movr.Drop_region "europe-west2") ])
             Movr.New_schema
         & info [ "op" ] ~doc:"new|convert|add|drop")
  in
  Cmd.v (Cmd.info "ddl" ~doc:"Print DDL statement lists (Table 2)")
    Term.(const run_ddl $ schema $ op)

(* ---------------- regions ---------------- *)

let run_regions () =
  Format.printf "@[<v>%a@]@."
    (fun ppf () -> Crdb.Latency.pp_matrix Crdb.Latency.table1 regions5 ppf ())
    ();
  Format.printf "@.known GCP regions: %s@."
    (String.concat ", " Crdb.Latency.gcp_region_names)

let regions_cmd =
  Cmd.v (Cmd.info "regions" ~doc:"Print latency profiles")
    Term.(const run_regions $ const ())

(* ---------------- splits ---------------- *)

(* Range-lifecycle demo: grow a single range into (at least) --ranges
   ranges by repeatedly splitting at the store's median key, drive a
   uniform read/write workload whose every request re-resolves its key
   through the ordered span map, then merge pairs back down. *)
let run_splits target_ranges n_keys ops trace metrics =
  let regions = List.filteri (fun i _ -> i < 3) regions5 in
  (* Not Crdb.kv_cluster: the trace must cover the range's first election. *)
  let topology = Crdb.Topology.symmetric ~regions ~nodes_per_region:3 in
  let cl = Cluster.create ~topology ~latency:Crdb.Latency.table1 () in
  arm_obs (Cluster.obs cl) ~trace;
  let zone =
    Crdb.Zoneconfig.derive ~regions ~home:(List.hd regions)
      ~survival:Crdb.Zoneconfig.Zone ~placement:Crdb.Zoneconfig.Default
  in
  ignore
    (Cluster.add_range cl ~span:("user", "user~") ~zone
       ~policy:Cluster.Lag);
  Cluster.settle cl;
  let key i = Printf.sprintf "user%04d" i in
  Cluster.bulk_load cl (List.init n_keys (fun i -> (key i, "v" ^ string_of_int i)));
  (* Split every splittable range, breadth-first, until we reach the target.
     A split lands when its trigger applies, so the ranges a round has asked
     for count towards the target before they exist. *)
  let rec split_loop rounds =
    let n = List.length (Cluster.ranges cl) in
    if rounds > 0 && n < target_ranges then begin
      let asked = ref 0 in
      List.iter
        (fun r ->
          if n + !asked < target_ranges then
            match Cluster.split_point cl r with
            | Some at ->
                if Cluster.split_range cl r ~at <> None then incr asked
            | None -> ())
        (Cluster.ranges cl);
      Cluster.run_for cl 2_000_000;
      split_loop (rounds - 1)
    end
  in
  split_loop 16;
  Cluster.run_for cl 5_000_000;
  let n_ranges = List.length (Cluster.ranges cl) in
  Format.printf "split %d keys into %d ranges (asked for %d)@." n_keys n_ranges
    target_ranges;
  (* Every key must route to a range whose span contains it. *)
  let distinct = Hashtbl.create 64 in
  let bad_routes = ref 0 in
  for i = 0 to n_keys - 1 do
    let k = key i in
    let r = Cluster.range_of_key cl k in
    let s, e = Cluster.span_of cl r in
    if not (s <= k && k < e) then begin
      Format.printf "BAD ROUTE: %s -> r%d [%s,%s)@." k r s e;
      incr bad_routes
    end;
    Hashtbl.replace distinct r ()
  done;
  Format.printf "routing: %d keys resolve onto %d distinct ranges@." n_keys
    (Hashtbl.length distinct);
  (* Uniform read/write traffic across all ranges. *)
  let gw = 0 in
  let errors = ref 0 in
  Cluster.run cl (fun () ->
      for i = 1 to ops do
        let k = key (i * 7 mod n_keys) in
        if i mod 2 = 0 then begin
          let ts = Cluster.now_ts cl gw in
          match
            Cluster.write_and_commit cl ~gateway:gw ~txn:(1000 + i) ~key:k
              ~value:(Some ("w" ^ string_of_int i)) ~ts ()
          with
          | `Ok _ -> ()
          | `Wounded _ | `Err _ -> incr errors
        end
        else
          let ts = Cluster.now_ts cl gw in
          let max_ts =
            Crdb.Timestamp.add_wall ts (Cluster.config cl).Cluster.max_offset
          in
          match Cluster.read cl ~gateway:gw ~txn:None ~key:k ~ts ~max_ts () with
          | `Ok _ | `Uncertain _ -> ()
          | `Redirect | `Wounded _ | `Err _ ->
              incr errors
      done);
  Format.printf "workload: %d ops, %d errors@." ops !errors;
  (* Merge disjoint adjacent pairs back down: every other range in key
     order proposes to subsume the next one. No range is both subsumed and
     subsuming, whose two triggers would race and one find its neighbor
     gone. *)
  let in_key_order =
    List.sort
      (fun a b -> compare (Cluster.span_of cl a) (Cluster.span_of cl b))
      (Cluster.ranges cl)
  in
  let merged = ref 0 in
  List.iteri
    (fun i r -> if i mod 2 = 0 && Cluster.merge_range cl r then incr merged)
    in_key_order;
  Cluster.run_for cl 2_000_000;
  Format.printf "merged %d pairs; %d ranges remain@." !merged
    (List.length (Cluster.ranges cl));
  let obs = Cluster.obs cl in
  let count = Crdb.Events.count (Crdb.Obs.events obs) in
  Format.printf "counters: kv.splits=%d kv.merges=%d kv.rebalances=%d@."
    (count Crdb.Events.Split) (count Crdb.Events.Merge)
    (count Crdb.Events.Rebalance);
  Option.iter (write_trace obs) trace;
  if metrics then Format.printf "%a@." Crdb.Metrics.pp (Crdb.Obs.metrics obs);
  if !errors > 0 || !bad_routes > 0 then exit 1

let splits_cmd =
  let ranges =
    Arg.(value & opt (int_in ~lo:1 ()) 120 & info [ "ranges" ] ~doc:"Target range count")
  in
  let keys = Arg.(value & opt (int_in ~lo:1 ()) 256 & info [ "keys" ] ~doc:"Keys to load") in
  let ops =
    Arg.(value & opt (int_in ~lo:0 ()) 200 & info [ "ops" ] ~doc:"Read/write ops")
  in
  Cmd.v
    (Cmd.info "splits"
       ~doc:
         "Split one range into 100+, route traffic through the span map, \
          then merge back down")
    Term.(const run_splits $ ranges $ keys $ ops $ trace_arg $ metrics_arg)

(* ---------------- report ---------------- *)

(* Deterministic latency-audit scenario: a REGIONAL and a GLOBAL range on a
   3-region Table-1 cluster, a seeded mixed workload from every region (with
   a contended tail to exercise wound-wait), plus scripted range-lifecycle
   events (split, lease transfer, merge). Every observability source
   accumulates in simulated time, so the rendered report and the timeseries
   snapshot are byte-identical across runs of the same seed — check.sh
   diffs two runs. *)
let run_report seed out dump_ts =
  let regions = List.filteri (fun i _ -> i < 3) regions5 in
  let home = List.hd regions in
  let cl, rids =
    Crdb.kv_cluster ~regions ~home ~survival:Crdb.Zoneconfig.Zone
      ~ranges:
        [ (("k", "k~"), Cluster.Lag); (("g", "g~"), Cluster.Lead) ]
      ()
  in
  let reg = List.hd rids in
  let mgr = Crdb.Txn.create_manager cl in
  let sim = Cluster.sim cl in
  let rng = Crdb_stdx.Rng.create ~seed in
  let key i = Printf.sprintf "k%02d" i in
  let gkey i = Printf.sprintf "g%02d" i in
  let gw region = Crdb.Topology.gateway (Cluster.topology cl) ~region () in
  Cluster.run cl (fun () ->
      (* Seed both keyspaces. *)
      for i = 0 to 15 do
        ignore
          (Crdb.Txn.run mgr ~gateway:(gw home) (fun t ->
               Crdb.Txn.put t (key i) "seed"))
      done;
      for i = 0 to 3 do
        ignore (Crdb.Txn.run_blind_put mgr ~gateway:(gw home) (gkey i) "seed")
      done;
      (* Scripted range lifecycle: split, lease transfer, later a merge. *)
      ignore (Cluster.split_range cl reg ~at:(key 8));
      Crdb_sim.Proc.sleep sim 500_000;
      (match Cluster.leaseholder cl reg with
      | Some lh ->
          let target =
            List.find_map
              (fun n ->
                let id = n.Crdb.Topology.id in
                if id <> lh then Some id else None)
              (Crdb.Topology.nodes_in_region (Cluster.topology cl) home)
          in
          Option.iter (fun t -> Cluster.transfer_lease cl reg ~target:t) target
      | None -> ());
      Crdb_sim.Proc.sleep sim 500_000;
      (* Mixed workload: two clients per region; the last two ops of every
         writer contend on the two hottest keys in opposite lock orders. *)
      let clients =
        List.concat_map
          (fun r ->
            List.init 2 (fun c ->
                let crng = Crdb_stdx.Rng.split rng in
                Crdb_sim.Proc.async sim (fun () ->
                    let gwr = gw r in
                    for op = 1 to 12 do
                      Crdb_sim.Proc.sleep sim
                        (30_000 + Crdb_stdx.Rng.int crng 120_000);
                      let hot = op > 10 in
                      let i =
                        if hot then Crdb_stdx.Rng.int crng 2
                        else Crdb_stdx.Rng.int crng 16
                      in
                      ignore
                        (if (op + c) mod 3 = 0 then
                           Crdb.Txn.run_fresh_read mgr ~gateway:gwr (fun ro ->
                               ignore (Crdb.Txn.ro_get ro (gkey (i mod 4))))
                         else
                           Crdb.Txn.run mgr ~gateway:gwr (fun t ->
                               if hot then begin
                                 Crdb.Txn.put t (key i) "w";
                                 Crdb_sim.Proc.sleep sim 20_000;
                                 Crdb.Txn.put t (key (1 - i)) "w"
                               end
                               else if Crdb_stdx.Rng.int crng 2 = 0 then
                                 ignore (Crdb.Txn.get t (key i))
                               else Crdb.Txn.put t (key i) "w"))
                    done)))
          regions
      in
      List.iter Crdb_sim.Proc.await clients;
      ignore (Cluster.merge_range cl reg);
      Crdb_sim.Proc.sleep sim 500_000);
  let obs = Cluster.obs cl in
  let text = Crdb.Report.to_string obs in
  (match out with
  | Some file ->
      write_output file text;
      Format.printf "report -> %s@." file
  | None -> print_string text);
  Option.iter
    (fun file ->
      write_output file (Crdb.Timeseries.to_json (Crdb.Obs.timeseries obs));
      Format.printf "timeseries -> %s@." file)
    dump_ts

let report_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed") in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the report to FILE instead of stdout")
  in
  let dump_ts =
    Arg.(value & opt (some string) None
         & info [ "dump-timeseries" ] ~docv:"FILE"
             ~doc:
               "Write the windowed per-range timeseries snapshot (QPS, \
                write bytes, latency samples) as deterministic JSON")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a deterministic audit scenario and render the end-of-run \
          introspection report (phase latencies, WAN round trips, hottest \
          ranges, event timeline)")
    Term.(const run_report $ seed $ out $ dump_ts)

(* ---------------- default scenario ---------------- *)

(* A small deterministic GLOBAL-table workload touching every layer:
   follower reads on the read side, Raft replication plus commit waits on
   the write side. Runs when --trace/--metrics are passed with no
   subcommand. *)
let run_default trace metrics =
  let regions = List.filteri (fun i _ -> i < 3) regions5 in
  let t, db = Ycsb.setup ~db:"demo" ~regions Ycsb.Global_table ~keyspace:60 in
  arm_obs (Crdb.obs t) ~trace;
  let r =
    Ycsb.run t db ~clients_per_region:2 ~ops_per_client:10 ~locality:1.0
      ~workload:Ycsb.A ~keyspace:60 ~read_mode:Ycsb.Latest ()
  in
  Format.printf "default scenario: %d ops, %d errors, %d ms simulated@."
    r.Ycsb.ops r.Ycsb.errors
    (r.Ycsb.elapsed / 1000);
  finish_obs (Crdb.obs t) ~trace ~metrics

let () =
  let default =
    Term.(
      ret
        (const (fun trace metrics ->
             if trace = None && not metrics then `Help (`Pager, None)
             else `Ok (run_default trace metrics))
        $ trace_arg $ metrics_arg))
  in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "crdb_sim" ~version:Crdb.version
             ~doc:"Simulated multi-region CockroachDB explorer")
          [
            ycsb_cmd;
            tpcc_cmd;
            chaos_cmd;
            check_cmd;
            ddl_cmd;
            regions_cmd;
            splits_cmd;
            report_cmd;
          ]))
