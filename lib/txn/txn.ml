open Cc
module Cluster = Crdb_kv.Cluster
module Ts = Crdb_hlc.Timestamp
module Proc = Crdb_sim.Proc
module Obs = Crdb_obs.Obs
module Trace = Crdb_obs.Trace
module Metrics = Crdb_obs.Metrics
module Phase = Crdb_obs.Phase
module Hist = Crdb_stats.Hist

(* The public transaction API over [Cc_base]'s machinery: [run]'s retry
   loop, the blind-put fast path, the read-only transaction paths and the
   statistics live here. *)

module Options = Cc.Options

type manager = Cc.manager

type stats = Cc.stats = {
  mutable commits : int;
  mutable restarts : int;
  mutable wounds : int;
  mutable reader_commit_waits : int;
  mutable writer_commit_wait_micros : int;
}

let create_manager cl =
  let obs = Cluster.obs cl in
  let m = Obs.metrics obs in
  let n = Crdb_net.Topology.num_nodes (Cluster.topology cl) in
  let per_node name = Array.init n (fun node -> Metrics.counter m ~node name) in
  {
    cl;
    next_txn_id = 1;
    opts = Options.default;
    stats =
      {
        commits = 0;
        restarts = 0;
        wounds = 0;
        reader_commit_waits = 0;
        writer_commit_wait_micros = 0;
      };
    obs;
    c_attempts = per_node "txn.attempts";
    c_commits = per_node "txn.commits";
    c_restarts = per_node "txn.restarts";
    c_wounds = per_node "txn.wounds";
    c_refreshes = per_node "txn.refreshes";
    c_reader_waits = per_node "txn.reader_waits";
    h_commit_wait = Metrics.histogram m "txn.commit_wait";
  }

let cluster mgr = mgr.cl
let stats mgr = mgr.stats
let set_options mgr opts = mgr.opts <- opts
let options mgr = mgr.opts

type t = Cc.attempt

type error = Aborted of string | Unavailable of string

let pp_error ppf = function
  | Aborted m -> Format.fprintf ppf "aborted: %s" m
  | Unavailable m -> Format.fprintf ppf "unavailable: %s" m

exception Restart = Cc.Restart
exception Wounded = Cc.Wounded
exception Fatal = Cc.Fatal
exception Indeterminate = Cc.Indeterminate

let read_ts (t : t) = t.read_ts
let txn_id (t : t) = t.id
let gateway (t : t) = t.gw

let get = Cc_base.get
let scan = Cc_base.scan
let put t key value = Cc_base.write_value t key (Some value)
let delete t key = Cc_base.write_value t key None

let get_locked t strength key =
  Cc_base.acquire_lock t strength key;
  Cc_base.get t key

let get_for_update t key = get_locked t Exclusive key
let get_for_share t key = get_locked t Shared key

type attempt_outcome =
  | Attempt_committed of Ts.t
  | Attempt_aborted of string
  | Attempt_indeterminate of string * Ts.t

(* The outcome of an attempt the client lost track of: before the commit
   record could have been proposed the abort is authoritative; after, the
   transaction may have committed at the timestamp the commit was initiated
   with. *)
let failed_attempt_outcome (t : t) reason =
  if t.commit_initiated then
    Attempt_indeterminate (reason, Ts.max t.read_ts t.write_ts)
  else Attempt_aborted reason

let report on_attempt t outcome =
  match on_attempt with None -> () | Some f -> f t outcome

let run mgr ~gateway ?(max_attempts = 25) ?phases ?on_attempt body =
  let sim = Cluster.sim mgr.cl in
  let tr = Obs.trace mgr.obs in
  (* A caller-supplied phase context is accumulated into but never flushed
     here (the caller owns its lifetime, e.g. to aggregate several
     transactions into one op class); a self-created one is flushed into the
     [phase.txn.*] histograms when the run completes. *)
  let own_ctx = Option.is_none phases in
  let phases =
    match phases with Some p -> p | None -> Phase.make ()
  in
  let backoff n =
    let d = 1_000 * n in
    Phase.add phases Phase.Retry_backoff d;
    Proc.sleep sim d
  in
  let root = Trace.span tr ~node:gateway "txn.run" in
  (* The rollback of a failed attempt uncovered a racing recovery that had
     already committed it: its intents were just resolved as committed, and
     retrying the body would write them a second time. The body's result
     was lost with the exception, so report the commit to the attempt
     observer and fail the call as ambiguous rather than fabricate a
     success. *)
  let recovered_committed (t : t) n reason cts =
    report on_attempt t (Attempt_committed cts);
    Trace.annotate t.sp "committed_by_recovery" (Ts.to_string cts);
    Trace.annotate t.sp "restart" reason;
    Trace.finish tr t.sp;
    (n, Error (Unavailable ("committed by recovery: " ^ reason)))
  in
  let rec attempt n ~pri =
    let t = Cc_base.fresh_txn ?priority:pri ~phases mgr ~gateway in
    (* Retries inherit the first attempt's birth timestamp as their
       wound-wait priority, so a restarted transaction keeps aging instead
       of being reborn young and re-wounded (starvation freedom). *)
    let pri = match pri with Some _ -> pri | None -> Some t.read_ts in
    t.sp <- Trace.span tr ~parent:root ~node:gateway ~txn:t.id "txn.attempt";
    match
      let result = body t in
      Cc_base.commit t;
      result
    with
    | result ->
        report on_attempt t (Attempt_committed (Ts.max t.read_ts t.write_ts));
        Trace.finish tr t.sp;
        (n, Ok result)
    | exception Restart reason -> (
        match Cc_base.abort t with
        | Some cts -> recovered_committed t n reason cts
        | None ->
            report on_attempt t (failed_attempt_outcome t reason);
            mgr.stats.restarts <- mgr.stats.restarts + 1;
            Metrics.inc mgr.c_restarts.(gateway);
            Trace.annotate t.sp "restart" reason;
            Trace.finish tr t.sp;
            if n >= max_attempts then (n, Error (Unavailable reason))
            else begin
              (* Small randomized backoff to break livelocks between
                 retries. *)
              backoff n;
              attempt (n + 1) ~pri
            end)
    | exception Wounded reason -> (
        match Cc_base.abort t with
        | Some cts -> recovered_committed t n reason cts
        | None ->
            report on_attempt t (failed_attempt_outcome t reason);
            mgr.stats.restarts <- mgr.stats.restarts + 1;
            mgr.stats.wounds <- mgr.stats.wounds + 1;
            Metrics.inc mgr.c_restarts.(gateway);
            Metrics.inc mgr.c_wounds.(gateway);
            Trace.annotate t.sp "wounded" reason;
            Trace.finish tr t.sp;
            if n >= max_attempts then (n, Error (Unavailable reason))
            else begin
              backoff n;
              attempt (n + 1) ~pri
            end)
    | exception Indeterminate reason ->
        (* The commit's fate could not be learned (the anchor range stayed
           unreachable): the attempt may have committed, so neither
           resolving its intents as aborted nor retrying the body is
           sound. Leave the record and intents alone — pushers will
           eventually recover them — and surface the ambiguity. *)
        t.finished <- true;
        report on_attempt t (failed_attempt_outcome t reason);
        Trace.annotate t.sp "indeterminate" reason;
        Trace.finish tr t.sp;
        (n, Error (Unavailable reason))
    | exception Fatal reason -> (
        match Cc_base.abort t with
        | Some cts -> recovered_committed t n reason cts
        | None ->
            report on_attempt t (failed_attempt_outcome t reason);
            Trace.annotate t.sp "fatal" reason;
            Trace.finish tr t.sp;
            (n, Error (Unavailable reason)))
    | exception e ->
        ignore (Cc_base.abort t : Ts.t option);
        Trace.finish tr t.sp;
        Trace.finish tr root;
        raise e
  in
  let attempts, result = attempt 1 ~pri:None in
  Trace.annotate root "attempts" (string_of_int attempts);
  Trace.annotate root "result"
    (match result with Ok _ -> "committed" | Error _ -> "failed");
  Phase.annotate phases root;
  Trace.finish tr root;
  if own_ctx then Phase.flush phases ~cls:"txn" (Obs.metrics mgr.obs);
  result

let run_blind_put mgr ~gateway ?(max_attempts = 25) ?phases key value =
  let tr = Obs.trace mgr.obs in
  let own_ctx = Option.is_none phases in
  let phases = match phases with Some p -> p | None -> Phase.make () in
  let root = Trace.span tr ~node:gateway "txn.blind_put" in
  let rec attempt n =
    let id = mgr.next_txn_id in
    mgr.next_txn_id <- id + 1;
    Metrics.inc mgr.c_attempts.(gateway);
    let asp = Trace.span tr ~parent:root ~node:gateway ~txn:id "txn.attempt" in
    let ts = Cluster.now_ts mgr.cl gateway in
    match
      Cluster.write_and_commit mgr.cl ~span:asp ~phases ~gateway ~txn:id ~key
        ~value:(Some value) ~ts ()
    with
    | Ok commit_ts ->
        let wsp =
          Trace.span tr ~parent:asp ~node:gateway ~txn:id "txn.commit_wait"
        in
        let waited = Cc_base.commit_wait mgr ~gw:gateway commit_ts in
        Trace.annotate wsp "waited_us" (string_of_int waited);
        Trace.finish tr wsp;
        Phase.add phases Phase.Commit_wait waited;
        Hist.add mgr.h_commit_wait waited;
        mgr.stats.writer_commit_wait_micros <-
          mgr.stats.writer_commit_wait_micros + waited;
        mgr.stats.commits <- mgr.stats.commits + 1;
        Metrics.inc mgr.c_commits.(gateway);
        Trace.finish tr asp;
        Ok ()
    | Error reason ->
        mgr.stats.restarts <- mgr.stats.restarts + 1;
        Metrics.inc mgr.c_restarts.(gateway);
        Trace.annotate asp "restart" reason;
        Trace.finish tr asp;
        if n >= max_attempts then Error (Unavailable reason)
        else begin
          Phase.add phases Phase.Retry_backoff (1_000 * n);
          Proc.sleep (Cluster.sim mgr.cl) (1_000 * n);
          attempt (n + 1)
        end
  in
  let result = attempt 1 in
  Phase.annotate phases root;
  Trace.finish tr root;
  if own_ctx then Phase.flush phases ~cls:"txn" (Obs.metrics mgr.obs);
  result

(* ------------------------------------------------------------------ *)
(* Read-only transactions                                              *)

type ro =
  | Ro_stale of { mgr : manager; gw : int; ts : Ts.t }
  | Ro_fresh of t

let ro_ts = function Ro_stale { ts; _ } -> ts | Ro_fresh t -> t.read_ts

let stale_get (mgr : manager) ~gw ~ts key =
  match
    Cluster.read_follower mgr.cl ~at:gw ~txn:None ~key ~ts ~max_ts:ts ()
  with
  | Cluster.Read_value { value; _ } -> value
  | Cluster.Read_redirect -> (
      (* Not closed (or blocked by an intent) locally: the leaseholder can
         always serve a read below present time. *)
      match Cluster.read mgr.cl ~gateway:gw ~txn:None ~key ~ts ~max_ts:ts () with
      | Cluster.Read_value { value; _ } -> value
      | Cluster.Read_uncertain _ ->
          (* Impossible: the uncertainty window [ts, ts] is empty. *)
          assert false
      | Cluster.Read_redirect -> raise (Fatal "leaseholder redirected")
      | Cluster.Read_wounded e | Cluster.Read_err e -> raise (Fatal e))
  | Cluster.Read_uncertain _ -> assert false
  | Cluster.Read_wounded e | Cluster.Read_err e -> raise (Fatal e)

let stale_scan (mgr : manager) ~gw ~ts ~start_key ~end_key ~limit =
  match
    Cluster.scan_follower mgr.cl ~at:gw ~txn:None ~start_key ~end_key ~ts
      ~max_ts:ts ~limit ()
  with
  | Cluster.Scan_rows rows -> rows
  | Cluster.Scan_redirect -> (
      match
        Cluster.scan mgr.cl ~gateway:gw ~txn:None ~start_key ~end_key ~ts
          ~max_ts:ts ~limit ()
      with
      | Cluster.Scan_rows rows -> rows
      | Cluster.Scan_uncertain _ -> assert false
      | Cluster.Scan_redirect -> raise (Fatal "leaseholder redirected")
      | Cluster.Scan_wounded e | Cluster.Scan_err e -> raise (Fatal e))
  | Cluster.Scan_uncertain _ -> assert false
  | Cluster.Scan_wounded e | Cluster.Scan_err e -> raise (Fatal e)

let ro_get ro key =
  match ro with
  | Ro_stale { mgr; gw; ts } -> stale_get mgr ~gw ~ts key
  | Ro_fresh t -> get t key

let ro_scan ro ~start_key ~end_key ?limit () =
  match ro with
  | Ro_stale { mgr; gw; ts } ->
      stale_scan mgr ~gw ~ts ~start_key ~end_key ~limit
  | Ro_fresh t -> scan t ~start_key ~end_key ?limit ()

let run_stale_exact mgr ~gateway ~ts body =
  body (Ro_stale { mgr; gw = gateway; ts })

let run_stale_bounded mgr ~gateway ~max_staleness ~keys body =
  let now = Cluster.now_ts mgr.cl gateway in
  let min_ts = Ts.of_wall (max 1 (Ts.wall now - max_staleness)) in
  let negotiated = Cluster.negotiate mgr.cl ~at:gateway ~keys in
  (* Use the freshest locally servable timestamp within the bound; never a
     future one (that would force a commit wait on a read). *)
  let ts =
    if Ts.(negotiated >= min_ts) then Ts.min negotiated now else min_ts
  in
  body (Ro_stale { mgr; gw = gateway; ts })

let run_fresh_read mgr ~gateway ?max_attempts ?phases body =
  run mgr ~gateway ?max_attempts ?phases (fun t -> body (Ro_fresh t))
