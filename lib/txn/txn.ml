(* The paper's concurrency control and the public transaction API:
   pessimistic per-range lock tables with wound-wait deadlock resolution,
   pipelined intent writes and parallel commits. Reads with uncertainty
   restarts, locking reads, intent writes, read refreshes, the
   parallel/sequential commit protocol, commit-status recovery and record
   heartbeats sit under [run]'s retry loop, the blind-put fast path and the
   read-only transaction paths. *)

module Cluster = Crdb_kv.Cluster
module Lock_table = Crdb_kv.Lock_table
module Txnrec = Crdb_kv.Txnrec
module Ts = Crdb_hlc.Timestamp
module Clock = Crdb_hlc.Clock
module Proc = Crdb_sim.Proc
module Sim = Crdb_sim.Sim
module Ivar = Crdb_sim.Ivar
module Obs = Crdb_obs.Obs
module Trace = Crdb_obs.Trace
module Metrics = Crdb_obs.Metrics
module Phase = Crdb_obs.Phase
module Hist = Crdb_stats.Hist

module Options = struct
  type t = {
    pipelined_writes : bool;
    parallel_commits : bool;
        (* stage the commit record concurrently with the in-flight intent
           writes' replication (CRDB parallel commits); off, the commit
           record is only written after every intent has replicated *)
  }

  let default = { pipelined_writes = true; parallel_commits = true }
end

type manager = {
  cl : Cluster.t;
  mutable next_txn_id : int;
  mutable opts : Options.t;
  obs : Obs.t;
  c_attempts : Metrics.counter array;
  c_commits : Metrics.counter array;
  c_restarts : Metrics.counter array;
  c_wounds : Metrics.counter array;
  c_refreshes : Metrics.counter array;
  c_reader_waits : Metrics.counter array;
  h_commit_wait : Hist.t;
  phase_sink : Phase.sink Lazy.t;
      (* the [phase.txn.*] histograms, registered at the first flush *)
}

type read_span = Point of string | Span of string * string

type t = {
  mgr : manager;
  id : int;
  gw : int;
  pri : Ts.t; (* wound-wait priority: first-attempt birth timestamp *)
  mutable read_ts : Ts.t;
  max_ts : Ts.t; (* uncertainty upper bound; never changes (§6.1) *)
  mutable write_ts : Ts.t;
  mutable reads : read_span list;
  mutable writes : string list; (* newest first; the anchor is the oldest *)
  mutable anchor : string option;
      (* first written key: where the transaction record lives; [None]
         until the first write succeeds (read-only txns have no record) *)
  mutable outstanding : (string * Cluster.write_ack Ivar.t) list;
      (* pipelined write acks, keyed for read-your-own-writes *)
  mutable fate_ : Cluster.fate;
      (* the coordinator's own view of its fate, fed by heartbeat RPC
         responses; threaded as a closure into every KV op so a wounded
         transaction cancels its in-flight requests *)
  mutable finished : bool; (* stops the heartbeat loop *)
  mutable first_beat : Sim.timer option;
      (* the armed first heartbeat; [finish] cancels it *)
  mutable observed_future : bool;
  mutable commit_initiated : bool;
      (* the commit record may have been proposed: a failure after this
         point leaves the outcome indeterminate, not aborted *)
  mutable sp : Trace.span;  (* this attempt's span; KV ops parent under it *)
  phases : Phase.ctx;
      (* phase-latency accumulator shared by every attempt of one [run];
         KV ops charge Routing/Lease_wait/Lock_wait/Replication into it,
         the coordinator charges Refresh/Commit_wait/Retry_backoff *)
  mutable rlocks : string list;
      (* keys this attempt explicitly locked (FOR UPDATE / FOR SHARE)
         without writing; released alongside the write intents *)
}

let fate_of t () = t.fate_

type error = Aborted of string | Unavailable of string

let pp_error ppf = function
  | Aborted m -> Format.fprintf ppf "aborted: %s" m
  | Unavailable m -> Format.fprintf ppf "unavailable: %s" m

exception Restart of string

exception Wounded of string
(* wound-wait: an older transaction aborted this one to break a deadlock;
   restartable like [Restart], but counted separately *)

exception Fatal of string

exception Indeterminate of string
(* raised only after the commit record may have been proposed, when its
   fate could not be learned from the record either: the attempt may have
   committed, so neither rolling back its intents nor retrying the body is
   sound. Internal: [run] converts it into an [Unavailable] error and an
   [Attempt_indeterminate] outcome without touching the intents. *)

let create_manager cl =
  let obs = Cluster.obs cl in
  let m = Obs.metrics obs in
  let n = Crdb_net.Topology.num_nodes (Cluster.topology cl) in
  let per_node name = Array.init n (fun node -> Metrics.counter m ~node name) in
  {
    cl;
    next_txn_id = 1;
    opts = Options.default;
    obs;
    c_attempts = per_node "txn.attempts";
    c_commits = per_node "txn.commits";
    c_restarts = per_node "txn.restarts";
    c_wounds = per_node "txn.wounds";
    c_refreshes = per_node "txn.refreshes";
    c_reader_waits = per_node "txn.reader_waits";
    h_commit_wait = Metrics.histogram m "txn.commit_wait";
    phase_sink = lazy (Phase.sink m ~cls:"txn");
  }

let set_options mgr opts = mgr.opts <- opts
let options mgr = mgr.opts
let txn_id t = t.id
let gateway t = t.gw

(* ------------------------------------------------------------------ *)
(* Read refresh (§5.1)                                                 *)

let refresh_all t ~to_ts =
  if (Cluster.config t.mgr.cl).Cluster.broken = Some Cluster.No_refresh then ()
  else begin
  (* Validate every read span in parallel (CRDB batches the refresh). *)
  let sim = Cluster.sim t.mgr.cl in
  Metrics.inc t.mgr.c_refreshes.(t.gw);
  let start = Sim.now sim in
  let results =
    List.map
      (fun span ->
        Proc.async_catch sim (fun () ->
            match span with
            | Point key ->
                Cluster.refresh t.mgr.cl ~span:t.sp ~phases:t.phases
                  ~gateway:t.gw ~txn:t.id ~key ~from_ts:t.read_ts ~to_ts ()
            | Span (start_key, end_key) ->
                Cluster.refresh_span t.mgr.cl ~span:t.sp ~phases:t.phases
                  ~gateway:t.gw ~txn:t.id ~start_key ~end_key
                  ~from_ts:t.read_ts ~to_ts ()))
      t.reads
  in
  let ok = List.for_all Proc.await_catch results in
  Phase.add t.phases Phase.Refresh (Sim.now sim - start);
  if not ok then raise (Restart "read refresh failed")
  end

let bump_and_refresh t new_ts =
  if Ts.(new_ts > t.read_ts) then begin
    if t.reads <> [] then refresh_all t ~to_ts:new_ts;
    t.read_ts <- new_ts;
    (* A value above the local hybrid clock is a future-time (synthetic)
       write: the reader must commit-wait before completing (§6.2).
       Present-time (Lag) values were already folded into the clock by the
       HLC receive rule at the call site, so they never trip this. *)
    let clock = Cluster.clock t.mgr.cl t.gw in
    if
      Ts.(new_ts > Clock.last clock)
      && Ts.wall new_ts > Clock.physical_now clock
    then t.observed_future <- true
  end

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)

let is_global t key =
  match Cluster.range_of_key t.mgr.cl key with
  | rid -> (
      match Cluster.policy_of t.mgr.cl rid with
      | Cluster.Lead -> true
      | Cluster.Lag -> false)
  | exception Not_found -> raise (Fatal ("no range for key " ^ key))

(* Await one pipelined write's confirmation. A prevented write means
   commit-status recovery decided against us (restart, same priority); a
   dropped or silent one leaves the write's fate — and hence the commit's —
   indeterminate. *)
let await_ack t (key, ack) =
  match Proc.await_timeout (Cluster.sim t.mgr.cl) ack ~timeout:8_000_000 with
  | Some `Applied -> ()
  | Some `Prevented -> raise (Wounded ("write prevented by recovery on " ^ key))
  | Some `Dropped | None -> raise (Restart "pipelined write lost")

(* The read loop behind [get] and [scan]. Each attempt first awaits [acks]
   (the transaction's own pipelined writes to what it reads), then reads
   through [follower] when [global_key]'s range is GLOBAL and [follower_ok],
   falling back to [leaseholder] on a redirect, and on success records
   [read] among the spans to refresh. *)
let read_loop t ~global_key ~follower_ok ~acks ~read ~follower ~leaseholder =
  let rec go attempts =
    if attempts > 20 then raise (Restart "uncertainty loop");
    List.iter (await_ack t) acks;
    let global = is_global t global_key in
    let result =
      if global && follower_ok then
        match follower () with `Redirect -> leaseholder () | r -> r
      else leaseholder ()
    in
    match result with
    | `Ok v ->
        t.reads <- read :: t.reads;
        v
    | `Uncertain value_ts ->
        (* HLC receive rule on the response: a present-time uncertain value
           ratchets the gateway clock. Synthetic (future-time) timestamps
           from global tables must not — they force a real commit-wait. *)
        if not global then Clock.update (Cluster.clock t.mgr.cl t.gw) value_ts;
        bump_and_refresh t value_ts;
        go (attempts + 1)
    | `Redirect -> go (attempts + 1)
    | `Wounded reason -> raise (Wounded reason)
    | `Err e ->
        (* Conflict timeouts and unavailability are worth a fresh attempt. *)
        raise (Restart e)
  in
  go 0

let get t key =
  (* Read-your-own-writes under pipelining: wait for in-flight intents on
     this key to apply before reading it. A written key is read at the
     leaseholder. *)
  read_loop t ~global_key:key
    ~follower_ok:(not (List.mem key t.writes))
    ~acks:(List.filter (fun (k, _) -> String.equal k key) t.outstanding)
    ~read:(Point key)
    ~follower:(fun () ->
      Cluster.read_follower t.mgr.cl ~span:t.sp ~phases:t.phases ~at:t.gw
        ~txn:(Some t.id) ~key ~ts:t.read_ts ~max_ts:t.max_ts ())
    ~leaseholder:(fun () ->
      Cluster.read t.mgr.cl ~inline_bump:(t.reads = []) ~span:t.sp
        ~phases:t.phases ~pri:t.pri ~fate:(fate_of t) ~gateway:t.gw
        ~txn:(Some t.id) ~key ~ts:t.read_ts ~max_ts:t.max_ts ())

let scan t ~start_key ~end_key ?limit () =
  read_loop t ~global_key:start_key ~follower_ok:(t.writes = []) ~acks:[]
    ~read:(Span (start_key, end_key))
    ~follower:(fun () ->
      Cluster.scan_follower t.mgr.cl ~span:t.sp ~phases:t.phases ~at:t.gw
        ~txn:(Some t.id) ~start_key ~end_key ~ts:t.read_ts ~max_ts:t.max_ts
        ~limit ())
    ~leaseholder:(fun () ->
      Cluster.scan t.mgr.cl ~span:t.sp ~phases:t.phases ~pri:t.pri
        ~fate:(fate_of t) ~gateway:t.gw ~txn:(Some t.id) ~start_key ~end_key
        ~ts:t.read_ts ~max_ts:t.max_ts ~limit ())

(* ------------------------------------------------------------------ *)
(* Locking reads (SELECT FOR UPDATE / FOR SHARE)                       *)

let get_locked t strength key =
  (match
     Cluster.lock_key t.mgr.cl ~span:t.sp ~phases:t.phases ~pri:t.pri
       ~anchor:(Option.value t.anchor ~default:"")
       ~fate:(fate_of t) ~gateway:t.gw ~txn:t.id ~key ~ts:t.read_ts ~strength ()
   with
  | `Ok _ -> if not (List.mem key t.rlocks) then t.rlocks <- key :: t.rlocks
  | `Wounded reason -> raise (Wounded reason)
  | `Err e -> raise (Restart e));
  get t key

let get_for_update t key = get_locked t Lock_table.Exclusive key
let get_for_share t key = get_locked t Lock_table.Shared key

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)

(* HLC receive rule on the write response: the gateway folds a present-time
   pushed timestamp into its clock, so commit-wait (which waits on the
   hybrid clock) is a no-op for it. Future-time (Lead) writes stay
   synthetic and commit-wait for real. *)
let observe_pushed t key pushed =
  if not (is_global t key) then
    Clock.update (Cluster.clock t.mgr.cl t.gw) pushed

let write_value t key value =
  let provisional = Ts.max t.read_ts t.write_ts in
  (* The first write's key becomes the anchor: its apply registers the
     transaction record in that key's range. *)
  let anchor = match t.anchor with Some a -> a | None -> key in
  (* Pipelined, the write returns once evaluated and [applied] fills when it
     replicates; unpipelined, it returns only after replication. *)
  let applied =
    if t.mgr.opts.Options.pipelined_writes then Some (Ivar.create ()) else None
  in
  match
    Cluster.write t.mgr.cl ?applied ~span:t.sp ~phases:t.phases ~pri:t.pri
      ~anchor ~fate:(fate_of t) ~gateway:t.gw ~txn:t.id ~key ~value
      ~ts:provisional ()
  with
  | `Ok pushed ->
      t.write_ts <- Ts.max t.write_ts pushed;
      observe_pushed t key pushed;
      if t.anchor = None then t.anchor <- Some anchor;
      if not (List.mem key t.writes) then t.writes <- key :: t.writes;
      Option.iter (fun a -> t.outstanding <- (key, a) :: t.outstanding) applied
  | `Wounded reason -> raise (Wounded reason)
  | `Err e -> raise (Restart e)

let put t key value = write_value t key (Some value)
let delete t key = write_value t key None

(* ------------------------------------------------------------------ *)
(* Commit protocol                                                     *)

(* Wait until the gateway's hybrid clock passes [ts], under a
   [txn.commit_wait] span; charges the wait to [phases] and the commit-wait
   histogram and returns it in µs. CRDB waits on the hybrid clock, not the
   physical one: a timestamp the gateway has already observed (HLC receive
   rule, e.g. from a write response) needs no physical wait. Only synthetic
   future-time timestamps — which never ratchet clocks — force a real
   wait. *)
let commit_wait mgr ~parent ~gw ~txn ~phases ts =
  let tr = Obs.trace mgr.obs in
  let wsp = Trace.span tr ~parent ~node:gw ~txn "txn.commit_wait" in
  let clock = Cluster.clock mgr.cl gw in
  let rec loop waited =
    if Ts.(Clock.last clock >= ts) then waited
    else
      let now = Clock.physical_now clock in
      if now < Ts.wall ts then begin
        let d = Ts.wall ts - now + 1 in
        Proc.sleep (Cluster.sim mgr.cl) d;
        loop (waited + d)
      end
      else waited
  in
  let waited = loop 0 in
  Trace.annotate_int wsp "waited_us" waited;
  Trace.finish tr wsp;
  Phase.add phases Phase.Commit_wait waited;
  Hist.add mgr.h_commit_wait waited;
  waited

(* Await every outstanding pipelined write confirmation; all must have
   applied for the commit to be valid. *)
let await_acks t =
  List.iter (await_ack t) t.outstanding;
  t.outstanding <- []

(* Commit-time variant of {!await_acks}: once the record may be STAGING, a
   lost ack no longer implies a lost write — the write may have applied
   with only its confirmation dropped, and a concurrent recovery may
   finalize the implicit commit. Classify rather than raise, so the caller
   can learn the fate from the record. A prevention is still decisive: the
   write provably never applied and never will, so the commit is dead. *)
let await_acks_classified t =
  let sim = Cluster.sim t.mgr.cl in
  let out =
    List.fold_left
      (fun acc (key, ack) ->
        match (acc, Proc.await_timeout sim ack ~timeout:8_000_000) with
        | (`Prevented _ as p), _ -> p
        | _, Some `Prevented ->
            `Prevented ("write prevented by recovery on " ^ key)
        | `Lost, _ -> `Lost
        | `Ok, Some `Applied -> `Ok
        | `Ok, (Some `Dropped | None) -> `Lost)
      `Ok t.outstanding
  in
  t.outstanding <- [];
  out

(* Learn the fate of an attempt whose commit became ambiguous (a staging or
   commit reply was lost, or a pipelined write's ack was): run the same
   commit-status recovery a pusher would, against our own record. The
   anchor range's log totally orders our probes and finalization against
   any concurrent recovery, so whatever decision applies first is the one
   we report. A record stuck Pending (the stage proposal itself was lost)
   is aborted in place — first-decision-wins bars a late stage from
   resurrecting it. Only if the anchor range stays unreachable throughout
   do we give up and surface indeterminacy. *)
let determine_fate t ~akey ~commit_ts ~inflight reason =
  let sim = Cluster.sim t.mgr.cl in
  let rec go n =
    if n > 6 then raise (Indeterminate reason)
    else
      match
        Cluster.recover_txn t.mgr.cl ~gateway:t.gw ~span:t.sp ~phases:t.phases
          ~txn:t.id ~anchor_key:akey ~ts:commit_ts ~inflight ()
      with
      | Some (Some cts) -> `Committed cts
      | Some None -> `Aborted
      | None -> (
          match
            Cluster.txn_status t.mgr.cl ~span:t.sp ~phases:t.phases
              ~gateway:t.gw ~txn:t.id ~key:akey ()
          with
          | Some (Txnrec.Committed cts) -> `Committed cts
          | Some (Txnrec.Aborted _) -> `Aborted
          | Some Txnrec.Pending | None -> (
              match
                Cluster.abort_txn t.mgr.cl ~span:t.sp ~gateway:t.gw ~txn:t.id
                  ~key:akey ~reason:"ambiguous commit" ()
              with
              | Some (Txnrec.Aborted _) -> `Aborted
              | Some (Txnrec.Committed cts) -> `Committed cts
              | Some (Txnrec.Pending | Txnrec.Staging _) | None ->
                  Proc.sleep sim (200_000 * n);
                  go (n + 1))
          | Some (Txnrec.Staging _) ->
              Proc.sleep sim (200_000 * n);
              go (n + 1))
  in
  go 1

(* Intent resolution covers explicitly locked keys too: [Op_resolve]'s
   apply releases the lock-table grip and intent resolution on a key the
   transaction never wrote is a no-op. *)
let resolve_keys t =
  List.rev t.writes
  @ List.filter (fun k -> not (List.mem k t.writes)) (List.rev t.rlocks)

(* The attempt is over: its heartbeat stops. A first heartbeat still
   armed leaves the event queue at once; a running loop exits when it next
   wakes. *)
let finish t =
  t.finished <- true;
  Option.iter Sim.cancel t.first_beat

let commit t =
  let sim = Cluster.sim t.mgr.cl in
  let commit_ts = Ts.max t.read_ts t.write_ts in
  (match t.fate_ with
  | `Wounded reason -> raise (Wounded reason)
  | `Aborted -> raise (Restart "transaction aborted")
  | `Live -> ());
  if t.writes <> [] && Ts.(commit_ts > t.read_ts) then begin
    (* The provisional timestamp was pushed (timestamp cache, closed
       timestamp target, or newer committed version): validate reads at the
       commit timestamp before committing. *)
    refresh_all t ~to_ts:commit_ts;
    t.read_ts <- commit_ts
  end;
  if t.writes <> [] then begin
    let akey = match t.anchor with Some a -> a | None -> assert false in
    (* Reach the commit point. The record transition races concurrent
       wound-wait pushes in the anchor range's log, and whichever side
       applies first is authoritative: [Aborted] here means an older
       transaction (or a recovery) got there first. *)
    let explicitly_committed =
      if t.mgr.opts.Options.parallel_commits then begin
        (* Parallel commit: write the record as STAGING — declaring the
           still-unacknowledged writes — concurrently with those writes'
           replication. Implicit commit = staging applied ∧ every declared
           write applied; only then may the client be acked. *)
        let tr = Obs.trace t.mgr.obs in
        let ssp = Trace.span tr ~parent:t.sp ~node:t.gw ~txn:t.id "txn.stage" in
        let stage_start = Sim.now sim in
        let inflight =
          List.sort_uniq String.compare
            (List.filter_map
               (fun (k, ack) ->
                 if Ivar.peek ack = Some `Applied then None else Some k)
               t.outstanding)
        in
        t.commit_initiated <- true;
        let staged =
          Proc.async sim (fun () ->
              Cluster.stage_txn t.mgr.cl ~span:ssp ~phases:t.phases
                ~gateway:t.gw ~txn:t.id ~key:akey ~pri:t.pri ~ts:commit_ts
                ~inflight ())
        in
        let acks = await_acks_classified t in
        let st = Proc.await staged in
        Phase.add t.phases Phase.Staging (Sim.now sim - stage_start);
        Trace.finish tr ssp;
        match (st, acks) with
        | Some (Txnrec.Committed _), _ -> true (* a recovery finalized us *)
        | Some (Txnrec.Aborted { reason; _ }), _ -> raise (Wounded reason)
        | Some (Txnrec.Staging _), `Ok -> false (* implicitly committed *)
        | _, `Prevented reason -> raise (Wounded reason)
        | (Some (Txnrec.Staging _ | Txnrec.Pending) | None), (`Ok | `Lost)
          -> (
            (* The staging reply or a pipelined write's confirmation was
               lost: the implicit commit may have gone through, and a
               concurrent recovery may already have finalized — and
               resolved — it. A blind restart here would re-run a possibly
               committed body (a duplicate write); the fate must come from
               the record. *)
            match
              determine_fate t ~akey ~commit_ts ~inflight
                "commit status indeterminate"
            with
            | `Committed _ -> true
            | `Aborted -> raise (Wounded "ambiguous commit aborted"))
      end
      else begin
        (* Sequential commit: every intent replicates first, then the
           record flips to Committed in its own consensus round. *)
        await_acks t;
        t.commit_initiated <- true;
        match
          Cluster.commit_txn t.mgr.cl ~span:t.sp ~phases:t.phases
            ~gateway:t.gw ~txn:t.id ~key:akey ~ts:commit_ts ()
        with
        | Some (Txnrec.Committed _) -> true
        | Some (Txnrec.Aborted { reason; _ }) -> raise (Wounded reason)
        | Some (Txnrec.Pending | Txnrec.Staging _) | None -> (
            (* The commit reply was lost; the record may have flipped to
               Committed. With no in-flight writes declared, recovery
               degenerates to re-issuing the (idempotent) commit decision. *)
            match
              determine_fate t ~akey ~commit_ts ~inflight:[]
                "commit status indeterminate"
            with
            | `Committed _ -> true
            | `Aborted -> raise (Wounded "ambiguous commit aborted"))
      end
    in
    (* The client is acked at the commit point — the implicit commit under
       parallel commits, the record's consensus round otherwise. Making the
       commit explicit (so pushers stop running recovery against the
       staging record) and resolving intents is cleanup the coordinator
       runs after the ack, unattributed to the attempt's span and phases
       (§6.2 releases locks concurrently with the commit wait, minimizing
       how long readers observe them). *)
    Cluster.spawn_background t.mgr.cl (fun () ->
        finish t;
        if not explicitly_committed then
          ignore
            (Cluster.commit_txn t.mgr.cl ~gateway:t.gw ~txn:t.id ~key:akey
               ~ts:commit_ts ()
              : Txnrec.status option);
        Cluster.resolve t.mgr.cl ~gateway:t.gw ~txn:t.id
          ~commit:(Some commit_ts) ~keys:(resolve_keys t) ~sync_all:false ())
  end
  else if t.rlocks <> [] then
    (* Read-only but explicitly locked: nothing to commit, but the
       lock-table grips must go. *)
    Cluster.spawn_background t.mgr.cl (fun () ->
        Cluster.resolve t.mgr.cl ~gateway:t.gw ~txn:t.id ~commit:None
          ~keys:(List.rev t.rlocks) ~sync_all:false ());
  if t.writes <> [] || t.observed_future then begin
    let waited =
      commit_wait t.mgr ~parent:t.sp ~gw:t.gw ~txn:t.id ~phases:t.phases
        commit_ts
    in
    if t.writes = [] && waited > 0 then Metrics.inc t.mgr.c_reader_waits.(t.gw)
  end;
  finish t;
  Metrics.inc t.mgr.c_commits.(t.gw)

let abort t =
  finish t;
  (* Finalize the record first so concurrent pushers see Aborted; no-op if
     a wound already aborted it. The applied status is authoritative: a
     racing recovery may already have committed a staged attempt
     (first-decision-wins), in which case the intents must resolve as
     committed — removing them would erase a commit concurrent readers may
     have observed. Read-only transactions (no anchor) never had a
     record. *)
  let committed_at =
    match t.anchor with
    | Some key -> (
        match
          Cluster.abort_txn t.mgr.cl ~span:t.sp ~gateway:t.gw ~txn:t.id ~key
            ~reason:"client abort" ()
        with
        | Some (Txnrec.Committed cts) -> Some cts
        | Some (Txnrec.Aborted _ | Txnrec.Pending | Txnrec.Staging _) | None
          ->
            None)
    | None -> None
  in
  if t.writes <> [] || t.rlocks <> [] then
    Cluster.resolve t.mgr.cl ~span:t.sp ~gateway:t.gw ~txn:t.id
      ~commit:committed_at ~keys:(resolve_keys t) ~sync_all:false ();
  committed_at

(* Keep the transaction record live while the coordinator (gateway node) is
   up: pushers treat a record whose heartbeat is stale as abandoned (or, for
   STAGING records, as recoverable) and clean up its intents. Heartbeats
   only start once the first write establishes the anchor — before that
   there is no record to maintain. The responses double as the coordinator's
   wound notifications: an [Aborted] status cancels the transaction's
   in-flight requests through its [fate] closure. The loop stops
   heartbeating while the gateway is down — exactly the abandonment signal
   wound-wait relies on — and exits once the transaction finishes.

   Most transactions finish long before their first heartbeat is due, so
   the first one is a timer, armed in the attempt's first event and
   cancelled by [finish]; only a transaction still running when it fires
   starts the loop, in that same event. *)
let start_heartbeat t =
  let mgr = t.mgr in
  let sim = Cluster.sim mgr.cl in
  let interval = Cluster.txn_heartbeat_interval in
  let rec beat () =
    if t.finished then ()
    else
      match t.anchor with
      | None -> next ()
      | Some key ->
          if Crdb_net.Transport.is_alive (Cluster.net mgr.cl) t.gw then
            match
              Cluster.heartbeat_txn mgr.cl ~gateway:t.gw ~txn:t.id ~key ()
            with
            | Some (Txnrec.Aborted { reason; wound = true }) ->
                t.fate_ <- `Wounded reason
            | Some (Txnrec.Aborted _) -> t.fate_ <- `Aborted
            | Some (Txnrec.Committed _) -> ()
            | Some (Txnrec.Pending | Txnrec.Staging _) | None -> next ()
          else next ()
  and next () =
    Proc.sleep sim interval;
    beat ()
  in
  Sim.schedule sim ~after:0 (fun () ->
      if not t.finished then
        t.first_beat <-
          Some
            (Sim.timer sim ~after:interval (fun () -> Proc.spawn_now sim beat)))

(* ------------------------------------------------------------------ *)
(* Retry loops                                                         *)

let next_attempt_id mgr ~gateway =
  let id = mgr.next_txn_id in
  mgr.next_txn_id <- id + 1;
  Metrics.inc mgr.c_attempts.(gateway);
  id

let fresh_txn ~priority ~phases mgr ~gateway =
  let id = next_attempt_id mgr ~gateway in
  let read_ts = Cluster.now_ts mgr.cl gateway in
  (* Wound-wait priority: the first attempt's birth timestamp, carried
     across retries so a transaction only ever gets older. The record
     itself is registered by the first write's apply at the anchor range —
     no upfront registration RPC. *)
  let pri = match priority with Some p -> p | None -> read_ts in
  let t =
    {
      mgr;
      id;
      gw = gateway;
      pri;
      read_ts;
      max_ts = Ts.add_wall read_ts (Cluster.config mgr.cl).Cluster.max_offset;
      write_ts = Ts.zero;
      reads = [];
      writes = [];
      anchor = None;
      outstanding = [];
      fate_ = `Live;
      finished = false;
      first_beat = None;
      observed_future = false;
      commit_initiated = false;
      sp = Trace.nil;
      phases;
      rlocks = [];
    }
  in
  start_heartbeat t;
  t

(* Run [f ~root ~phases] under a root span named [name]. A caller-supplied
   phase context is accumulated into but never flushed here (the caller owns
   its lifetime, e.g. to aggregate several transactions into one op class);
   a self-created one is flushed into the [phase.txn.*] histograms when the
   run completes. *)
let with_root mgr ~gateway ?phases name f =
  let tr = Obs.trace mgr.obs in
  let own_ctx = Option.is_none phases in
  let phases = match phases with Some p -> p | None -> Phase.make () in
  let root = Trace.span tr ~node:gateway name in
  let result = f ~root ~phases in
  Phase.annotate phases root;
  Trace.finish tr root;
  if own_ctx then Phase.flush phases (Lazy.force mgr.phase_sink);
  result

(* Attempt [n] failed restartably: count the restart, close the attempt's
   span [sp], and tell the caller whether to retry — after a small backoff
   that breaks livelocks between retries — or give up. *)
let note_restart mgr ~gateway ~phases ~max_attempts ~wounded sp n reason =
  Metrics.inc mgr.c_restarts.(gateway);
  if wounded then Metrics.inc mgr.c_wounds.(gateway);
  Trace.annotate sp (if wounded then "wounded" else "restart") reason;
  Trace.finish (Obs.trace mgr.obs) sp;
  if n >= max_attempts then false
  else begin
    Phase.add phases Phase.Retry_backoff (1_000 * n);
    Proc.sleep (Cluster.sim mgr.cl) (1_000 * n);
    true
  end

type attempt_outcome =
  | Attempt_committed of Ts.t
  | Attempt_aborted of string
  | Attempt_indeterminate of string * Ts.t

(* The outcome of an attempt the client lost track of: before the commit
   record could have been proposed the abort is authoritative; after, the
   transaction may have committed at the timestamp the commit was initiated
   with. *)
let failed_attempt_outcome t reason =
  if t.commit_initiated then
    Attempt_indeterminate (reason, Ts.max t.read_ts t.write_ts)
  else Attempt_aborted reason

let run mgr ~gateway ?(max_attempts = 25) ?phases ?on_attempt body =
  let tr = Obs.trace mgr.obs in
  let report t outcome = Option.iter (fun f -> f t outcome) on_attempt in
  with_root mgr ~gateway ?phases "txn.run" @@ fun ~root ~phases ->
  (* The rollback of a failed attempt uncovered a racing recovery that had
     already committed it: its intents were just resolved as committed, and
     retrying the body would write them a second time. The body's result
     was lost with the exception, so report the commit to the attempt
     observer and fail the call as ambiguous rather than fabricate a
     success. *)
  let recovered_committed t n reason cts =
    report t (Attempt_committed cts);
    Trace.annotate t.sp "committed_by_recovery" (Ts.to_string cts);
    Trace.annotate t.sp "restart" reason;
    Trace.finish tr t.sp;
    (n, Error (Unavailable ("committed by recovery: " ^ reason)))
  in
  let rec attempt n ~pri =
    let t = fresh_txn ~priority:pri ~phases mgr ~gateway in
    (* Retries inherit the first attempt's birth timestamp as their
       wound-wait priority, so a restarted transaction keeps aging instead
       of being reborn young and re-wounded (starvation freedom). *)
    let pri = match pri with Some _ -> pri | None -> Some t.read_ts in
    t.sp <- Trace.span tr ~parent:root ~node:gateway ~txn:t.id "txn.attempt";
    match
      let result = body t in
      commit t;
      result
    with
    | result ->
        report t (Attempt_committed (Ts.max t.read_ts t.write_ts));
        Trace.finish tr t.sp;
        (n, Ok result)
    | exception ((Restart reason | Wounded reason) as e) -> (
        match abort t with
        | Some cts -> recovered_committed t n reason cts
        | None ->
            report t (failed_attempt_outcome t reason);
            let wounded = match e with Wounded _ -> true | _ -> false in
            if
              note_restart mgr ~gateway ~phases ~max_attempts ~wounded t.sp n
                reason
            then attempt (n + 1) ~pri
            else (n, Error (Unavailable reason)))
    | exception Indeterminate reason ->
        (* The commit's fate could not be learned (the anchor range stayed
           unreachable): the attempt may have committed, so neither
           resolving its intents as aborted nor retrying the body is
           sound. Leave the record and intents alone — pushers will
           eventually recover them — and surface the ambiguity. *)
        finish t;
        report t (failed_attempt_outcome t reason);
        Trace.annotate t.sp "indeterminate" reason;
        Trace.finish tr t.sp;
        (n, Error (Unavailable reason))
    | exception Fatal reason -> (
        match abort t with
        | Some cts -> recovered_committed t n reason cts
        | None ->
            report t (failed_attempt_outcome t reason);
            Trace.annotate t.sp "fatal" reason;
            Trace.finish tr t.sp;
            (n, Error (Unavailable reason)))
    | exception e ->
        ignore (abort t : Ts.t option);
        Trace.finish tr t.sp;
        Trace.finish tr root;
        raise e
  in
  let attempts, result = attempt 1 ~pri:None in
  Trace.annotate_int root "attempts" attempts;
  Trace.annotate root "result"
    (match result with Ok _ -> "committed" | Error _ -> "failed");
  result

let run_blind_put mgr ~gateway ?(max_attempts = 25) ?phases key value =
  let tr = Obs.trace mgr.obs in
  with_root mgr ~gateway ?phases "txn.blind_put" @@ fun ~root ~phases ->
  let rec attempt n =
    let id = next_attempt_id mgr ~gateway in
    let asp = Trace.span tr ~parent:root ~node:gateway ~txn:id "txn.attempt" in
    let ts = Cluster.now_ts mgr.cl gateway in
    match
      Cluster.write_and_commit mgr.cl ~span:asp ~phases ~gateway ~txn:id ~key
        ~value:(Some value) ~ts ()
    with
    | Ok commit_ts ->
        ignore
          (commit_wait mgr ~parent:asp ~gw:gateway ~txn:id ~phases commit_ts
            : int);
        Metrics.inc mgr.c_commits.(gateway);
        Trace.finish tr asp;
        Ok ()
    | Error reason ->
        if
          note_restart mgr ~gateway ~phases ~max_attempts ~wounded:false asp n
            reason
        then attempt (n + 1)
        else Error (Unavailable reason)
  in
  attempt 1

(* ------------------------------------------------------------------ *)
(* Read-only transactions                                              *)

type ro =
  | Ro_stale of { mgr : manager; gw : int; ts : Ts.t }
  | Ro_fresh of t

let ro_ts = function Ro_stale { ts; _ } -> ts | Ro_fresh t -> t.read_ts

(* A read at exactly a stale timestamp: a nearby replica serves it when its
   closed timestamp covers it; otherwise (not closed locally, or blocked by
   an intent) the leaseholder, which can always serve a read below present
   time. *)
let stale_read ~follower ~leaseholder =
  let value = function
    | `Ok v -> v
    | `Uncertain _ ->
        (* Impossible: the uncertainty window [ts, ts] is empty. *)
        assert false
    | `Redirect -> raise (Fatal "leaseholder redirected")
    | `Wounded e | `Err e -> raise (Fatal e)
  in
  match follower () with `Redirect -> value (leaseholder ()) | r -> value r

let ro_get ro key =
  match ro with
  | Ro_stale { mgr; gw; ts } ->
      stale_read
        ~follower:(fun () ->
          Cluster.read_follower mgr.cl ~at:gw ~txn:None ~key ~ts ~max_ts:ts ())
        ~leaseholder:(fun () ->
          Cluster.read mgr.cl ~gateway:gw ~txn:None ~key ~ts ~max_ts:ts ())
  | Ro_fresh t -> get t key

let ro_scan ro ~start_key ~end_key ?limit () =
  match ro with
  | Ro_stale { mgr; gw; ts } ->
      stale_read
        ~follower:(fun () ->
          Cluster.scan_follower mgr.cl ~at:gw ~txn:None ~start_key ~end_key ~ts
            ~max_ts:ts ~limit ())
        ~leaseholder:(fun () ->
          Cluster.scan mgr.cl ~gateway:gw ~txn:None ~start_key ~end_key ~ts
            ~max_ts:ts ~limit ())
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
