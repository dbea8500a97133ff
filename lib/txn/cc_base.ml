(* The paper's concurrency control: pessimistic per-range lock tables with
   wound-wait deadlock resolution, pipelined intent writes and parallel
   commits. This module is the machinery behind [Txn]: reads with
   uncertainty restarts, locking reads, intent writes, read refreshes, the
   parallel/sequential commit protocol, commit-status recovery and record
   heartbeats. *)

open Cc
module Cluster = Crdb_kv.Cluster
module Txnrec = Crdb_kv.Txnrec
module Ts = Crdb_hlc.Timestamp
module Clock = Crdb_hlc.Clock
module Proc = Crdb_sim.Proc
module Obs = Crdb_obs.Obs
module Trace = Crdb_obs.Trace
module Metrics = Crdb_obs.Metrics
module Phase = Crdb_obs.Phase
module Hist = Crdb_stats.Hist
module Sim = Crdb_sim.Sim

(* ------------------------------------------------------------------ *)
(* Read refresh (§5.1)                                                 *)

let refresh_all t ~to_ts =
  if t.mgr.opts.Options.unsafe_no_refresh then ()
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
      | Cluster.Lag _ -> false)
  | exception Not_found -> raise (Fatal ("no range for key " ^ key))

let restartable_read_error e =
  (* Conflict timeouts and unavailability are worth a fresh attempt. *)
  raise (Restart e)

let get t key =
  let rec go attempts =
    if attempts > 20 then raise (Restart "uncertainty loop");
    let own_write = List.mem key t.writes in
    (* Read-your-own-writes under pipelining: wait for in-flight intents on
       this key to apply before reading it. *)
    if own_write then
      List.iter
        (fun (k, ack) ->
          if String.equal k key then
            match
              Proc.await_timeout (Cluster.sim t.mgr.cl) ack ~timeout:8_000_000
            with
            | Some `Applied -> ()
            | Some `Prevented ->
                raise (Wounded ("write prevented by recovery on " ^ key))
            | Some `Dropped | None -> raise (Restart "pipelined write lost"))
        t.outstanding;
    let leaseholder_read () =
      Cluster.read t.mgr.cl ~inline_bump:(t.reads = []) ~span:t.sp
        ~phases:t.phases ~pri:t.pri ~fate:(fate_of t) ~gateway:t.gw
        ~txn:(Some t.id) ~key ~ts:t.read_ts ~max_ts:t.max_ts ()
    in
    let result =
      if is_global t key && not own_write then
        match
          Cluster.read_follower t.mgr.cl ~span:t.sp ~phases:t.phases ~at:t.gw
            ~txn:(Some t.id) ~key ~ts:t.read_ts ~max_ts:t.max_ts ()
        with
        | Cluster.Read_redirect -> leaseholder_read ()
        | r -> r
      else leaseholder_read ()
    in
    match result with
    | Cluster.Read_value { value; _ } ->
        t.reads <- Point key :: t.reads;
        value
    | Cluster.Read_uncertain { value_ts } ->
        (* HLC receive rule on the response: a present-time uncertain value
           ratchets the gateway clock. Synthetic (future-time) timestamps
           from global tables must not — they force a real commit-wait. *)
        if not (is_global t key) then
          Clock.update (Cluster.clock t.mgr.cl t.gw) value_ts;
        bump_and_refresh t value_ts;
        go (attempts + 1)
    | Cluster.Read_redirect -> go (attempts + 1)
    | Cluster.Read_wounded reason -> raise (Wounded reason)
    | Cluster.Read_err e -> restartable_read_error e
  in
  go 0

let scan t ~start_key ~end_key ?limit () =
  let rec go attempts =
    if attempts > 20 then raise (Restart "uncertainty loop");
    let range_is_global =
      match Cluster.range_of_key t.mgr.cl start_key with
      | rid -> (
          match Cluster.policy_of t.mgr.cl rid with
          | Cluster.Lead -> true
          | Cluster.Lag _ -> false)
      | exception Not_found -> raise (Fatal ("no range for key " ^ start_key))
    in
    let leaseholder_scan () =
      Cluster.scan t.mgr.cl ~span:t.sp ~phases:t.phases ~pri:t.pri
        ~fate:(fate_of t) ~gateway:t.gw ~txn:(Some t.id) ~start_key ~end_key
        ~ts:t.read_ts ~max_ts:t.max_ts ~limit ()
    in
    let result =
      if range_is_global && t.writes = [] then
        match
          Cluster.scan_follower t.mgr.cl ~span:t.sp ~phases:t.phases ~at:t.gw
            ~txn:(Some t.id) ~start_key ~end_key ~ts:t.read_ts ~max_ts:t.max_ts
            ~limit ()
        with
        | Cluster.Scan_redirect -> leaseholder_scan ()
        | r -> r
      else leaseholder_scan ()
    in
    match result with
    | Cluster.Scan_rows rows ->
        t.reads <- Span (start_key, end_key) :: t.reads;
        rows
    | Cluster.Scan_uncertain { value_ts } ->
        if not range_is_global then
          Clock.update (Cluster.clock t.mgr.cl t.gw) value_ts;
        bump_and_refresh t value_ts;
        go (attempts + 1)
    | Cluster.Scan_redirect -> go (attempts + 1)
    | Cluster.Scan_wounded reason -> raise (Wounded reason)
    | Cluster.Scan_err e -> restartable_read_error e
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Locking reads (SELECT FOR UPDATE / FOR SHARE)                       *)

let acquire_lock t strength key =
  match
    Cluster.lock_key t.mgr.cl ~span:t.sp ~phases:t.phases ~pri:t.pri
      ~anchor:(Option.value t.anchor ~default:"")
      ~fate:(fate_of t) ~gateway:t.gw ~txn:t.id ~key ~ts:t.read_ts ~strength ()
  with
  | Cluster.Write_ok _ ->
      if not (List.mem key t.rlocks) then t.rlocks <- key :: t.rlocks
  | Cluster.Write_wounded reason -> raise (Wounded reason)
  | Cluster.Write_err e -> raise (Restart e)

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
  let note_written pushed =
    t.write_ts <- Ts.max t.write_ts pushed;
    observe_pushed t key pushed;
    if t.anchor = None then t.anchor <- Some anchor;
    if not (List.mem key t.writes) then t.writes <- key :: t.writes
  in
  if t.mgr.opts.Options.pipelined_writes then begin
    let applied = Crdb_sim.Ivar.create () in
    match
      Cluster.write t.mgr.cl ~applied ~span:t.sp ~phases:t.phases ~pri:t.pri
        ~anchor ~fate:(fate_of t) ~gateway:t.gw ~txn:t.id ~key ~value
        ~ts:provisional ()
    with
    | Cluster.Write_ok pushed ->
        note_written pushed;
        t.outstanding <- (key, applied) :: t.outstanding
    | Cluster.Write_wounded reason -> raise (Wounded reason)
    | Cluster.Write_err e -> raise (Restart e)
  end
  else
    match
      Cluster.write t.mgr.cl ~span:t.sp ~phases:t.phases ~pri:t.pri ~anchor
        ~fate:(fate_of t) ~gateway:t.gw ~txn:t.id ~key ~value ~ts:provisional
        ()
    with
    | Cluster.Write_ok pushed -> note_written pushed
    | Cluster.Write_wounded reason -> raise (Wounded reason)
    | Cluster.Write_err e -> raise (Restart e)

(* ------------------------------------------------------------------ *)
(* Commit protocol                                                     *)

let commit_wait mgr ~gw ts =
  let clock = Cluster.clock mgr.cl gw in
  let sim = Cluster.sim mgr.cl in
  let waited = ref 0 in
  let rec loop () =
    (* CRDB waits on the hybrid clock, not the physical one: a timestamp
       the gateway has already observed (HLC receive rule, e.g. from a
       write response) needs no physical wait. Only synthetic future-time
       timestamps — which never ratchet clocks — force a real wait. *)
    if Ts.(Clock.last clock >= ts) then ()
    else
      let now = Clock.physical_now clock in
      if now < Ts.wall ts then begin
        let d = Ts.wall ts - now + 1 in
        waited := !waited + d;
        Proc.sleep sim d;
        loop ()
      end
  in
  loop ();
  !waited

(* Await every outstanding pipelined write confirmation; all must have
   applied for the commit to be valid. A prevented write means commit-status
   recovery decided against us (restart, same priority); a dropped or silent
   one leaves the write's fate — and hence the commit's — indeterminate. *)
let await_acks t =
  let sim = Cluster.sim t.mgr.cl in
  List.iter
    (fun (key, ack) ->
      match Proc.await_timeout sim ack ~timeout:8_000_000 with
      | Some `Applied -> ()
      | Some `Prevented ->
          raise (Wounded ("write prevented by recovery on " ^ key))
      | Some `Dropped | None -> raise (Restart "pipelined write lost"))
    t.outstanding;
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
                 if Crdb_sim.Ivar.peek ack = Some `Applied then None
                 else Some k)
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
    (* Post-commit bookkeeping: make the commit explicit (so pushers stop
       running recovery against the staging record) and resolve intents.
       [attributed] distinguishes work the client waits for — charged to
       the attempt's span and phases — from work spawned after the ack. *)
    let resolve_now ~attributed () =
      t.finished <- true;
      if not explicitly_committed then
        ignore
          (if attributed then
             Cluster.commit_txn t.mgr.cl ~span:t.sp ~phases:t.phases
               ~gateway:t.gw ~txn:t.id ~key:akey ~ts:commit_ts ()
           else
             Cluster.commit_txn t.mgr.cl ~gateway:t.gw ~txn:t.id ~key:akey
               ~ts:commit_ts ()
            : Txnrec.status option);
      if attributed then
        Cluster.resolve t.mgr.cl ~span:t.sp ~phases:t.phases ~gateway:t.gw
          ~txn:t.id ~commit:(Some commit_ts) ~keys:(resolve_keys t)
          ~sync_all:false ()
      else
        Cluster.resolve t.mgr.cl ~gateway:t.gw ~txn:t.id
          ~commit:(Some commit_ts) ~keys:(resolve_keys t) ~sync_all:false
          ()
    in
    if not t.mgr.opts.Options.hold_locks_during_commit_wait then
      (* The client is acked at the commit point — the implicit commit
         under parallel commits, the record's consensus round otherwise.
         Making the commit explicit and resolving intents is cleanup the
         coordinator runs after the ack (§6.2 releases locks concurrently
         with the commit wait, minimizing how long readers observe them). *)
      Cluster.spawn_background t.mgr.cl (fun () ->
          resolve_now ~attributed:false ())
  end
  else if t.rlocks <> [] then
    (* Read-only but explicitly locked: nothing to commit, but the
       lock-table grips must go. *)
    Cluster.spawn_background t.mgr.cl (fun () ->
        Cluster.resolve t.mgr.cl ~gateway:t.gw ~txn:t.id ~commit:None
          ~keys:(List.rev t.rlocks) ~sync_all:false ());
  let must_wait = t.writes <> [] || t.observed_future in
  if must_wait then begin
    let tr = Obs.trace t.mgr.obs in
    let wsp =
      Trace.span tr ~parent:t.sp ~node:t.gw ~txn:t.id "txn.commit_wait"
    in
    let waited = commit_wait t.mgr ~gw:t.gw commit_ts in
    Trace.annotate wsp "waited_us" (string_of_int waited);
    Trace.finish tr wsp;
    Phase.add t.phases Phase.Commit_wait waited;
    Hist.add t.mgr.h_commit_wait waited;
    if t.writes <> [] then
      t.mgr.stats.writer_commit_wait_micros <-
        t.mgr.stats.writer_commit_wait_micros + waited
    else if waited > 0 then begin
      t.mgr.stats.reader_commit_waits <- t.mgr.stats.reader_commit_waits + 1;
      Metrics.inc t.mgr.c_reader_waits.(t.gw)
    end
  end;
  if t.writes <> [] && t.mgr.opts.Options.hold_locks_during_commit_wait then begin
    (* Spanner-style ablation: locks persist through the commit wait. *)
    let akey = match t.anchor with Some a -> a | None -> assert false in
    t.finished <- true;
    ignore
      (Cluster.commit_txn t.mgr.cl ~span:t.sp ~phases:t.phases ~gateway:t.gw
         ~txn:t.id ~key:akey ~ts:commit_ts ()
        : Txnrec.status option);
    Cluster.resolve t.mgr.cl ~span:t.sp ~phases:t.phases ~gateway:t.gw
      ~txn:t.id ~commit:(Some commit_ts) ~keys:(resolve_keys t)
      ~sync_all:false ()
  end;
  t.finished <- true;
  t.mgr.stats.commits <- t.mgr.stats.commits + 1;
  Metrics.inc t.mgr.c_commits.(t.gw)

let abort t =
  t.finished <- true;
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
   wound-wait relies on — and exits once the transaction finishes. *)
let start_heartbeat t =
  let mgr = t.mgr in
  let sim = Cluster.sim mgr.cl in
  let interval = (Cluster.config mgr.cl).Cluster.txn_heartbeat_interval in
  Proc.spawn sim (fun () ->
      let rec loop () =
        Proc.sleep sim interval;
        if t.finished then ()
        else
          match t.anchor with
          | None -> loop ()
          | Some key ->
              if Crdb_net.Transport.is_alive (Cluster.net mgr.cl) t.gw then
                match
                  Cluster.heartbeat_txn mgr.cl ~gateway:t.gw ~txn:t.id ~key ()
                with
                | Some (Txnrec.Aborted { reason; wound = true }) ->
                    t.fate_ <- `Wounded reason
                | Some (Txnrec.Aborted _) -> t.fate_ <- `Aborted
                | Some (Txnrec.Committed _) -> ()
                | Some (Txnrec.Pending | Txnrec.Staging _) | None -> loop ()
              else loop ()
      in
      loop ())

let fresh_txn ?priority ?(phases = Phase.nil) mgr ~gateway =
  let id = mgr.next_txn_id in
  mgr.next_txn_id <- id + 1;
  Metrics.inc mgr.c_attempts.(gateway);
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
      observed_future = false;
      commit_initiated = false;
      sp = Trace.nil;
      phases;
      rlocks = [];
    }
  in
  start_heartbeat t;
  t
