module Sim = Crdb_sim.Sim
module Rng = Crdb_stdx.Rng
module Vec = Crdb_stdx.Vec
module Obs = Crdb_obs.Obs
module Trace = Crdb_obs.Trace
module Metrics = Crdb_obs.Metrics

type peer_kind = Voter | Learner
type config_change = (int * peer_kind) list
type 'cmd payload = Command of 'cmd | Config of config_change | Noop
type 'cmd entry = { term : int; index : int; payload : 'cmd payload }

type ('cmd, 'snap) message =
  | Pre_vote of { term : int; last_log_index : int; last_log_term : int }
  | Pre_vote_reply of { term : int; granted : bool }
  | Request_vote of { term : int; last_log_index : int; last_log_term : int }
  | Vote of { term : int; granted : bool }
  | Append of {
      term : int;
      prev_index : int;
      prev_term : int;
      entries : 'cmd entry list;
      commit : int;
    }
  | Append_reply of { term : int; success : bool; match_index : int }
  | Install_snapshot of {
      term : int;
      last_index : int;
      last_term : int;
      peers : config_change;
      snap : 'snap;
    }
  | Quiesce of { term : int; commit : int }
  | Timeout_now of { term : int }

type role = Leader | Follower | Candidate

(* Timer periods in microseconds; elections randomize up to 2x. *)
let election_timeout = 3_000_000
let heartbeat_interval = 1_000_000

type ('cmd, 'snap) callbacks = {
  send : int -> ('cmd, 'snap) message -> unit;
  on_apply : index:int -> 'cmd -> unit;
  on_role : role -> unit;
  on_config : config_change -> unit;
  take_snapshot : unit -> 'snap;
  install_snapshot : 'snap -> unit;
  is_node_live : int -> bool;
  node_epoch : int -> int;
  on_discard : 'cmd -> unit;
}

(* A leader's view of one peer's replication, like etcd's [Progress]. *)
type progress = {
  mutable next : int; (* the next index to send; [0] while untracked *)
  mutable matched : int;
  (* Per-peer flow control: a bounded window of appends/snapshots in
     flight (append pipelining). One-at-a-time would serialize every
     proposal behind the previous append's full round trip — a WAN RTT per
     entry on geo-replicated ranges; unbounded would let every proposal
     start another self-sustaining append/reply chain to each follower.
     Heartbeats clear stuck counts (lost replies). *)
  mutable inflight : int;
  (* The follower's log diverged from ours (a rejected append): while
     probing for the common prefix, sends do not optimistically advance
     [next] — each rejection must regress it monotonically, which the
     re-advance would undo, probing the same index forever. A success
     reply returns the peer to pipelined replication. *)
  mutable probing : bool;
  (* Last commit index communicated to the peer, to close the window where
     a fully caught-up follower still lacks the final commit index. *)
  mutable sent_commit : int;
}

type ('cmd, 'snap) t = {
  sim : Sim.t;
  rng : Rng.t;
  id : int;
  cb : ('cmd, 'snap) callbacks;
  mutable peers : config_change;
  (* Cached from [peers], with a slot per voter for the commit rule. *)
  mutable voters : int array;
  mutable others : int list;
  mutable match_buf : int array;
  mutable term : int;
  mutable voted_for : int option;
  (* The log proper starts at [first_index]; entries before it have been
     folded into the snapshot boundary (snap_index, snap_term). *)
  log : 'cmd entry Vec.t;
  mutable snap_index : int;
  mutable snap_term : int;
  mutable commit : int;
  mutable applied : int;
  mutable role : role;
  mutable leader : int option;
  (* Indexed by node id and grown on first use. A node stays tracked until
     the next election, also after it leaves the peer set. *)
  mutable progress : progress array;
  mutable votes : int list;
  mutable prevotes : int list;
  mutable election_timer : Sim.timer option;
  mutable heartbeat_timer : Sim.timer option;
  mutable quiesced : bool;
  (* The leader's liveness epoch captured when this follower quiesced. If the
     leader restarts (epoch bump), its old incarnation's claim to the range
     dies with it: suppression of campaigns must end, or a quiesced range
     whose leader crash-restarts stays leaderless forever. *)
  mutable quiesce_epoch : int;
  mutable last_heartbeat : int;
  mutable last_quorum_contact : int;
  mutable pending_transfer : int option;
  mutable term_start : int; (* index of the no-op that opened our term *)
  mutable stopped : bool;
  obs : Obs.t;
  range : int option;
  c_elections : Metrics.counter;
  c_leader_elected : Metrics.counter;
  c_stepdowns : Metrics.counter;
  c_appends_sent : Metrics.counter;
  c_snapshots_sent : Metrics.counter;
  c_quiesces : Metrics.counter;
  (* Leader-side replication-round latency: sim time from propose to commit
     for each proposal committed under this leadership. *)
  h_commit_latency : Crdb_stats.Hist.t;
  pending_propose : (int, int) Hashtbl.t;
  mutable election_span : Trace.span;
}

let set_peers t peers =
  t.peers <- peers;
  t.voters <-
    Array.of_list
      (List.filter_map
         (fun (p, kind) -> match kind with Voter -> Some p | Learner -> None)
         peers);
  t.others <- List.filter_map (fun (p, _) -> if p <> t.id then Some p else None) peers;
  t.match_buf <- Array.make (Array.length t.voters) 0

let create ~sim ~rng ~id ~peers ~callbacks ?(obs = Obs.null) ?range
    ?(boundary = (0, 0)) () =
  if not (List.mem_assoc id peers) then
    invalid_arg "Raft.create: id must be among peers";
  let snap_index, snap_term = boundary in
  let m = Obs.metrics obs in
  let t =
    {
      sim;
      rng;
      id;
      cb = callbacks;
      peers;
      voters = [||];
      others = [];
      match_buf = [||];
      term = 0;
      voted_for = None;
      log = Vec.create ();
      snap_index;
      snap_term;
      commit = snap_index;
      applied = snap_index;
      role = Follower;
      leader = None;
      progress = [||];
      votes = [];
      prevotes = [];
      election_timer = None;
      heartbeat_timer = None;
      quiesced = false;
      quiesce_epoch = 0;
      last_heartbeat = 0;
      last_quorum_contact = 0;
      pending_transfer = None;
      term_start = 0;
      stopped = false;
      obs;
      range;
      c_elections = Metrics.counter m ~node:id ?range "raft.elections";
      c_leader_elected = Metrics.counter m ~node:id ?range "raft.leader_elected";
      c_stepdowns = Metrics.counter m ~node:id ?range "raft.stepdowns";
      c_appends_sent = Metrics.counter m ~node:id ?range "raft.appends_sent";
      c_snapshots_sent = Metrics.counter m ~node:id ?range "raft.snapshots_sent";
      c_quiesces = Metrics.counter m ~node:id ?range "raft.quiesces";
      h_commit_latency = Metrics.histogram m ~node:id ?range "raft.commit_latency";
      pending_propose = Hashtbl.create 8;
      election_span = Trace.nil;
    }
  in
  set_peers t peers;
  t

let is_leader t = match t.role with Leader -> true | Follower | Candidate -> false
let serving t = is_leader t && t.applied >= t.term_start
let leader_id t = t.leader
let term t = t.term
let commit_index t = t.commit
let applied_index t = t.applied
let peers t = t.peers
let quiesced t = t.quiesced
let last_quorum_contact t = t.last_quorum_contact

let is_voter t node = Array.mem node t.voters
let first_index t = t.snap_index + 1
let last_index t = t.snap_index + Vec.length t.log

let entry_at t i =
  if i < first_index t || i > last_index t then None
  else Some (Vec.get t.log (i - first_index t))

let term_at t i =
  if i = t.snap_index then Some t.snap_term
  else match entry_at t i with Some e -> Some e.term | None -> None

let last_term t =
  match Vec.last t.log with Some e -> e.term | None -> t.snap_term

let untracked sent_commit =
  { next = 0; matched = 0; inflight = 0; probing = false; sent_commit }

(* [node]'s progress, tracked from first use. *)
let progress t node =
  let n = Array.length t.progress in
  if node >= n then
    t.progress <-
      Array.init (max (node + 1) (2 * n)) (fun i ->
          if i < n then t.progress.(i) else untracked 0);
  t.progress.(node)

let commit_target ~commit ~last ~term_start matched =
  let n = Array.length matched in
  (* The quorum-th largest match index: the largest index a quorum holds. *)
  let held = ref commit in
  for i = 0 to n - 1 do
    let m = Array.unsafe_get matched i in
    if m > !held then begin
      let count = ref 0 in
      for j = 0 to n - 1 do
        if Array.unsafe_get matched j >= m then incr count
      done;
      if !count > n / 2 then held := m
    end
  done;
  (* Log terms never decrease, so the leader's own term wrote exactly the
     indices from [term_start] on. *)
  let n = min !held last in
  if n > commit && n >= term_start then n else commit

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)

let cancel_timer = function Some tm -> Sim.cancel tm | None -> ()

(* May this quiesced replica keep trusting its leader in place of heartbeats?
   Only while the oracle reports the leader live under the same incarnation
   it quiesced under — a crash-restarted leader comes back a follower, so its
   liveness must not keep suppressing elections. *)
let quiesced_leader_live t =
  t.quiesced
  &&
  match t.leader with
  | Some l ->
      l <> t.id && t.cb.is_node_live l && t.cb.node_epoch l = t.quiesce_epoch
  | None -> false

(* Append-pipelining window per follower. Large enough that a burst of
   proposals (a pipelined transaction's intents plus its STAGING record,
   commit-index pushes) never waits out a WAN round trip; small enough to
   bound retransmission work after a lost reply. *)
let max_inflight_appends = 8

let rec arm_election_timer t =
  if t.stopped then cancel_timer t.election_timer
  else begin
    let timeout = election_timeout + Rng.int t.rng election_timeout in
    match t.election_timer with
    | Some tm when Sim.timer_pending tm -> Sim.rearm tm ~after:timeout
    | Some _ | None ->
        t.election_timer <-
          Some (Sim.timer t.sim ~after:timeout (fun () -> election_tick t))
  end

and election_tick t =
  if t.stopped then ()
  else begin
    match t.role with
    | Leader -> ()
    | Follower | Candidate ->
        let heard_recently =
          Sim.now t.sim - t.last_heartbeat < election_timeout
        in
        (* A quiesced follower trusts the liveness oracle instead of
           heartbeats (epoch-lease behaviour). *)
        let suppressed = heard_recently || quiesced_leader_live t in
        if suppressed || not (is_voter t t.id) then arm_election_timer t
        else pre_campaign t
  end

(* Pre-vote (Raft §9.6 / 4.2.3): probe for electability without bumping any
   term. A node with a stale log, or one whose peers still hear from a live
   leader, cannot disrupt the group. *)
and pre_campaign t =
  if t.stopped || not (is_voter t t.id) then ()
  else begin
    t.prevotes <- [ t.id ];
    let lli = last_index t and llt = last_term t in
    Array.iter
      (fun p ->
        if p <> t.id then
          t.cb.send p
            (Pre_vote { term = t.term + 1; last_log_index = lli; last_log_term = llt }))
      t.voters;
    arm_election_timer t;
    maybe_prewin t
  end

and maybe_prewin t =
  let quorum = (Array.length t.voters / 2) + 1 in
  if List.length t.prevotes >= quorum then campaign t

and campaign t =
  if t.stopped || not (is_voter t t.id) then ()
  else begin
    t.term <- t.term + 1;
    Metrics.inc t.c_elections;
    (match t.election_span with
    | sp when sp == Trace.nil ->
        let sp =
          Trace.span (Obs.trace t.obs) ~node:t.id ?range:t.range "raft.election"
        in
        Trace.annotate_int sp "term" t.term;
        t.election_span <- sp
    | _ -> ());
    t.role <- Candidate;
    t.voted_for <- Some t.id;
    t.leader <- None;
    t.quiesced <- false;
    t.votes <- [ t.id ];
    t.cb.on_role Candidate;
    let lli = last_index t and llt = last_term t in
    Array.iter
      (fun p ->
        if p <> t.id then
          t.cb.send p (Request_vote { term = t.term; last_log_index = lli; last_log_term = llt }))
      t.voters;
    arm_election_timer t;
    maybe_win t
  end

and maybe_win t =
  let quorum = (Array.length t.voters / 2) + 1 in
  if List.length t.votes >= quorum then become_leader t

and become_leader t =
  t.role <- Leader;
  Hashtbl.reset t.pending_propose;
  Metrics.inc t.c_leader_elected;
  Trace.annotate t.election_span "won" "true";
  Trace.finish (Obs.trace t.obs) t.election_span;
  t.election_span <- Trace.nil;
  t.pending_transfer <- None;
  t.leader <- Some t.id;
  t.quiesced <- false;
  t.progress <- Array.map (fun pr -> untracked pr.sent_commit) t.progress;
  List.iter (fun p -> (progress t p).next <- last_index t + 1) t.others;
  cancel_timer t.election_timer;
  t.election_timer <- None;
  t.last_quorum_contact <- Sim.now t.sim;
  t.cb.on_role Leader;
  (* Commit entries from previous terms by committing one of our own. *)
  t.term_start <- append_local t Noop;
  broadcast t;
  maybe_advance_commit t;
  arm_heartbeat t

and arm_heartbeat t =
  cancel_timer t.heartbeat_timer;
  if not t.stopped then
    t.heartbeat_timer <-
      Some (Sim.timer t.sim ~after:heartbeat_interval (fun () -> heartbeat_tick t))

and heartbeat_tick t =
  match t.role with
  | Follower | Candidate -> ()
  | Leader ->
      let all_caught_up =
        List.for_all (fun p -> (progress t p).matched = last_index t) t.others
        && t.commit = last_index t
      in
      if all_caught_up && not (Vec.is_empty t.log) then begin
        (* Quiesce: tell followers to stop expecting heartbeats. *)
        Metrics.inc t.c_quiesces;
        t.quiesced <- true;
        List.iter
          (fun p ->
            (progress t p).sent_commit <- t.commit;
            t.cb.send p (Quiesce { term = t.term; commit = t.commit }))
          t.others;
        t.heartbeat_timer <- None
      end
      else begin
        (* Periodic heartbeat: also recover from lost replies by clearing
           the in-flight flags before resending. *)
        Array.iter (fun pr -> pr.inflight <- 0) t.progress;
        broadcast t;
        arm_heartbeat t
      end

and append_local t payload =
  let e = { term = t.term; index = last_index t + 1; payload } in
  Vec.push t.log e;
  e.index

and broadcast t = List.iter (replicate_to t) t.others

and replicate_to t peer =
  let pr = progress t peer in
  if pr.inflight < max_inflight_appends then begin
    pr.inflight <- pr.inflight + 1;
    replicate_to_now t peer pr
  end

and replicate_to_now t peer pr =
  let next = if pr.next > 0 then pr.next else last_index t + 1 in
  if next < first_index t then begin
    Metrics.inc t.c_snapshots_sent;
    let snap = t.cb.take_snapshot () in
    (* The copied state machine reflects exactly the entries applied so far,
       so that is the boundary the snapshot must be stamped with. Stamping
       [last_index t] would cover entries still in flight: the receiver
       marks them applied without ever seeing their effects, and — worse —
       counts uncommitted tail entries as committed. The gap
       (applied, last] is replicated by ordinary appends right after. *)
    let boundary = t.applied in
    let boundary_term =
      match term_at t boundary with Some tt -> tt | None -> t.snap_term
    in
    t.cb.send peer
      (Install_snapshot
         {
           term = t.term;
           last_index = boundary;
           last_term = boundary_term;
           peers = t.peers;
           snap;
         })
  end
  else begin
    let prev_index = next - 1 in
    let prev_term =
      match term_at t prev_index with Some tt -> tt | None -> 0
    in
    let entries = Vec.sub_list t.log ~pos:(next - first_index t) in
    Metrics.inc t.c_appends_sent;
    pr.sent_commit <- t.commit;
    (* Optimistically advance next_index past the entries just sent, so a
       pipelined follow-up append carries only newer entries. A rejection
       (gap from a lost or reordered message) regresses it via the
       follower's hint and retransmits. Not while probing a diverged log:
       the regression must stick until a success reply. *)
    if entries <> [] && not pr.probing then pr.next <- last_index t + 1;
    t.cb.send peer
      (Append { term = t.term; prev_index; prev_term; entries; commit = t.commit })
  end

and maybe_advance_commit t =
  match t.role with
  | Follower | Candidate -> ()
  | Leader ->
      for i = 0 to Array.length t.voters - 1 do
        let v = t.voters.(i) in
        t.match_buf.(i) <- (if v = t.id then last_index t else (progress t v).matched)
      done;
      let n =
        commit_target ~commit:t.commit ~last:(last_index t) ~term_start:t.term_start
          t.match_buf
      in
      if n > t.commit then begin
        let now = Sim.now t.sim in
        for i = t.commit + 1 to n do
          match Hashtbl.find_opt t.pending_propose i with
          | Some at ->
              Crdb_stats.Hist.add t.h_commit_latency (now - at);
              Hashtbl.remove t.pending_propose i
          | None -> ()
        done;
        t.commit <- n;
        apply_committed t;
        (* Push the new commit index to followers promptly so closed
           timestamps and follower reads advance with low latency. *)
        broadcast t
      end

and apply_committed t =
  while t.applied < t.commit do
    t.applied <- t.applied + 1;
    match entry_at t t.applied with
    | None -> () (* covered by a snapshot; state already reflects it *)
    | Some e -> (
        match e.payload with
        | Command c -> t.cb.on_apply ~index:e.index c
        | Noop -> ()
        | Config change -> apply_config t change)
  done

and apply_config t change =
  let removed =
    List.filter (fun (p, _) -> not (List.mem_assoc p change)) t.peers
  in
  set_peers t change;
  (match t.role with
  | Leader ->
      List.iter
        (fun p ->
          let pr = progress t p in
          if pr.next = 0 then begin
            pr.next <- last_index t + 1;
            pr.matched <- 0;
            replicate_to t p
          end)
        t.others;
      (* Removed peers must still learn about their removal: send them the
         suffix containing the (now committed) configuration entry. *)
      List.iter (fun (p, _) -> if p <> t.id then replicate_to t p) removed
  | Follower | Candidate -> ());
  t.cb.on_config change;
  if not (List.mem_assoc t.id change) then stop t

and step_down t new_term =
  t.pending_transfer <- None;
  Hashtbl.reset t.pending_propose;
  let was_leader = is_leader t in
  t.term <- new_term;
  t.voted_for <- None;
  t.role <- Follower;
  t.quiesced <- false;
  (* An election lost to a higher term: close the span unannotated. *)
  Trace.finish (Obs.trace t.obs) t.election_span;
  t.election_span <- Trace.nil;
  if was_leader then begin
    Metrics.inc t.c_stepdowns;
    cancel_timer t.heartbeat_timer;
    t.heartbeat_timer <- None;
    t.cb.on_role Follower
  end;
  arm_election_timer t

and stop t =
  t.stopped <- true;
  cancel_timer t.election_timer;
  cancel_timer t.heartbeat_timer;
  t.election_timer <- None;
  t.heartbeat_timer <- None

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)

let handle_pre_vote t ~from ~pterm ~last_log_index ~last_log_term =
  let up_to_date =
    last_log_term > last_term t
    || (last_log_term = last_term t && last_log_index >= last_index t)
  in
  let heard_recently = Sim.now t.sim - t.last_heartbeat < election_timeout in
  let granted =
    pterm > t.term && up_to_date
    && (not (is_leader t))
    && (not heard_recently)
    && not (quiesced_leader_live t)
  in
  t.cb.send from (Pre_vote_reply { term = pterm; granted })

let handle_pre_vote_reply t ~from ~pterm ~granted =
  match t.role with
  | Follower when granted && pterm = t.term + 1 ->
      if not (List.mem from t.prevotes) then t.prevotes <- from :: t.prevotes;
      maybe_prewin t
  | Follower | Candidate | Leader -> ()

let handle_request_vote t ~from ~vterm ~last_log_index ~last_log_term =
  if vterm > t.term then step_down t vterm;
  let up_to_date =
    last_log_term > last_term t
    || (last_log_term = last_term t && last_log_index >= last_index t)
  in
  let granted =
    vterm = t.term && up_to_date
    && (match t.voted_for with None -> true | Some v -> v = from)
    && not (is_leader t)
  in
  if granted then begin
    t.voted_for <- Some from;
    t.last_heartbeat <- Sim.now t.sim;
    arm_election_timer t
  end;
  t.cb.send from (Vote { term = t.term; granted })

let handle_vote t ~from ~vterm ~granted =
  if vterm > t.term then step_down t vterm
  else
    match t.role with
    | Candidate when vterm = t.term && granted ->
        if not (List.mem from t.votes) then t.votes <- from :: t.votes;
        maybe_win t
    | Candidate | Leader | Follower -> ()

let discard_entries t ~from_index =
  (* Notify the state machine of every uncommitted command copy being
     dropped, so pipelined proposers can fail their completion promptly
     instead of waiting out a timeout. Entries at or below the commit index
     are never passed here (committed entries are never overwritten). *)
  for i = max from_index (first_index t) to last_index t do
    match entry_at t i with
    | Some { payload = Command c; _ } -> t.cb.on_discard c
    | Some { payload = Config _ | Noop; _ } | None -> ()
  done

let truncate_from t index =
  (* Drop local entries at [index] and beyond. *)
  if index <= last_index t then begin
    discard_entries t ~from_index:index;
    Vec.truncate t.log (index - first_index t)
  end

let handle_append t ~from ~aterm ~prev_index ~prev_term ~entries ~commit =
  if aterm < t.term then
    t.cb.send from (Append_reply { term = t.term; success = false; match_index = 0 })
  else begin
    if aterm > t.term || (match t.role with Candidate -> true | Leader | Follower -> false)
    then step_down t aterm;
    t.leader <- Some from;
    t.last_heartbeat <- Sim.now t.sim;
    t.quiesced <- false;
    arm_election_timer t;
    let log_matches =
      prev_index <= last_index t
      &&
      match term_at t prev_index with
      | Some tt -> tt = prev_term
      | None -> prev_index < first_index t (* already snapshotted: matches *)
    in
    if not log_matches then
      t.cb.send from
        (Append_reply { term = t.term; success = false; match_index = last_index t })
    else begin
      List.iter
        (fun (e : _ entry) ->
          if e.index <= t.snap_index then ()
          else
            match term_at t e.index with
            | Some tt when tt = e.term -> ()
            | Some _ ->
                truncate_from t e.index;
                Vec.push t.log e
            | None ->
                if e.index = last_index t + 1 then Vec.push t.log e)
        entries;
      let last_new =
        match entries with
        | [] -> prev_index
        | es -> (List.nth es (List.length es - 1)).index
      in
      let new_commit = min commit (max last_new t.commit) in
      if new_commit > t.commit then begin
        t.commit <- new_commit;
        apply_committed t
      end;
      t.cb.send from
        (Append_reply { term = t.term; success = true; match_index = max last_new t.commit })
    end
  end

let handle_append_reply t ~from ~rterm ~success ~match_index =
  let pr = progress t from in
  if pr.inflight > 0 then pr.inflight <- pr.inflight - 1;
  if rterm > t.term then step_down t rterm
  else
    match t.role with
    | Follower | Candidate -> ()
    | Leader when rterm <> t.term -> ()
    | Leader ->
        if success then begin
          pr.probing <- false;
          t.last_quorum_contact <- Sim.now t.sim;
          if match_index > pr.matched then pr.matched <- match_index;
          (* A success reply for an older pipelined append must not regress
             the optimistically advanced [next] (which would retransmit the
             still-in-flight newer entries). *)
          pr.next <- max (match_index + 1) pr.next;
          maybe_advance_commit t;
          (* Keep pushing until this follower has all entries and knows the
             final commit index. *)
          if match_index < last_index t || pr.sent_commit < t.commit then
            replicate_to t from
          else if t.pending_transfer = Some from then begin
            (* Deferred leadership transfer: the target is now caught up. *)
            t.pending_transfer <- None;
            t.cb.send from (Timeout_now { term = t.term })
          end
        end
        else begin
          pr.probing <- true;
          let next = if pr.next > 0 then pr.next else last_index t + 1 in
          (* [match_index] carries the follower's last index as a hint. *)
          pr.next <- max 1 (min (next - 1) (match_index + 1));
          replicate_to t from
        end

let handle_install_snapshot t ~from ~sterm ~slast_index ~slast_term ~speers ~snap =
  if sterm < t.term then
    t.cb.send from (Append_reply { term = t.term; success = false; match_index = 0 })
  else begin
    if sterm > t.term || (match t.role with Candidate -> true | Leader | Follower -> false)
    then step_down t sterm;
    t.leader <- Some from;
    t.last_heartbeat <- Sim.now t.sim;
    arm_election_timer t;
    if slast_index > t.snap_index then begin
      t.cb.install_snapshot snap;
      (* Tail entries beyond both the snapshot boundary and the local
         commit index die uncommitted with the log. *)
      discard_entries t ~from_index:(max slast_index t.commit + 1);
      Vec.clear t.log;
      t.snap_index <- slast_index;
      t.snap_term <- slast_term;
      t.commit <- slast_index;
      t.applied <- slast_index;
      set_peers t speers
    end;
    t.cb.send from
      (Append_reply { term = t.term; success = true; match_index = last_index t })
  end

let handle_quiesce t ~from ~qterm ~commit =
  if qterm >= t.term then begin
    if qterm > t.term then step_down t qterm;
    t.leader <- Some from;
    t.last_heartbeat <- Sim.now t.sim;
    t.quiesced <- true;
    t.quiesce_epoch <- t.cb.node_epoch from;
    let new_commit = min commit (last_index t) in
    if new_commit > t.commit then begin
      t.commit <- new_commit;
      apply_committed t
    end
  end

let handle t ~from msg =
  if t.stopped then ()
  else
    match msg with
    | Pre_vote { term; last_log_index; last_log_term } ->
        handle_pre_vote t ~from ~pterm:term ~last_log_index ~last_log_term
    | Pre_vote_reply { term; granted } ->
        handle_pre_vote_reply t ~from ~pterm:term ~granted
    | Request_vote { term; last_log_index; last_log_term } ->
        handle_request_vote t ~from ~vterm:term ~last_log_index ~last_log_term
    | Vote { term; granted } -> handle_vote t ~from ~vterm:term ~granted
    | Append { term; prev_index; prev_term; entries; commit } ->
        handle_append t ~from ~aterm:term ~prev_index ~prev_term ~entries ~commit
    | Append_reply { term; success; match_index } ->
        handle_append_reply t ~from ~rterm:term ~success ~match_index
    | Install_snapshot { term; last_index; last_term; peers; snap } ->
        handle_install_snapshot t ~from ~sterm:term ~slast_index:last_index
          ~slast_term:last_term ~speers:peers ~snap
    | Quiesce { term; commit } -> handle_quiesce t ~from ~qterm:term ~commit
    | Timeout_now { term } ->
        if term >= t.term then begin
          t.term <- max t.term term;
          campaign t
        end

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)

let propose t cmd =
  match t.role with
  | Follower | Candidate -> None
  | Leader ->
      let index = append_local t (Command cmd) in
      Hashtbl.replace t.pending_propose index (Sim.now t.sim);
      if t.quiesced then t.quiesced <- false;
      if t.heartbeat_timer = None then arm_heartbeat t;
      broadcast t;
      maybe_advance_commit t;
      Some index

let propose_config t change =
  match t.role with
  | Follower | Candidate -> None
  | Leader ->
      if not (List.mem_assoc t.id change) then
        invalid_arg "Raft.propose_config: leader must remain a peer";
      let index = append_local t (Config change) in
      if t.quiesced then t.quiesced <- false;
      if t.heartbeat_timer = None then arm_heartbeat t;
      broadcast t;
      maybe_advance_commit t;
      Some index

(* Single-step membership changes: one replica added or removed at a time,
   so any old-config quorum and any new-config quorum intersect and joint
   consensus is unnecessary. *)
let add_peer t node kind =
  if List.mem_assoc node t.peers then None
  else propose_config t (t.peers @ [ (node, kind) ])

let remove_peer t node =
  if node = t.id then
    invalid_arg "Raft.remove_peer: leader cannot remove itself";
  if not (List.mem_assoc node t.peers) then None
  else propose_config t (List.filter (fun (p, _) -> p <> node) t.peers)

let transfer_leadership t target =
  match t.role with
  | Follower | Candidate -> ()
  | Leader ->
      if target <> t.id && is_voter t target then begin
        let caught_up = (progress t target).matched = last_index t in
        if caught_up then t.cb.send target (Timeout_now { term = t.term })
        else begin
          (* Transfer once the target's log is complete, per the Raft
             leadership-transfer extension; otherwise its election would be
             rejected and would only disrupt the group. *)
          t.pending_transfer <- Some target;
          if t.quiesced then begin
            t.quiesced <- false;
            if t.heartbeat_timer = None then arm_heartbeat t
          end;
          replicate_to t target
        end
      end

let start ?preferred t =
  let first =
    match preferred with
    | Some p when is_voter t p -> p
    | Some _ | None -> Array.fold_left min max_int t.voters
  in
  if t.id = first then campaign t else arm_election_timer t

let restart t =
  (* Process restart: durable state (term, vote, log, snapshot boundary,
     commit/applied indices — all fsynced before acknowledgement in a real
     node) survives; everything held only in memory does not. The replica
     comes back as a follower with no known leader and re-learns peer
     progress, exactly as if recovered from its on-disk state. *)
  t.stopped <- false;
  t.role <- Follower;
  t.leader <- None;
  t.quiesced <- false;
  t.votes <- [];
  t.prevotes <- [];
  t.pending_transfer <- None;
  t.progress <- [||];
  Trace.finish (Obs.trace t.obs) t.election_span;
  t.election_span <- Trace.nil;
  cancel_timer t.heartbeat_timer;
  t.heartbeat_timer <- None;
  (* A freshly booted node waits out a full election timeout before
     campaigning, giving an incumbent leader the chance to re-assert. *)
  t.last_heartbeat <- Sim.now t.sim;
  t.cb.on_role Follower;
  arm_election_timer t
