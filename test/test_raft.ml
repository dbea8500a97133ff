(* Tests for the Raft implementation, wired over a tiny in-memory network
   with fixed delivery delay and controllable node failures. *)

module Sim = Crdb_sim.Sim
module Rng = Crdb_stdx.Rng
module Raft = Crdb_raft.Raft

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Commands are strings; snapshots carry the full applied command list. *)
type node = {
  id : int;
  mutable raft : (string, string list) Raft.t option;
  mutable applied : string list; (* newest first *)
  mutable alive : bool;
}

type harness = {
  sim : Sim.t;
  nodes : node array;
  mutable blocked : (int * int) list; (* directed pairs *)
  delay : int;
}

let deliver h src dst msg =
  let blocked = List.mem (src, dst) h.blocked in
  if h.nodes.(src).alive && not blocked then
    Sim.schedule h.sim ~after:h.delay (fun () ->
        let n = h.nodes.(dst) in
        if n.alive && not (List.mem (src, dst) h.blocked) then
          match n.raft with
          | Some r -> Raft.handle r ~from:src msg
          | None -> ())

let node_callbacks h node =
  {
    Raft.send = (fun dst msg -> deliver h node.id dst msg);
    on_apply = (fun ~index:_ cmd -> node.applied <- cmd :: node.applied);
    on_role = (fun _ -> ());
    on_config = (fun _ -> ());
    take_snapshot = (fun () -> node.applied);
    install_snapshot = (fun apps -> node.applied <- apps);
    is_node_live = (fun peer -> h.nodes.(peer).alive);
    node_epoch = (fun _ -> 0);
    on_discard = (fun _ -> ());
  }

let make_harness ?(delay = 1_000) ?(seed = 7) ?boundary ?(spare_nodes = [])
    ~voters ~learners () =
  let ids = voters @ learners in
  let n = List.fold_left max 0 (ids @ spare_nodes) + 1 in
  let h =
    {
      sim = Sim.create ();
      nodes = Array.init n (fun id -> { id; raft = None; applied = []; alive = true });
      blocked = [];
      delay;
    }
  in
  let peers =
    List.map (fun v -> (v, Raft.Voter)) voters
    @ List.map (fun l -> (l, Raft.Learner)) learners
  in
  let rng = Rng.create ~seed in
  List.iter
    (fun id ->
      let node = h.nodes.(id) in
      node.raft <-
        Some
          (Raft.create ~sim:h.sim ~rng:(Rng.split rng) ~id ~peers
             ~callbacks:(node_callbacks h node) ?boundary ()))
    ids;
  List.iter (fun id -> Raft.start (Option.get h.nodes.(id).raft)) ids;
  h

let raft h id = Option.get h.nodes.(id).raft
let applied h id = List.rev h.nodes.(id).applied

let leaders h =
  Array.to_list h.nodes
  |> List.filter_map (fun n ->
         match n.raft with
         | Some r when n.alive && Raft.is_leader r -> Some n.id
         | Some _ | None -> None)

let run_ms h ms = Sim.run ~until:(Sim.now h.sim + (ms * 1000)) h.sim

let find_leader h =
  match leaders h with
  | [ l ] -> l
  | [] -> Alcotest.fail "no leader elected"
  | ls -> Alcotest.failf "multiple leaders: %s" (String.concat "," (List.map string_of_int ls))

let test_initial_election () =
  let h = make_harness ~voters:[ 0; 1; 2 ] ~learners:[] () in
  run_ms h 500;
  let l = find_leader h in
  check Alcotest.int "lowest id campaigns first" 0 l;
  Array.iter
    (fun n ->
      match n.raft with
      | Some r -> check Alcotest.(option int) "all know leader" (Some l) (Raft.leader_id r)
      | None -> ())
    h.nodes

let test_replication () =
  let h = make_harness ~voters:[ 0; 1; 2 ] ~learners:[] () in
  run_ms h 500;
  let l = find_leader h in
  check Alcotest.bool "propose a" true (Raft.propose (raft h l) "a" <> None);
  check Alcotest.bool "propose b" true (Raft.propose (raft h l) "b" <> None);
  check Alcotest.(option int) "follower rejects" None (Raft.propose (raft h ((l + 1) mod 3)) "x");
  run_ms h 500;
  for id = 0 to 2 do
    check Alcotest.(list string) "applied in order" [ "a"; "b" ] (applied h id)
  done

let test_learner_applies_but_never_leads () =
  let h = make_harness ~voters:[ 0; 1; 2 ] ~learners:[ 3 ] () in
  run_ms h 500;
  let l = find_leader h in
  ignore (Raft.propose (raft h l) "a");
  run_ms h 500;
  check Alcotest.(list string) "learner applied" [ "a" ] (applied h 3);
  (* Kill all voters except one; the learner must never campaign. *)
  h.nodes.(l).alive <- false;
  run_ms h 20_000;
  check Alcotest.bool "learner still follower" false (Raft.is_leader (raft h 3))

let test_leader_failover () =
  let h = make_harness ~voters:[ 0; 1; 2 ] ~learners:[] () in
  run_ms h 500;
  let l1 = find_leader h in
  ignore (Raft.propose (raft h l1) "committed-before-crash");
  run_ms h 500;
  h.nodes.(l1).alive <- false;
  run_ms h 15_000;
  let l2 = find_leader h in
  check Alcotest.bool "new leader" true (l2 <> l1);
  ignore (Raft.propose (raft h l2) "after-crash");
  run_ms h 500;
  List.iter
    (fun id ->
      if id <> l1 then
        check Alcotest.(list string) "no committed entry lost"
          [ "committed-before-crash"; "after-crash" ]
          (applied h id))
    [ 0; 1; 2 ]

let test_quiescence () =
  let h = make_harness ~voters:[ 0; 1; 2 ] ~learners:[] () in
  run_ms h 500;
  let l = find_leader h in
  ignore (Raft.propose (raft h l) "a");
  (* After a few heartbeat intervals with no traffic, everyone quiesces. *)
  run_ms h 5_000;
  check Alcotest.bool "leader quiesced" true (Raft.quiesced (raft h l));
  for id = 0 to 2 do
    check Alcotest.bool "replica quiesced" true (Raft.quiesced (raft h id))
  done;
  (* No elections happen while quiesced and the leader is live. *)
  let term_before = Raft.term (raft h l) in
  run_ms h 30_000;
  check Alcotest.int "term stable while quiesced" term_before (Raft.term (raft h l));
  check Alcotest.int "still leader" l (find_leader h);
  (* A new proposal wakes the group. *)
  ignore (Raft.propose (raft h l) "b");
  run_ms h 500;
  for id = 0 to 2 do
    check Alcotest.(list string) "woke and committed" [ "a"; "b" ] (applied h id)
  done

let test_quiesced_leader_death_triggers_election () =
  let h = make_harness ~voters:[ 0; 1; 2 ] ~learners:[] () in
  run_ms h 500;
  let l = find_leader h in
  ignore (Raft.propose (raft h l) "a");
  run_ms h 5_000;
  check Alcotest.bool "quiesced" true (Raft.quiesced (raft h l));
  h.nodes.(l).alive <- false;
  (* The liveness oracle lets followers campaign at their next watchdog. *)
  run_ms h 15_000;
  let l2 = find_leader h in
  check Alcotest.bool "re-elected" true (l2 <> l)

let test_transfer_leadership () =
  let h = make_harness ~voters:[ 0; 1; 2 ] ~learners:[] () in
  run_ms h 500;
  let l = find_leader h in
  let target = (l + 1) mod 3 in
  Raft.transfer_leadership (raft h l) target;
  run_ms h 1_000;
  check Alcotest.int "leadership moved" target (find_leader h);
  ignore (Raft.propose (raft h target) "x");
  run_ms h 500;
  check Alcotest.(list string) "still works" [ "x" ] (applied h l)

let test_minority_partition () =
  let h = make_harness ~voters:[ 0; 1; 2 ] ~learners:[] () in
  run_ms h 500;
  let l = find_leader h in
  ignore (Raft.propose (raft h l) "a");
  run_ms h 500;
  (* Isolate the leader from both followers. *)
  let others = List.filter (fun i -> i <> l) [ 0; 1; 2 ] in
  h.blocked <-
    List.concat_map (fun o -> [ (l, o); (o, l) ]) others;
  (* Proposals on the isolated leader must not commit. *)
  ignore (Raft.propose (raft h l) "lost");
  run_ms h 20_000;
  let l2 =
    match leaders h |> List.filter (fun i -> i <> l) with
    | [ x ] -> x
    | _ -> Alcotest.fail "majority did not elect"
  in
  ignore (Raft.propose (raft h l2) "b");
  run_ms h 1_000;
  (* Heal; old leader steps down and converges, dropping "lost". *)
  h.blocked <- [];
  run_ms h 30_000;
  List.iter
    (fun id ->
      check Alcotest.(list string) "converged without lost write" [ "a"; "b" ]
        (applied h id))
    [ 0; 1; 2 ];
  check Alcotest.int "single leader after heal" l2 (find_leader h)

let test_config_change_adds_node () =
  let h = make_harness ~voters:[ 0; 1; 2 ] ~learners:[ 3 ] () in
  (* Node 3 exists but starts outside the group: recreate the group with just
     3 voters, then add 3 as a learner via reconfiguration. *)
  run_ms h 500;
  let l = find_leader h in
  ignore (Raft.propose (raft h l) "a");
  run_ms h 500;
  let new_config =
    [ (0, Raft.Voter); (1, Raft.Voter); (2, Raft.Voter); (3, Raft.Voter) ]
  in
  check Alcotest.bool "config proposed" true
    (Raft.propose_config (raft h l) new_config <> None);
  run_ms h 2_000;
  check Alcotest.int "peers grew" 4 (List.length (Raft.peers (raft h l)));
  check Alcotest.(list string) "new voter caught up" [ "a" ] (applied h 3);
  ignore (Raft.propose (raft h l) "b");
  run_ms h 1_000;
  check Alcotest.(list string) "replicates to new voter" [ "a"; "b" ] (applied h 3)

let test_snapshot_catch_up () =
  let h = make_harness ~voters:[ 0; 1; 2 ] ~learners:[] () in
  run_ms h 500;
  let l = find_leader h in
  (* Disconnect node 2, write a lot, reconnect: it catches up. *)
  let off = List.filter (fun i -> i <> 2) [ 0; 1; 2 ] in
  h.blocked <- List.concat_map (fun o -> [ (2, o); (o, 2) ]) off;
  for i = 1 to 20 do
    ignore (Raft.propose (raft h l) (Printf.sprintf "w%d" i));
    run_ms h 100
  done;
  h.blocked <- [];
  run_ms h 10_000;
  check Alcotest.int "caught up" 20 (List.length (applied h 2));
  check Alcotest.bool "same log" true (applied h 2 = applied h l)

let test_snapshot_boundary_excludes_uncommitted_tail () =
  (* A group born at a non-zero snapshot boundary (as split ranges are)
     seeds late-added peers by Install_snapshot. The snapshot must be
     stamped with the leader's applied index — the state-machine copy
     reflects exactly that prefix. Stamping the last log index would make
     the receiver mark an appended-but-uncommitted tail as applied, so
     those entries' effects would be missing from its state forever. *)
  let h =
    make_harness ~boundary:(3, 0) ~voters:[ 0; 1; 2 ] ~spare_nodes:[ 3 ]
      ~learners:[] ()
  in
  List.iter (fun id -> h.nodes.(id).applied <- [ "s3"; "s2"; "s1" ]) [ 0; 1; 2 ];
  run_ms h 500;
  let l = find_leader h in
  ignore (Raft.propose (raft h l) "a");
  run_ms h 500;
  check Alcotest.bool "add_peer accepted" true
    (Raft.add_peer (raft h l) 3 Raft.Voter <> None);
  run_ms h 500;
  (* Cut the two followers off, then append an entry that cannot commit:
     the snapshot that seeds the new peer now races an uncommitted tail. *)
  let others = List.filter (fun i -> i <> l && i <> 3) [ 0; 1; 2 ] in
  h.blocked <- List.concat_map (fun o -> [ (l, o); (o, l) ]) others;
  ignore (Raft.propose (raft h l) "c");
  (* Materialize the added peer the way the KV layer does: default (zero)
     boundary and the group's config, forcing Install_snapshot catch-up. *)
  let node = h.nodes.(3) in
  let peers =
    [ (0, Raft.Voter); (1, Raft.Voter); (2, Raft.Voter); (3, Raft.Voter) ]
  in
  node.raft <-
    Some
      (Raft.create ~sim:h.sim ~rng:(Rng.create ~seed:99) ~id:3 ~peers
         ~callbacks:(node_callbacks h node) ());
  Raft.start ~preferred:l (raft h 3);
  run_ms h 3_000;
  h.blocked <- [];
  run_ms h 5_000;
  check Alcotest.(list string) "snapshot-seeded peer converges on the leader"
    (applied h l) (applied h 3);
  check Alcotest.bool "uncommitted-at-snapshot entry reached the new peer" true
    (List.mem "c" (applied h 3))

(* Property: random workloads with a lossy, slow network never violate the
   prefix-consistency of applied logs. *)
let prop_applied_prefix_consistent =
  QCheck.Test.make ~name:"raft applied logs are prefix-consistent" ~count:15
    QCheck.(pair small_int (int_range 1 25))
    (fun (seed, n_cmds) ->
      let h = make_harness ~seed ~voters:[ 0; 1; 2 ] ~learners:[] () in
      let rng = Rng.create ~seed:(seed + 1) in
      run_ms h 500;
      for i = 1 to n_cmds do
        (* Propose at whichever node currently claims leadership. *)
        (match leaders h with
        | l :: _ -> ignore (Raft.propose (raft h l) (string_of_int i))
        | [] -> ());
        (* Occasionally bounce a random node. *)
        if Rng.int rng 10 = 0 then begin
          let victim = Rng.int rng 3 in
          h.nodes.(victim).alive <- false;
          Sim.schedule h.sim ~after:2_000_000 (fun () ->
              h.nodes.(victim).alive <- true)
        end;
        run_ms h (Rng.int rng 300)
      done;
      run_ms h 60_000;
      let logs = List.map (fun id -> applied h id) [ 0; 1; 2 ] in
      let is_prefix a b =
        let rec go = function
          | [], _ -> true
          | _, [] -> false
          | x :: xs, y :: ys -> x = y && go (xs, ys)
        in
        go (a, b)
      in
      List.for_all
        (fun a -> List.for_all (fun b -> is_prefix a b || is_prefix b a) logs)
        logs)

(* The commit rule as a loop over every candidate index, checking for each
   a quorum of match indices and the leader's own term: the oracle for
   [Raft.commit_target]. *)
let commit_by_loop ~commit ~last ~term ~terms matched =
  let quorum = (Array.length matched / 2) + 1 in
  let n = ref commit in
  for candidate = commit + 1 to last do
    let count =
      Array.fold_left (fun c m -> if m >= candidate then c + 1 else c) 0 matched
    in
    if count >= quorum && terms.(candidate) = term then n := candidate
  done;
  !n

let prop_commit_target =
  let gen =
    QCheck.Gen.(
      let* last = int_range 1 30 in
      let* steps = list_repeat last (frequencyl [ (4, 0); (1, 1); (1, 2) ]) in
      let* bump = int_range 0 1 in
      let* commit = int_range 0 last in
      let* voters = int_range 1 7 in
      let* matched = array_repeat voters (int_range 0 (last + 3)) in
      return (last, steps, bump, commit, matched))
  in
  let print (last, steps, bump, commit, matched) =
    Printf.sprintf "last %d, term steps [%s], bump %d, commit %d, matched [%s]" last
      (String.concat ";" (List.map string_of_int steps))
      bump commit
      (String.concat ";" (Array.to_list (Array.map string_of_int matched)))
  in
  QCheck.Test.make ~name:"commit rule matches the per-index loop" ~count:1000
    (QCheck.make ~print gen)
    (fun (last, steps, bump, commit, matched) ->
      (* Monotone log terms at indices 1..last; the leader's term is the
         last entry's or one above (no entry of its own yet). *)
      let terms = Array.make (last + 1) 1 in
      List.iteri (fun i s -> terms.(i + 1) <- terms.(i) + s) steps;
      let term = terms.(last) + bump in
      let term_start =
        let rec first i = if i > last || terms.(i) = term then i else first (i + 1) in
        first 1
      in
      Raft.commit_target ~commit ~last ~term_start matched
      = commit_by_loop ~commit ~last ~term ~terms matched)

let suite =
  [
    Alcotest.test_case "initial election" `Quick test_initial_election;
    Alcotest.test_case "replication" `Quick test_replication;
    Alcotest.test_case "learner" `Quick test_learner_applies_but_never_leads;
    Alcotest.test_case "leader failover" `Quick test_leader_failover;
    Alcotest.test_case "quiescence" `Quick test_quiescence;
    Alcotest.test_case "quiesced leader death" `Quick
      test_quiesced_leader_death_triggers_election;
    Alcotest.test_case "transfer leadership" `Quick test_transfer_leadership;
    Alcotest.test_case "minority partition" `Quick test_minority_partition;
    Alcotest.test_case "config change" `Quick test_config_change_adds_node;
    Alcotest.test_case "snapshot catch up" `Quick test_snapshot_catch_up;
    Alcotest.test_case "snapshot boundary excludes uncommitted tail" `Quick
      test_snapshot_boundary_excludes_uncommitted_tail;
    qcheck prop_applied_prefix_consistent;
    qcheck prop_commit_target;
  ]
