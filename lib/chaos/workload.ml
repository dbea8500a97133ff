module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Rng = Crdb_stdx.Rng
module Topology = Crdb_net.Topology
module Transport = Crdb_net.Transport
module Cluster = Crdb_kv.Cluster
module Zoneconfig = Crdb_kv.Zoneconfig
module Txn = Crdb_txn.Txn
module History = Crdb_check.History

module Txn_config = struct
  type t = {
    clients : int;
    ops_per_client : int;
    keys : int;
    ranges : int;
    hot_keys : int;
  }

  let default = { clients = 0; ops_per_client = 12; keys = 12; ranges = 3; hot_keys = 0 }
end

type config = {
  seed : int;
  clients_per_region : int;
  ops_per_client : int;
  keys : int;
  write_ratio : float;
  accounts : int;
  txn : Txn_config.t;
}

let default =
  {
    seed = 1;
    clients_per_region = 2;
    ops_per_client = 20;
    keys = 16;
    write_ratio = 0.5;
    accounts = 8;
    txn = Txn_config.default;
  }

(* Mean µs between a client's operations. *)
let think_time = 150_000

(* Transaction retry budget under chaos. *)
let max_attempts = 3

(* The bank: clients, operations per client, opening balance per account. *)
let bank_clients = 3
let bank_ops_per_client = 12
let initial_balance = 100

let key_of i = Printf.sprintf "key%03d" i
let account_of i = Printf.sprintf "acct%02d" i
let txn_key_of i = Printf.sprintf "tk%02d" i
let bank_total cfg = cfg.accounts * initial_balance

(* One range for the registers and one for the bank accounts, replicated
   according to the survivability goal, leaseholder pinned to the first
   region. Registers start empty (the checker's initial value is [nil]);
   accounts are preloaded with the initial balance. *)
let setup ?(policy = Cluster.Lag Cluster.close_lag) cl ~survival cfg =
  let regions = Topology.regions (Cluster.topology cl) in
  let home = List.hd regions in
  let zone = Zoneconfig.derive ~regions ~home ~survival ~placement:Zoneconfig.Default in
  let _bank = Cluster.add_range cl ~span:("acct", "acct~") ~zone ~policy in
  let _regs = Cluster.add_range cl ~span:("key", "key~") ~zone ~policy in
  (* The transactional keyspace is deliberately carved into several ranges so
     every multi-key transaction crosses range (and thus leaseholder)
     boundaries; only materialized when transactional clients are enabled so
     existing seeded histories stay byte-identical. *)
  if cfg.txn.Txn_config.clients > 0 then begin
    let tc = cfg.txn in
    let nranges = max 1 (min tc.Txn_config.ranges tc.Txn_config.keys) in
    let per = max 1 (tc.Txn_config.keys / nranges) in
    for r = 0 to nranges - 1 do
      let start_key = if r = 0 then "tk" else txn_key_of (r * per) in
      let end_key = if r = nranges - 1 then "tk~" else txn_key_of ((r + 1) * per) in
      ignore (Cluster.add_range cl ~span:(start_key, end_key) ~zone ~policy)
    done
  end;
  Cluster.settle cl;
  Cluster.bulk_load cl
    (List.init cfg.accounts (fun i -> (account_of i, string_of_int initial_balance)))

type result = {
  registers : History.t;
  bank : History.t;
  txns : History.t;
  mutable ok : int;
  mutable failed : int;
  mutable info : int;
}

let err_string = function
  | Txn.Aborted m -> "aborted: " ^ m
  | Txn.Unavailable m -> "unavailable: " ^ m

(* Clients reconnect like real drivers: each op goes to a currently-live
   gateway in the client's home region, falling back to any live node. *)
let pick_gateway cl rng region =
  let net = Cluster.net cl in
  let topo = Cluster.topology cl in
  let alive nodes =
    List.filter (fun n -> Transport.is_alive net n.Topology.id) nodes
  in
  let candidates =
    match alive (Topology.nodes_in_region topo region) with
    | _ :: _ as l -> l
    | [] -> alive (Array.to_list (Topology.nodes topo))
  in
  match candidates with
  | [] -> 0
  | l -> (List.nth l (Rng.int rng (List.length l))).Topology.id

let record r outcome =
  match outcome with
  | History.Ok_read _ | History.Ok_write | History.Ok_transfer | History.Ok_snapshot _ ->
      r.ok <- r.ok + 1
  | History.Failed _ -> r.failed <- r.failed + 1
  | History.Info _ -> r.info <- r.info + 1

let register_client cl mgr cfg r ~client ~region rng zipf =
  let sim = Cluster.sim cl in
  let h = r.registers in
  for i = 0 to cfg.ops_per_client - 1 do
    Proc.sleep sim ((think_time / 2) + Rng.int rng (max 1 think_time));
    let key = key_of (Rng.Zipf.scrambled_sample zipf rng mod cfg.keys) in
    let gateway = pick_gateway cl rng region in
    if Rng.float rng 1.0 < cfg.write_ratio then begin
      let value = Printf.sprintf "c%d-%d" client i in
      let e =
        History.invoke h ~client ~now:(Sim.now sim) (History.Write { key; value })
      in
      let outcome =
        match
          Txn.run mgr ~gateway ~max_attempts (fun tx ->
              Txn.put tx key value)
        with
        | Ok () -> History.Ok_write
        | Error (Txn.Aborted _ as err) -> History.Failed (err_string err)
        | Error (Txn.Unavailable _ as err) -> History.Info (err_string err)
        | exception Txn.Fatal m -> History.Info ("fatal: " ^ m)
      in
      record r outcome;
      History.complete e ~now:(Sim.now sim) outcome
    end
    else begin
      let e = History.invoke h ~client ~now:(Sim.now sim) (History.Read { key }) in
      let outcome =
        if (Cluster.config cl).Cluster.broken = Some Cluster.Stale_reads then
          (* Deliberately broken mode for checker validation: serve the read
             at a bounded-stale timestamp but record it as a fresh read. *)
          match
            Txn.run_stale_bounded mgr ~gateway ~max_staleness:5_000_000
              ~keys:[ key ] (fun ro -> Txn.ro_get ro key)
          with
          | v -> History.Ok_read v
          | exception Txn.Fatal m -> History.Failed ("fatal: " ^ m)
        else
          match
            Txn.run_fresh_read mgr ~gateway ~max_attempts
              (fun ro -> Txn.ro_get ro key)
          with
          | Ok v -> History.Ok_read v
          | Error err -> History.Failed (err_string err)
          | exception Txn.Fatal m -> History.Failed ("fatal: " ^ m)
      in
      record r outcome;
      History.complete e ~now:(Sim.now sim) outcome
    end
  done

let balance_of = function Some s -> int_of_string s | None -> 0

let bank_client cl mgr cfg r ~client ~region rng =
  let sim = Cluster.sim cl in
  let h = r.bank in
  let accounts = List.init cfg.accounts account_of in
  for i = 0 to bank_ops_per_client - 1 do
    Proc.sleep sim ((think_time / 2) + Rng.int rng (max 1 think_time));
    let gateway = pick_gateway cl rng region in
    if i mod 4 = 3 then begin
      let e = History.invoke h ~client ~now:(Sim.now sim) History.Snapshot in
      let outcome =
        match
          Txn.run_fresh_read mgr ~gateway ~max_attempts
            (fun ro -> List.map (fun a -> (a, balance_of (Txn.ro_get ro a))) accounts)
        with
        | Ok rows -> History.Ok_snapshot rows
        | Error err -> History.Failed (err_string err)
        | exception Txn.Fatal m -> History.Failed ("fatal: " ^ m)
      in
      record r outcome;
      History.complete e ~now:(Sim.now sim) outcome
    end
    else begin
      let src = Rng.int rng cfg.accounts in
      let dst = (src + 1 + Rng.int rng (cfg.accounts - 1)) mod cfg.accounts in
      let amount = 1 + Rng.int rng 20 in
      let e =
        History.invoke h ~client ~now:(Sim.now sim)
          (History.Transfer { src = account_of src; dst = account_of dst; amount })
      in
      let outcome =
        match
          Txn.run mgr ~gateway ~max_attempts (fun tx ->
              let b_src = balance_of (Txn.get tx (account_of src)) in
              let b_dst = balance_of (Txn.get tx (account_of dst)) in
              Txn.put tx (account_of src) (string_of_int (b_src - amount));
              Txn.put tx (account_of dst) (string_of_int (b_dst + amount)))
        with
        | Ok () -> History.Ok_transfer
        | Error (Txn.Aborted _ as err) -> History.Failed (err_string err)
        | Error (Txn.Unavailable _ as err) -> History.Info (err_string err)
        | exception Txn.Fatal m -> History.Info ("fatal: " ^ m)
      in
      record r outcome;
      History.complete e ~now:(Sim.now sim) outcome
    end
  done

let txn_status_of_outcome = function
  | Txn.Attempt_committed ts -> History.T_committed { commit_ts = ts }
  | Txn.Attempt_aborted _ -> History.T_aborted
  | Txn.Attempt_indeterminate (_, ts) -> History.T_indeterminate { commit_ts = Some ts }

(* Multi-key read-write transactions for the serializability checker: each
   picks 2-4 distinct keys guaranteed to span at least two ranges, reads all
   of them, then overwrites a strict subset with values unique to the
   attempt ([a<txn_id>.<key>]) so the checker can infer which version every
   read observed. Every physical attempt — including retried and
   indeterminate ones — is recorded via [on_attempt]. *)
let txn_client cl mgr cfg r ~client ~region rng =
  let sim = Cluster.sim cl in
  let h = r.txns in
  let tc = cfg.txn in
  let nranges = max 1 (min tc.Txn_config.ranges tc.Txn_config.keys) in
  let per = max 1 (tc.Txn_config.keys / nranges) in
  let in_bucket b =
    let lo = b * per in
    let hi =
      if b = nranges - 1 then tc.Txn_config.keys else min tc.Txn_config.keys (lo + per)
    in
    lo + Rng.int rng (max 1 (hi - lo))
  in
  (* Conflict-heavy mode: confine every transaction to the first
     [hot_keys] keys so writers pile onto the same locks (wound-wait
     exercise). Off ([= 0]) by default, leaving the code path — and thus
     seeded histories — untouched. *)
  let pick_hot_keys () =
    let hot = min tc.Txn_config.hot_keys tc.Txn_config.keys in
    let nkeys = min hot (2 + Rng.int rng 3) in
    let rec fill acc n =
      if n <= 0 then List.rev acc
      else
        let k = Rng.int rng hot in
        if List.mem k acc then fill acc n else fill (k :: acc) (n - 1)
    in
    List.map txn_key_of (fill [] nkeys)
  in
  let pick_keys () =
    let nkeys = min tc.Txn_config.keys (2 + Rng.int rng 3) in
    let b1 = Rng.int rng nranges in
    let b2 =
      if nranges > 1 then (b1 + 1 + Rng.int rng (nranges - 1)) mod nranges else b1
    in
    let first = in_bucket b1 in
    let second =
      let k = in_bucket b2 in
      if k = first then (k + 1) mod tc.Txn_config.keys else k
    in
    let rec fill acc n =
      if n <= 0 then List.rev acc
      else
        let k = Rng.int rng tc.Txn_config.keys in
        if List.mem k acc then fill acc n else fill (k :: acc) (n - 1)
    in
    List.map txn_key_of (fill [ second; first ] (nkeys - 2))
  in
  for _ = 0 to tc.Txn_config.ops_per_client - 1 do
    Proc.sleep sim ((think_time / 2) + Rng.int rng (max 1 think_time));
    let gateway = pick_gateway cl rng region in
    let keys =
      if tc.Txn_config.hot_keys >= 2 then pick_hot_keys () else pick_keys ()
    in
    (* Strictly fewer writes than reads: every transaction carries at least
       one read-only key, the source of pure anti-dependencies. *)
    let nwrites = 1 + Rng.int rng (List.length keys - 1) in
    let ops = ref [] in
    let began = ref 0 in
    let outcome =
      Txn.run mgr ~gateway ~max_attempts
        ~on_attempt:(fun t o ->
          History.record_txn h ~tid:(Txn.txn_id t) ~client ~began:!began
            ~ended:(Sim.now sim) ~ops:(List.rev !ops)
            ~status:(txn_status_of_outcome o))
        (fun tx ->
          ops := [];
          began := Sim.now sim;
          List.iter
            (fun key ->
              let value = Txn.get tx key in
              ops := History.T_read { key; value } :: !ops)
            keys;
          List.iteri
            (fun j key ->
              if j < nwrites then begin
                let value = Printf.sprintf "a%d.%s" (Txn.txn_id tx) key in
                Txn.put tx key value;
                ops := History.T_write { key; value } :: !ops
              end)
            keys)
    in
    (match outcome with
    | Ok () -> r.ok <- r.ok + 1
    | Error (Txn.Aborted _) -> r.failed <- r.failed + 1
    | Error (Txn.Unavailable _) -> r.info <- r.info + 1)
  done

(* Run every client to completion; call inside [Cluster.run]. Client procs
   are spawned in a fixed order with RNG streams split off one base stream,
   so a (cluster seed, workload seed) pair fully determines the history. *)
let run cl mgr cfg =
  let sim = Cluster.sim cl in
  let regions = Topology.regions (Cluster.topology cl) in
  let r =
    {
      registers = History.create ();
      bank = History.create ();
      txns = History.create ();
      ok = 0;
      failed = 0;
      info = 0;
    }
  in
  let base = Rng.create ~seed:cfg.seed in
  let zipf = Rng.Zipf.create ~n:cfg.keys () in
  let next_client = ref 0 in
  let procs = ref [] in
  List.iter
    (fun region ->
      for _ = 1 to cfg.clients_per_region do
        let client = !next_client in
        incr next_client;
        let rng = Rng.split base in
        procs :=
          Proc.async sim (fun () ->
              register_client cl mgr cfg r ~client ~region rng zipf)
          :: !procs
      done)
    regions;
  for b = 0 to (if cfg.accounts > 1 then bank_clients else 0) - 1 do
    let client = 1000 + b in
    let region = List.nth regions (b mod List.length regions) in
    let rng = Rng.split base in
    procs := Proc.async sim (fun () -> bank_client cl mgr cfg r ~client ~region rng) :: !procs
  done;
  (* Transactional clients are split off the base stream last, so enabling
     them leaves every pre-existing client's stream untouched. *)
  for tcl = 0 to (if cfg.txn.Txn_config.keys > 1 then cfg.txn.Txn_config.clients else 0) - 1 do
    let client = 2000 + tcl in
    let region = List.nth regions (tcl mod List.length regions) in
    let rng = Rng.split base in
    procs := Proc.async sim (fun () -> txn_client cl mgr cfg r ~client ~region rng) :: !procs
  done;
  ignore (Proc.await_all (List.rev !procs) : unit list);
  r

(* Post-chaos audit, run after the nemesis has healed everything: one fresh
   read of every register and one final bank snapshot, from a gateway in
   the home region. Anchors the checkers on the final converged state. *)
let finale cl mgr cfg r =
  let sim = Cluster.sim cl in
  let regions = Topology.regions (Cluster.topology cl) in
  let rng = Rng.create ~seed:(cfg.seed lxor 0x0f1e2d3c) in
  let gateway = pick_gateway cl rng (List.hd regions) in
  for k = 0 to cfg.keys - 1 do
    let key = key_of k in
    let e =
      History.invoke r.registers ~client:9999 ~now:(Sim.now sim) (History.Read { key })
    in
    let outcome =
      match
        Txn.run_fresh_read mgr ~gateway ~max_attempts (fun ro ->
            Txn.ro_get ro key)
      with
      | Ok v -> History.Ok_read v
      | Error err -> History.Failed (err_string err)
      | exception Txn.Fatal m -> History.Failed ("fatal: " ^ m)
    in
    record r outcome;
    History.complete e ~now:(Sim.now sim) outcome
  done;
  if cfg.txn.Txn_config.clients > 0 then begin
    (* One final read of every transactional key, recorded as a transaction:
       it anchors the serialization graph on the converged state, giving the
       checker anti-dependency edges out of the last committed writers. *)
    let keys = List.init cfg.txn.Txn_config.keys txn_key_of in
    let ops = ref [] in
    let began = ref 0 in
    ignore
      (Txn.run mgr ~gateway ~max_attempts
         ~on_attempt:(fun t o ->
           History.record_txn r.txns ~tid:(Txn.txn_id t) ~client:9999
             ~began:!began ~ended:(Sim.now sim) ~ops:(List.rev !ops)
             ~status:(txn_status_of_outcome o))
         (fun tx ->
           ops := [];
           began := Sim.now sim;
           List.iter
             (fun key ->
               let value = Txn.get tx key in
               ops := History.T_read { key; value } :: !ops)
             keys)
        : (unit, Txn.error) Stdlib.result)
  end;
  if cfg.accounts > 1 then begin
    let accounts = List.init cfg.accounts account_of in
    let e = History.invoke r.bank ~client:9999 ~now:(Sim.now sim) History.Snapshot in
    let outcome =
      match
        Txn.run_fresh_read mgr ~gateway ~max_attempts (fun ro ->
            List.map (fun a -> (a, balance_of (Txn.ro_get ro a))) accounts)
      with
      | Ok rows -> History.Ok_snapshot rows
      | Error err -> History.Failed (err_string err)
      | exception Txn.Fatal m -> History.Failed ("fatal: " ^ m)
    in
    record r outcome;
    History.complete e ~now:(Sim.now sim) outcome
  end
