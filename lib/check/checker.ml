type verdict =
  | Valid of { ops : int }
  | Violation of { message : string; counterexample : string }
  | Inconclusive of string

let is_valid = function Valid _ -> true | Violation _ | Inconclusive _ -> false

let verdict_to_string = function
  | Valid { ops } -> Printf.sprintf "valid (%d ops checked)" ops
  | Violation { message; counterexample } ->
      Printf.sprintf "VIOLATION: %s\n%s" message counterexample
  | Inconclusive msg -> Printf.sprintf "inconclusive: %s" msg

(* ------------------------------------------------------------------ *)
(* Per-key linearizability (Wing–Gong search)                          *)

(* One operation of a single register's sub-history. [l_completed] is
   [max_int] for operations with unknown outcome; [l_optional] marks writes
   that may never have taken effect and are allowed to linearize as no-ops. *)
type lop = {
  l_entry : History.entry;
  l_invoked : int;
  l_completed : int;
  l_kind : [ `Read of string option | `Write of string ];
  l_optional : bool;
}

exception Linearized

(* Search budget per key. Write pipelining keeps many ops concurrently open
   on a hot key under chaos (lost replies wait out the RPC timeout), and the
   per-key state count grows with the width of that concurrency window; 10M
   states clears the widest histories the chaos gates produce with headroom
   while still bounding a genuinely inconclusive search. *)
let budget = 10_000_000

(* The search explores linearization prefixes: a state is (set of linearized
   ops, register value). An op may be appended when its invocation does not
   follow the completion of any other un-linearized op (Wing & Gong's rule);
   reads must match the register. States are memoized so the search is
   polynomial on the mostly-sequential histories the simulator produces. *)
let search_key ops =
  let n = Array.length ops in
  let mandatory = ref 0 in
  Array.iter (fun o -> if not o.l_optional then incr mandatory) ops;
  let mandatory = !mandatory in
  let visited = Hashtbl.create 1024 in
  let explored = ref 0 in
  let best_count = ref (-1) in
  let best_set = ref (Bytes.create 0) in
  let best_value = ref None in
  let in_set set i = Char.code (Bytes.get set (i / 8)) land (1 lsl (i mod 8)) <> 0 in
  let add set i =
    let set = Bytes.copy set in
    Bytes.set set (i / 8)
      (Char.chr (Char.code (Bytes.get set (i / 8)) lor (1 lsl (i mod 8))));
    set
  in
  let rec go set value done_mandatory =
    if done_mandatory = mandatory then raise Linearized;
    let memo_key = (Bytes.to_string set, value) in
    if not (Hashtbl.mem visited memo_key) then begin
      Hashtbl.replace visited memo_key ();
      incr explored;
      if !explored > budget then failwith "budget";
      if done_mandatory > !best_count then begin
        best_count := done_mandatory;
        best_set := Bytes.copy set;
        best_value := value
      end;
      let min_end = ref max_int in
      for i = 0 to n - 1 do
        if (not (in_set set i)) && ops.(i).l_completed < !min_end then
          min_end := ops.(i).l_completed
      done;
      for i = 0 to n - 1 do
        if (not (in_set set i)) && ops.(i).l_invoked <= !min_end then begin
          let bump = if ops.(i).l_optional then 0 else 1 in
          (match ops.(i).l_kind with
          | `Write v -> go (add set i) (Some v) (done_mandatory + bump)
          | `Read v -> if v = value then go (add set i) value (done_mandatory + bump));
          (* An unknown-outcome write may also never have happened. *)
          if ops.(i).l_optional then go (add set i) value done_mandatory
        end
      done
    end
  in
  let set0 = Bytes.make ((n / 8) + 1) '\000' in
  match go set0 None 0 with
  | () ->
      let remaining =
        List.filter (fun i -> not (in_set !best_set i)) (List.init n Fun.id)
      in
      `Violation (!best_count, mandatory, !best_value, remaining)
  | exception Linearized -> `Ok
  | exception Failure _ -> `Budget

let lops_of_entries entries =
  List.filter_map
    (fun (e : History.entry) ->
      let mk kind optional completed =
        Some
          {
            l_entry = e;
            l_invoked = e.History.invoked;
            l_completed = completed;
            l_kind = kind;
            l_optional = optional;
          }
      in
      match (e.History.op, e.History.outcome) with
      | History.Read _, Some (History.Ok_read v) -> mk (`Read v) false e.History.completed
      | History.Read _, _ ->
          (* A failed or unresolved read returned nothing: no constraint. *)
          None
      | History.Write { value; _ }, Some History.Ok_write ->
          mk (`Write value) false e.History.completed
      | History.Write _, Some (History.Failed _) -> None
      | History.Write { value; _ }, (Some (History.Info _) | None) ->
          (* Unknown outcome: may take effect at any point after invocation,
             or never. *)
          mk (`Write value) true max_int
      | History.Write _, Some _ -> None
      | (History.Transfer _ | History.Snapshot), _ -> None)
    entries

let render_violation key ops (count, mandatory, value, remaining) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "key %s: best linearization covers %d/%d committed ops; register then held %s\n"
       key count mandatory
       (match value with None -> "nil" | Some v -> Printf.sprintf "%S" v));
  Buffer.add_string buf "  un-linearizable suffix:\n";
  List.iteri
    (fun i idx ->
      if i < 8 then
        Buffer.add_string buf
          (Printf.sprintf "    %s\n" (History.entry_to_string ops.(idx).l_entry)))
    remaining;
  if List.length remaining > 8 then
    Buffer.add_string buf
      (Printf.sprintf "    ... and %d more\n" (List.length remaining - 8));
  Buffer.contents buf

let check_linearizable history =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (e : History.entry) ->
      match e.History.op with
      | History.Read { key } | History.Write { key; _ } ->
          let l =
            match Hashtbl.find_opt by_key key with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace by_key key l;
                l
          in
          l := e :: !l
      | History.Transfer _ | History.Snapshot -> ())
    (History.entries history);
  let keys = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key []) in
  let checked = ref 0 in
  let result =
    List.fold_left
      (fun acc key ->
        match acc with
        | Some _ -> acc
        | None -> (
            let entries = List.rev !(Hashtbl.find by_key key) in
            let ops = Array.of_list (lops_of_entries entries) in
            checked := !checked + Array.length ops;
            match search_key ops with
            | `Ok -> None
            | `Budget ->
                Some
                  (Inconclusive
                     (Printf.sprintf "key %s: search budget (%d states) exhausted" key budget))
            | `Violation v ->
                Some
                  (Violation
                     {
                       message = Printf.sprintf "history is not linearizable at key %s" key;
                       counterexample = render_violation key ops v;
                     })))
      None keys
  in
  match result with None -> Valid { ops = !checked } | Some v -> v

(* ------------------------------------------------------------------ *)
(* Bank-transfer serializability invariant                             *)

(* Generalizes test_txn's bank test: transfers move money between accounts
   inside serializable transactions, so every transactional snapshot of all
   accounts must observe the same total. A snapshot summing to anything else
   exhibits a non-serializable read (e.g. it observed half of a transfer). *)
let check_bank ~total history =
  let snapshots = ref 0 and transfers = ref 0 in
  let bad =
    List.fold_left
      (fun acc (e : History.entry) ->
        match (acc, e.History.op, e.History.outcome) with
        | Some _, _, _ -> acc
        | None, History.Transfer _, Some History.Ok_transfer ->
            incr transfers;
            acc
        | None, History.Snapshot, Some (History.Ok_snapshot rows) ->
            incr snapshots;
            let sum = List.fold_left (fun s (_, b) -> s + b) 0 rows in
            if sum = total then acc else Some (e, sum)
        | None, _, _ -> acc)
      None (History.entries history)
  in
  match bad with
  | None -> Valid { ops = !snapshots + !transfers }
  | Some (e, sum) ->
      Violation
        {
          message =
            Printf.sprintf
              "bank invariant broken: snapshot totals %d, expected %d (money %s)"
              sum total
              (if sum < total then "destroyed" else "created");
          counterexample = Printf.sprintf "  %s\n" (History.entry_to_string e);
        }

(* ------------------------------------------------------------------ *)
(* Multi-key serializability: dependency-graph cycle detection          *)

module Ts = Crdb_hlc.Timestamp

type anomaly = G0 | G1a | G1c | G2_item | Lost_update

let anomaly_to_string = function
  | G0 -> "G0 (write cycle)"
  | G1a -> "G1a (aborted read)"
  | G1c -> "G1c (circular information flow)"
  | G2_item -> "G2-item (anti-dependency cycle)"
  | Lost_update -> "lost update"

(* Elle-style inference (Adya's taxonomy over an MVCC history): every
   committed write carries a value unique to its transaction, so a read
   identifies the exact version — and transaction — it observed, and commit
   timestamps give the per-key version order directly. From those two facts
   the three dependency kinds follow:

     - ww: Ti installed the version immediately before Tj's on some key;
     - wr: Tj read the version Ti installed;
     - rw: Ti read a version whose immediate successor Tj installed
           (an anti-dependency: Ti must precede Tj in any serial order).

   A cycle in the union is a serializability violation. Classification
   searches the tiers in severity order — a cycle of only ww edges is G0,
   a ww/wr cycle is G1c, and any cycle needing an rw edge is G2-item
   (lost update when the anti-dependent reader also wrote the key it read,
   i.e. two read-modify-writes both proceeded from the same version).

   Indeterminate transactions participate conservatively: one whose unique
   written value was observed by any read definitely committed and is
   promoted (at its recorded would-be commit timestamp); an unobserved one
   is excluded, which can only hide anomalies, never invent them. Reads of
   a [T_aborted] transaction's value are impossible in a correct system and
   reported as G1a. *)

type stxn = {
  s_txn : History.txn;
  s_reads : (string * string option) list;  (* external reads, program order *)
  s_writes : (string * string) list;  (* final write per key, program order *)
}

type edge_kind = E_ww | E_wr | E_rw

let edge_kind_to_string = function E_ww -> "ww" | E_wr -> "wr" | E_rw -> "rw"

exception Inconclusive_because of string
exception Anomaly_found of anomaly * string  (* counterexample *)

(* External reads and final writes of one transaction: a read of a key the
   transaction already wrote observes its own intent and constrains nothing
   outside it; an overwritten intermediate write never becomes a version. *)
let summarize (x : History.txn) =
  let written = Hashtbl.create 4 in
  let reads = ref [] and writes = ref [] in
  List.iter
    (fun op ->
      match op with
      | History.T_read { key; value } ->
          if not (Hashtbl.mem written key) then
            if not (List.mem (key, value) !reads) then reads := (key, value) :: !reads
      | History.T_write { key; value } ->
          Hashtbl.replace written key value;
          writes := List.filter (fun (k, _) -> k <> key) !writes;
          writes := (key, value) :: !writes)
    x.History.t_ops;
  { s_txn = x; s_reads = List.rev !reads; s_writes = List.rev !writes }

let commit_ts_of (x : History.txn) =
  match x.History.t_status with
  | History.T_committed { commit_ts } -> Some commit_ts
  | History.T_indeterminate { commit_ts } -> commit_ts
  | History.T_aborted -> None

(* Shortest cycle in the directed graph restricted to [kinds], by BFS from
   every node in ascending tid order; ties go to the earliest start node.
   Returns the cycle as [(tid, kind, key); ...] meaning tid --kind(key)-->
   next element's tid (wrapping around). *)
let shortest_cycle ~kinds adj tids =
  let allowed k = List.mem k kinds in
  let best = ref None in
  let consider cycle =
    match !best with
    | Some b when List.length b <= List.length cycle -> ()
    | _ -> best := Some cycle
  in
  List.iter
    (fun start ->
      (* BFS over allowed edges; stop when we step back into [start]. *)
      let parent = Hashtbl.create 64 in
      let q = Queue.create () in
      Queue.push start q;
      Hashtbl.replace parent start None;
      let found = ref None in
      while !found = None && not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun (v, kind, key) ->
            if allowed kind && !found = None then
              if v = start then found := Some (u, kind, key)
              else if not (Hashtbl.mem parent v) then begin
                Hashtbl.replace parent v (Some (u, kind, key));
                Queue.push v q
              end)
          (try Hashtbl.find adj u with Not_found -> [])
      done;
      match !found with
      | None -> ()
      | Some (last, kind, key) ->
          (* Reconstruct start -> ... -> last --kind--> start. *)
          let rec path u acc =
            match Hashtbl.find parent u with
            | None -> acc
            | Some (p, k, ky) -> path p ((p, k, ky) :: acc)
          in
          let prefix = path last [] in
          consider (prefix @ [ (last, kind, key) ]))
    tids;
  !best

let check_serializable_report history =
  let recorded = History.txns history in
  match recorded with
  | [] -> (None, Valid { ops = 0 })
  | _ -> (
      try
        let xs = List.map summarize recorded in
        let by_tid = Hashtbl.create 64 in
        List.iter
          (fun s ->
            if Hashtbl.mem by_tid s.s_txn.History.tid then
              raise
                (Inconclusive_because
                   (Printf.sprintf "duplicate transaction id T%d" s.s_txn.History.tid));
            Hashtbl.replace by_tid s.s_txn.History.tid s)
          xs;
        (* Unique-value writer index over every recorded attempt. *)
        let writer = Hashtbl.create 256 in
        List.iter
          (fun s ->
            List.iter
              (fun (k, v) ->
                match Hashtbl.find_opt writer (k, v) with
                | Some other ->
                    raise
                      (Inconclusive_because
                         (Printf.sprintf
                            "value %S on key %s written by both T%d and T%d \
                             (unique-value assumption broken)"
                            v k other s.s_txn.History.tid))
                | None -> Hashtbl.replace writer (k, v) s.s_txn.History.tid)
              s.s_writes)
          xs;
        (* Every observed value must trace to a recorded writer; a read of an
           aborted transaction's value is G1a. Observation of an
           indeterminate transaction's value proves it committed. *)
        let observed = Hashtbl.create 64 in
        let observed_on = Hashtbl.create 64 in
        let g1a = ref None in
        List.iter
          (fun s ->
            List.iter
              (fun (k, v) ->
                match v with
                | None -> ()
                | Some v -> (
                    match Hashtbl.find_opt writer (k, v) with
                    | None ->
                        raise
                          (Inconclusive_because
                             (Printf.sprintf
                                "T%d read value %S on key %s that no recorded \
                                 transaction wrote"
                                s.s_txn.History.tid v k))
                    | Some w ->
                        if w <> s.s_txn.History.tid then begin
                          Hashtbl.replace observed w ();
                          Hashtbl.replace observed_on (k, w) ();
                          let ws = Hashtbl.find by_tid w in
                          if ws.s_txn.History.t_status = History.T_aborted && !g1a = None
                          then g1a := Some (s, ws, k, v)
                        end))
              s.s_reads)
          xs;
        (match !g1a with
        | Some (reader, aborted, k, v) ->
            raise
              (Anomaly_found
                 ( G1a,
                   Printf.sprintf
                     "  %s\n  %s\n  committed read of key %s observed %S, written \
                      only by the aborted T%d\n"
                     (History.txn_to_string reader.s_txn)
                     (History.txn_to_string aborted.s_txn)
                     k v aborted.s_txn.History.tid ))
        | None -> ());
        (* Effective transactions: committed, plus indeterminate ones whose
           writes were observed (promoted). *)
        let effective =
          List.filter
            (fun s ->
              match s.s_txn.History.t_status with
              | History.T_committed _ -> true
              | History.T_aborted -> false
              | History.T_indeterminate _ -> Hashtbl.mem observed s.s_txn.History.tid)
            xs
        in
        let is_effective tid =
          match Hashtbl.find_opt by_tid tid with
          | None -> false
          | Some s -> (
              match s.s_txn.History.t_status with
              | History.T_committed _ -> true
              | History.T_aborted -> false
              | History.T_indeterminate _ -> Hashtbl.mem observed tid)
        in
        (* Per-key version order: effective writers sorted by commit
           timestamp. A promoted transaction with no recorded timestamp
           cannot be placed; its keys are excluded from ww/rw inference
           (sound: skipping edges only hides cycles). *)
        let keys = Hashtbl.create 64 in
        let unplaceable_keys = Hashtbl.create 8 in
        List.iter
          (fun s ->
            List.iter
              (fun (k, _) ->
                match commit_ts_of s.s_txn with
                | Some ts ->
                    let l =
                      match Hashtbl.find_opt keys k with
                      | Some l -> l
                      | None ->
                          let l = ref [] in
                          Hashtbl.replace keys k l;
                          l
                    in
                    l := (ts, s.s_txn.History.tid) :: !l
                | None -> Hashtbl.replace unplaceable_keys k ())
              s.s_writes)
          effective;
        let version_order = Hashtbl.create 64 in
        Hashtbl.iter
          (fun k l ->
            if not (Hashtbl.mem unplaceable_keys k) then begin
              let sorted = List.sort (fun (a, _) (b, _) -> Ts.compare a b) !l in
              (* Commit-timestamp ties never arise from the simulator
                 (same-key same-timestamp MVCC writes collide), but
                 hand-crafted histories can contain them: a pair of tied
                 versions is ordered by visibility — the version some other
                 transaction observed was installed last. Anything more
                 ambiguous cannot be ordered by evidence. *)
              let order_tied = function
                | [ t ] -> [ t ]
                | [ t1; t2 ] -> (
                    match
                      ( Hashtbl.mem observed_on (k, t1),
                        Hashtbl.mem observed_on (k, t2) )
                    with
                    | true, false -> [ t2; t1 ]
                    | false, true -> [ t1; t2 ]
                    | _ ->
                        raise
                          (Inconclusive_because
                             (Printf.sprintf
                                "T%d and T%d share a commit timestamp on key \
                                 %s and visibility does not order them"
                                t1 t2 k)))
                | t1 :: t2 :: _ ->
                    raise
                      (Inconclusive_because
                         (Printf.sprintf
                            "three or more transactions (T%d, T%d, ...) share \
                             a commit timestamp on key %s"
                            t1 t2 k))
                | [] -> []
              in
              let rec regroup = function
                | [] -> []
                | (ts, t) :: rest ->
                    let same, rest' =
                      List.partition (fun (ts', _) -> Ts.equal ts ts') rest
                    in
                    order_tied (t :: List.map snd same) @ regroup rest'
              in
              Hashtbl.replace version_order k (regroup sorted)
            end)
          keys;
        (* Dependency edges, deterministically ordered. *)
        let edges = ref [] in
        let add_edge src dst kind key =
          if src <> dst then edges := (src, dst, kind, key) :: !edges
        in
        let sorted_keys =
          List.sort String.compare
            (Hashtbl.fold (fun k _ acc -> k :: acc) version_order [])
        in
        (* ww: adjacent versions. *)
        List.iter
          (fun k ->
            let rec adj = function
              | a :: (b :: _ as rest) ->
                  add_edge a b E_ww k;
                  adj rest
              | _ -> ()
            in
            adj (Hashtbl.find version_order k))
          sorted_keys;
        List.iter
          (fun s ->
            List.iter
              (fun (k, v) ->
                (* wr: the writer of the observed version precedes us. *)
                (match v with
                | Some v -> (
                    match Hashtbl.find_opt writer (k, v) with
                    | Some w when is_effective w -> add_edge w s.s_txn.History.tid E_wr k
                    | _ -> ())
                | None -> ());
                (* rw: the writer of the observed version's immediate
                   successor follows us. *)
                match Hashtbl.find_opt version_order k with
                | None -> ()
                | Some order -> (
                    let observed_writer =
                      match v with
                      | None -> None  (* the initial nil version *)
                      | Some v -> Hashtbl.find_opt writer (k, v)
                    in
                    match observed_writer with
                    | Some w when not (List.mem w order) -> ()
                    | _ -> (
                        let rec successor = function
                          | [] -> None
                          | hd :: _ when observed_writer = None -> Some hd
                          | hd :: tl when Some hd = observed_writer -> (
                              match tl with [] -> None | nxt :: _ -> Some nxt)
                          | _ :: tl -> successor tl
                        in
                        match successor order with
                        | Some nxt -> add_edge s.s_txn.History.tid nxt E_rw k
                        | None -> ())))
              s.s_reads)
          effective;
        let tids =
          List.sort compare (List.map (fun s -> s.s_txn.History.tid) effective)
        in
        let adj = Hashtbl.create 64 in
        List.iter
          (fun (src, dst, kind, key) ->
            let l = try Hashtbl.find adj src with Not_found -> [] in
            if not (List.mem (dst, kind, key) l) then
              Hashtbl.replace adj src ((dst, kind, key) :: l))
          (List.rev !edges);
        let adj_keys = Hashtbl.fold (fun k _ acc -> k :: acc) adj [] in
        List.iter
          (fun k -> Hashtbl.replace adj k (List.sort compare (Hashtbl.find adj k)))
          adj_keys;
        let render_cycle cycle =
          let buf = Buffer.create 256 in
          Buffer.add_string buf "  cycle: ";
          List.iteri
            (fun i (tid, kind, key) ->
              if i > 0 then Buffer.add_string buf " ";
              Buffer.add_string buf
                (Printf.sprintf "T%d --%s(%s)-->" tid (edge_kind_to_string kind) key))
            cycle;
          (match cycle with
          | (tid, _, _) :: _ -> Buffer.add_string buf (Printf.sprintf " T%d" tid)
          | [] -> ());
          Buffer.add_char buf '\n';
          List.iter
            (fun (tid, _, _) ->
              let s = Hashtbl.find by_tid tid in
              Buffer.add_string buf
                (Printf.sprintf "    %s\n" (History.txn_to_string s.s_txn)))
            cycle;
          Buffer.contents buf
        in
        let wrote_key tid k =
          match Hashtbl.find_opt by_tid tid with
          | None -> false
          | Some s -> List.mem_assoc k s.s_writes
        in
        let classify_and_report kinds anomaly_of =
          match shortest_cycle ~kinds adj tids with
          | None -> None
          | Some cycle ->
              let a = anomaly_of cycle in
              Some
                ( Some a,
                  Violation
                    {
                      message =
                        Printf.sprintf "history is not serializable: %s"
                          (anomaly_to_string a);
                      counterexample = render_cycle cycle;
                    } )
        in
        let result =
          match classify_and_report [ E_ww ] (fun _ -> G0) with
          | Some r -> Some r
          | None -> (
              match classify_and_report [ E_ww; E_wr ] (fun _ -> G1c) with
              | Some r -> Some r
              | None ->
                  classify_and_report
                    [ E_ww; E_wr; E_rw ]
                    (fun cycle ->
                      (* A lost update is an anti-dependency cycle whose
                         reader proceeded from a version of a key it also
                         wrote: r1(x) ... w2(x) ... w1(x). *)
                      if
                        List.exists
                          (fun (tid, kind, key) -> kind = E_rw && wrote_key tid key)
                          cycle
                      then Lost_update
                      else G2_item))
        in
        match result with
        | Some (a, v) -> (a, v)
        | None -> (None, Valid { ops = List.length effective })
      with
      | Inconclusive_because msg -> (None, Inconclusive msg)
      | Anomaly_found (a, counterexample) ->
          ( Some a,
            Violation
              {
                message =
                  Printf.sprintf "history is not serializable: %s" (anomaly_to_string a);
                counterexample;
              } ))

let check_serializable history = snd (check_serializable_report history)
