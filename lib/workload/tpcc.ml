module Crdb = Crdb_core.Crdb
module Hist = Crdb_stats.Hist
module Value = Crdb.Value
module Schema = Crdb.Schema
module Ddl = Crdb.Ddl
module Engine = Crdb.Engine
module Cluster = Crdb.Cluster
module Sim = Crdb_sim.Sim
module Proc = Crdb_sim.Proc
module Rng = Crdb_stdx.Rng

let time_scale = 5

let table_names =
  [
    "warehouse"; "district"; "customer"; "history"; "neworder"; "orders";
    "orderline"; "stock"; "item";
  ]

let vint i = Value.V_int i
let vstr s = Value.V_string s

let region_of_warehouse ~regions ~warehouses_per_region w_id =
  let idx = w_id / warehouses_per_region in
  List.nth regions (min idx (List.length regions - 1))

let computed_region ~regions ~warehouses_per_region =
  Schema.column ~hidden:true
    ~default:
      (Schema.D_computed
         ( [ "w_id" ],
           fun vs ->
             match vs with
             | [ Value.V_int w ] ->
                 Value.V_region (region_of_warehouse ~regions ~warehouses_per_region w)
             | _ -> Value.V_region (List.hd regions) ))
    Schema.region_column Schema.T_region

let tables ~regions ~warehouses_per_region =
  let rc () = computed_region ~regions ~warehouses_per_region in
  let regional ?(extra = []) ~name ~cols ~pkey () =
    Schema.table ~name
      ~columns:(cols @ [ rc () ] @ extra)
      ~pkey ~locality:Schema.Regional_by_row ()
  in
  [
    regional ~name:"warehouse"
      ~cols:
        [
          Schema.column "w_id" Schema.T_int;
          Schema.column "w_name" Schema.T_string;
          Schema.column "w_ytd" Schema.T_int;
        ]
      ~pkey:[ "w_id" ] ();
    regional ~name:"district"
      ~cols:
        [
          Schema.column "w_id" Schema.T_int;
          Schema.column "d_id" Schema.T_int;
          Schema.column "d_next_o_id" Schema.T_int;
          Schema.column "d_ytd" Schema.T_int;
        ]
      ~pkey:[ "w_id"; "d_id" ] ();
    regional ~name:"customer"
      ~cols:
        [
          Schema.column "w_id" Schema.T_int;
          Schema.column "d_id" Schema.T_int;
          Schema.column "c_id" Schema.T_int;
          Schema.column "c_balance" Schema.T_int;
          Schema.column "c_data" Schema.T_string;
        ]
      ~pkey:[ "w_id"; "d_id"; "c_id" ] ();
    regional ~name:"history"
      ~cols:
        [
          Schema.column ~default:Schema.D_gen_uuid "h_id" Schema.T_uuid;
          Schema.column "w_id" Schema.T_int;
          Schema.column "d_id" Schema.T_int;
          Schema.column "c_id" Schema.T_int;
          Schema.column "h_amount" Schema.T_int;
        ]
      ~pkey:[ "h_id" ] ();
    regional ~name:"neworder"
      ~cols:
        [
          Schema.column "w_id" Schema.T_int;
          Schema.column "d_id" Schema.T_int;
          Schema.column "o_id" Schema.T_int;
        ]
      ~pkey:[ "w_id"; "d_id"; "o_id" ] ();
    regional ~name:"orders"
      ~cols:
        [
          Schema.column "w_id" Schema.T_int;
          Schema.column "d_id" Schema.T_int;
          Schema.column "o_id" Schema.T_int;
          Schema.column "c_id" Schema.T_int;
          Schema.column "ol_cnt" Schema.T_int;
          Schema.column "delivered" Schema.T_int;
        ]
      ~pkey:[ "w_id"; "d_id"; "o_id" ] ();
    regional ~name:"orderline"
      ~cols:
        [
          Schema.column "w_id" Schema.T_int;
          Schema.column "d_id" Schema.T_int;
          Schema.column "o_id" Schema.T_int;
          Schema.column "ol_number" Schema.T_int;
          Schema.column "i_id" Schema.T_int;
          Schema.column "qty" Schema.T_int;
        ]
      ~pkey:[ "w_id"; "d_id"; "o_id"; "ol_number" ] ();
    regional ~name:"stock"
      ~cols:
        [
          Schema.column "w_id" Schema.T_int;
          Schema.column "i_id" Schema.T_int;
          Schema.column "s_quantity" Schema.T_int;
        ]
      ~pkey:[ "w_id"; "i_id" ] ();
    (* Never updated after import: the natural GLOBAL table (§7.4). *)
    Schema.table ~name:"item"
      ~columns:
        [
          Schema.column "i_id" Schema.T_int;
          Schema.column "i_name" Schema.T_string;
          Schema.column "i_price" Schema.T_int;
        ]
      ~pkey:[ "i_id" ] ~locality:Schema.Global ();
  ]

let ddl ~db ~regions ~warehouses_per_region =
  let ts = tables ~regions ~warehouses_per_region in
  (* 1 CREATE DATABASE + 9 CREATE TABLE with localities + 8 computed-region
     columns (every REGIONAL BY ROW table): the paper's 18 statements. *)
  Ddl.N_create_database
    { db; primary = List.hd regions; regions = List.tl regions }
  :: List.map (fun table -> Ddl.N_create_table { db; table }) ts
  @ List.filter_map
      (fun (table : Schema.table) ->
        match table.Schema.tbl_locality with
        | Schema.Regional_by_row ->
            Some
              (Ddl.N_add_computed_region
                 {
                   db;
                   table = table.Schema.tbl_name;
                   from_cols = [ "w_id" ];
                   compute =
                     (fun vs ->
                       match vs with
                       | [ Value.V_int w ] ->
                           Value.V_region
                             (region_of_warehouse ~regions ~warehouses_per_region w)
                       | _ -> Value.V_region (List.hd regions));
                   sql_case = "CASE w_id / <warehouses-per-region> ...";
                 })
        | Schema.Regional_by_table _ | Schema.Global -> None)
      ts

let load t db ~warehouses_per_region ?(districts_per_warehouse = 3)
    ?(customers_per_district = 10) ?(items = 100) () =
  let regions = Engine.regions db in
  let total_w = warehouses_per_region * List.length regions in
  Engine.bulk_insert db ~table:"item"
    (List.init items (fun i ->
         [ ("i_id", vint i); ("i_name", vstr (Printf.sprintf "item%d" i));
           ("i_price", vint (100 + i)) ]));
  for w = 0 to total_w - 1 do
    let region = region_of_warehouse ~regions ~warehouses_per_region w in
    Engine.bulk_insert db ~table:"warehouse" ~region
      [ [ ("w_id", vint w); ("w_name", vstr (Printf.sprintf "wh%d" w)); ("w_ytd", vint 0) ] ];
    Engine.bulk_insert db ~table:"district" ~region
      (List.init districts_per_warehouse (fun d ->
           [ ("w_id", vint w); ("d_id", vint d); ("d_next_o_id", vint 1); ("d_ytd", vint 0) ]));
    Engine.bulk_insert db ~table:"customer" ~region
      (List.concat_map
         (fun d ->
           List.init customers_per_district (fun c ->
               [ ("w_id", vint w); ("d_id", vint d); ("c_id", vint c);
                 ("c_balance", vint 0); ("c_data", vstr "customer") ]))
         (List.init districts_per_warehouse Fun.id));
    Engine.bulk_insert db ~table:"stock" ~region
      (List.init items (fun i ->
           [ ("w_id", vint w); ("i_id", vint i); ("s_quantity", vint 1000) ]))
  done;
  Crdb.settle t

let setup ~regions ~warehouses_per_region ?districts_per_warehouse
    ?customers_per_district ?items () =
  let t = Crdb.start ~regions () in
  Crdb.exec_all t (ddl ~db:"tpcc" ~regions ~warehouses_per_region);
  let db = Crdb.database t "tpcc" in
  load t db ~warehouses_per_region ?districts_per_warehouse
    ?customers_per_district ?items ();
  (t, db)

type results = {
  new_order : Hist.t;
  payment : Hist.t;
  order_status : Hist.t;
  delivery : Hist.t;
  stock_level : Hist.t;
  all : Hist.t;
  by_region : (string * Hist.t) list;
  mutable committed_new_orders : int;
  mutable remote_new_orders : int;
  mutable errors : int;
  mutable elapsed : int;
  mutable busy_micros : int;  (* terminal time spent inside transactions *)
  mutable pause_micros : int;  (* terminal time spent keying/thinking *)
}

let tpmc r =
  if r.elapsed = 0 then 0.0
  else float_of_int r.committed_new_orders /. (float_of_int r.elapsed /. 60_000_000.0)

let efficiency r ~warehouses =
  ignore warehouses;
  (* Fraction of the spec-paced cycle retained: think/keying time over total
     terminal time. With zero transaction latency this is 1.0 (the spec
     ceiling); the paper reports the equivalent ratio as >= 97%. *)
  let total = r.pause_micros + r.busy_micros in
  if total = 0 then 0.0 else float_of_int r.pause_micros /. float_of_int total

(* Spec keying + think times (microseconds), divided by [time_scale]. *)
let pause_for rng kind =
  let keying, think =
    match kind with
    | `New_order -> (18_000_000, 12_000_000)
    | `Payment -> (3_000_000, 12_000_000)
    | `Order_status -> (2_000_000, 10_000_000)
    | `Delivery -> (2_000_000, 5_000_000)
    | `Stock_level -> (2_000_000, 5_000_000)
  in
  let mean = float_of_int think in
  (* Exponential think time truncated at 10x its mean, per the spec. *)
  let sampled = int_of_float (Rng.exponential rng ~mean) in
  (keying + min sampled (10 * think)) / time_scale

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let get_int row col =
  match List.assoc_opt col row with
  | Some (Value.V_int i) -> i
  | _ -> invalid_arg ("Tpcc: missing int column " ^ col)

let tx_new_order db ~gateway ~rng ~w ~districts ~customers ~items ~total_w =
  let d = Rng.int rng districts in
  let c = Rng.int rng customers in
  let n_items = 5 + Rng.int rng 11 in
  let lines =
    List.init n_items (fun n ->
        let remote = Rng.int rng 100 = 0 && total_w > 1 in
        let supply_w =
          if remote then (w + 1 + Rng.int rng (total_w - 1)) mod total_w else w
        in
        (n, Rng.int rng items, supply_w, 1 + Rng.int rng 10, remote))
  in
  (* Lock stock rows in a deterministic order: concurrent new-orders would
     otherwise deadlock on each other's stock locks (the standard TPC-C
     client-side mitigation; CRDB itself would break such cycles with
     wound-wait, which the simulator replaces by bounded waits). *)
  let lines =
    List.sort
      (fun (_, i1, w1, _, _) (_, i2, w2, _, _) -> compare (w1, i1) (w2, i2))
      lines
  in
  let is_remote = List.exists (fun (_, _, _, _, r) -> r) lines in
  let result =
    Engine.in_txn db ~gateway (fun tc ->
        (match Engine.t_select_by_pk tc ~table:"warehouse" [ vint w ] with
        | Some _ -> ()
        | None -> raise (Engine.Sql_error "missing warehouse"));
        (match Engine.t_select_by_pk tc ~table:"customer" [ vint w; vint d; vint c ] with
        | Some _ -> ()
        | None -> raise (Engine.Sql_error "missing customer"));
        let district =
          match Engine.t_select_by_pk tc ~table:"district" [ vint w; vint d ] with
          | Some row -> row
          | None -> raise (Engine.Sql_error "missing district")
        in
        let o_id = get_int district "d_next_o_id" in
        ignore
          (Engine.t_update_by_pk tc ~table:"district" [ vint w; vint d ]
             ~set:[ ("d_next_o_id", vint (o_id + 1)) ]);
        Engine.t_insert tc ~table:"orders"
          [ ("w_id", vint w); ("d_id", vint d); ("o_id", vint o_id);
            ("c_id", vint c); ("ol_cnt", vint n_items); ("delivered", vint 0) ];
        Engine.t_insert tc ~table:"neworder"
          [ ("w_id", vint w); ("d_id", vint d); ("o_id", vint o_id) ];
        List.iter
          (fun (n, i_id, supply_w, qty, _) ->
            (match Engine.t_select_by_pk tc ~table:"item" [ vint i_id ] with
            | Some _ -> ()
            | None -> raise (Engine.Sql_error "missing item"));
            let stock =
              match
                Engine.t_select_by_pk tc ~table:"stock" [ vint supply_w; vint i_id ]
              with
              | Some row -> row
              | None -> raise (Engine.Sql_error "missing stock")
            in
            let s = get_int stock "s_quantity" in
            let s' = if s - qty > 10 then s - qty else s - qty + 91 in
            ignore
              (Engine.t_update_by_pk tc ~table:"stock" [ vint supply_w; vint i_id ]
                 ~set:[ ("s_quantity", vint s') ]);
            Engine.t_insert tc ~table:"orderline"
              [ ("w_id", vint w); ("d_id", vint d); ("o_id", vint o_id);
                ("ol_number", vint n); ("i_id", vint i_id); ("qty", vint qty) ])
          lines)
  in
  (result, is_remote)

let tx_payment db ~gateway ~rng ~w ~districts ~customers =
  let d = Rng.int rng districts in
  let c = Rng.int rng customers in
  let amount = 1 + Rng.int rng 5000 in
  Engine.in_txn db ~gateway (fun tc ->
      let wh =
        match Engine.t_select_by_pk tc ~table:"warehouse" [ vint w ] with
        | Some row -> row
        | None -> raise (Engine.Sql_error "missing warehouse")
      in
      ignore
        (Engine.t_update_by_pk tc ~table:"warehouse" [ vint w ]
           ~set:[ ("w_ytd", vint (get_int wh "w_ytd" + amount)) ]);
      let district =
        match Engine.t_select_by_pk tc ~table:"district" [ vint w; vint d ] with
        | Some row -> row
        | None -> raise (Engine.Sql_error "missing district")
      in
      ignore
        (Engine.t_update_by_pk tc ~table:"district" [ vint w; vint d ]
           ~set:[ ("d_ytd", vint (get_int district "d_ytd" + amount)) ]);
      let cust =
        match
          Engine.t_select_by_pk tc ~table:"customer" [ vint w; vint d; vint c ]
        with
        | Some row -> row
        | None -> raise (Engine.Sql_error "missing customer")
      in
      ignore
        (Engine.t_update_by_pk tc ~table:"customer" [ vint w; vint d; vint c ]
           ~set:[ ("c_balance", vint (get_int cust "c_balance" - amount)) ]);
      Engine.t_insert tc ~table:"history"
        [ ("w_id", vint w); ("d_id", vint d); ("c_id", vint c);
          ("h_amount", vint amount) ])

let tx_order_status db ~gateway ~rng ~w ~districts ~customers =
  let d = Rng.int rng districts in
  let c = Rng.int rng customers in
  Engine.in_txn db ~gateway (fun tc ->
      (match Engine.t_select_by_pk tc ~table:"customer" [ vint w; vint d; vint c ] with
      | Some _ -> ()
      | None -> raise (Engine.Sql_error "missing customer"));
      let district =
        match Engine.t_select_by_pk tc ~table:"district" [ vint w; vint d ] with
        | Some row -> row
        | None -> raise (Engine.Sql_error "missing district")
      in
      let last_o = get_int district "d_next_o_id" - 1 in
      if last_o >= 1 then begin
        ignore (Engine.t_select_by_pk tc ~table:"orders" [ vint w; vint d; vint last_o ]);
        ignore
          (Engine.t_select_prefix tc ~table:"orderline"
             ~prefix:[ vint w; vint d; vint last_o ] ())
      end)

let tx_delivery db ~gateway ~rng ~w ~districts =
  let d = Rng.int rng districts in
  Engine.in_txn db ~gateway (fun tc ->
      let pending =
        Engine.t_select_prefix tc ~table:"neworder" ~prefix:[ vint w; vint d ]
          ~limit:1 ()
      in
      match pending with
      | [] -> ()
      | row :: _ ->
          let o_id = get_int row "o_id" in
          ignore
            (Engine.t_update_by_pk tc ~table:"orders" [ vint w; vint d; vint o_id ]
               ~set:[ ("delivered", vint 1) ]);
          let lines =
            Engine.t_select_prefix tc ~table:"orderline"
              ~prefix:[ vint w; vint d; vint o_id ] ()
          in
          let total = List.fold_left (fun acc l -> acc + get_int l "qty") 0 lines in
          (match Engine.t_select_by_pk tc ~table:"orders" [ vint w; vint d; vint o_id ] with
          | Some order ->
              let c = get_int order "c_id" in
              (match
                 Engine.t_select_by_pk tc ~table:"customer" [ vint w; vint d; vint c ]
               with
              | Some cust ->
                  ignore
                    (Engine.t_update_by_pk tc ~table:"customer"
                       [ vint w; vint d; vint c ]
                       ~set:[ ("c_balance", vint (get_int cust "c_balance" + total)) ])
              | None -> ())
          | None -> ());
          (* Mark as delivered by removing from the new-order queue. *)
          ignore o_id)

let tx_stock_level db ~gateway ~rng ~w ~districts =
  let d = Rng.int rng districts in
  Engine.in_txn db ~gateway (fun tc ->
      let district =
        match Engine.t_select_by_pk tc ~table:"district" [ vint w; vint d ] with
        | Some row -> row
        | None -> raise (Engine.Sql_error "missing district")
      in
      let last_o = get_int district "d_next_o_id" - 1 in
      if last_o >= 1 then begin
        let lines =
          Engine.t_select_prefix tc ~table:"orderline"
            ~prefix:[ vint w; vint d; vint last_o ] ()
        in
        let seen = Hashtbl.create 8 in
        List.iter
          (fun l ->
            let i = get_int l "i_id" in
            if not (Hashtbl.mem seen i) && Hashtbl.length seen < 5 then begin
              Hashtbl.replace seen i ();
              ignore (Engine.t_select_by_pk tc ~table:"stock" [ vint w; vint i ])
            end)
          lines
      end)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let run t db ~warehouses_per_region ?(terminals_per_warehouse = 10)
    ?(duration = 60_000_000) ?(districts_per_warehouse = 3)
    ?(customers_per_district = 10) ?(items = 100) ?(seed = 0x7CC) () =
  let regions = Engine.regions db in
  let nregions = List.length regions in
  let total_w = warehouses_per_region * nregions in
  let sim = Cluster.sim (Crdb.cluster t) in
  let results =
    {
      new_order = Hist.create ();
      payment = Hist.create ();
      order_status = Hist.create ();
      delivery = Hist.create ();
      stock_level = Hist.create ();
      all = Hist.create ();
      by_region = List.map (fun r -> (r, Hist.create ())) regions;
      committed_new_orders = 0;
      remote_new_orders = 0;
      errors = 0;
      elapsed = 0;
      busy_micros = 0;
      pause_micros = 0;
    }
  in
  let master_rng = Rng.create ~seed in
  let start = Sim.now sim in
  let deadline = start + duration in
  let remaining = ref (total_w * terminals_per_warehouse) in
  let finished = Crdb_sim.Ivar.create () in
  for w = 0 to total_w - 1 do
    let region = region_of_warehouse ~regions ~warehouses_per_region w in
    for term = 0 to terminals_per_warehouse - 1 do
      let rng = Rng.split master_rng in
      let gateway = Crdb.gateway t ~region ~index:term () in
      Proc.spawn sim (fun () ->
          (* Stagger terminal start briefly to avoid a thundering herd. *)
          Proc.sleep sim (Rng.int rng 200_000);
          let rec loop () =
            if Sim.now sim < deadline then begin
              let pick = Rng.int rng 100 in
              let kind =
                if pick < 45 then `New_order
                else if pick < 88 then `Payment
                else if pick < 92 then `Order_status
                else if pick < 96 then `Delivery
                else `Stock_level
              in
              let t0 = Sim.now sim in
              let outcome =
                match kind with
                | `New_order ->
                    let r, remote =
                      tx_new_order db ~gateway ~rng ~w
                        ~districts:districts_per_warehouse
                        ~customers:customers_per_district ~items ~total_w
                    in
                    (match r with
                    | Ok () ->
                        (* Count throughput inside the measurement window
                           only; terminals drain their final think times
                           past the deadline. *)
                        if Sim.now sim <= deadline then begin
                          results.committed_new_orders <-
                            results.committed_new_orders + 1;
                          if remote then
                            results.remote_new_orders <-
                              results.remote_new_orders + 1
                        end;
                        Some results.new_order
                    | Error _ -> None)
                | `Payment -> (
                    match
                      tx_payment db ~gateway ~rng ~w
                        ~districts:districts_per_warehouse
                        ~customers:customers_per_district
                    with
                    | Ok () -> Some results.payment
                    | Error _ -> None)
                | `Order_status -> (
                    match
                      tx_order_status db ~gateway ~rng ~w
                        ~districts:districts_per_warehouse
                        ~customers:customers_per_district
                    with
                    | Ok () -> Some results.order_status
                    | Error _ -> None)
                | `Delivery -> (
                    match
                      tx_delivery db ~gateway ~rng ~w
                        ~districts:districts_per_warehouse
                    with
                    | Ok () -> Some results.delivery
                    | Error _ -> None)
                | `Stock_level -> (
                    match
                      tx_stock_level db ~gateway ~rng ~w
                        ~districts:districts_per_warehouse
                    with
                    | Ok () -> Some results.stock_level
                    | Error _ -> None)
              in
              let latency = Sim.now sim - t0 in
              results.busy_micros <- results.busy_micros + latency;
              (match outcome with
              | Some hist ->
                  Hist.add hist latency;
                  Hist.add results.all latency;
                  Hist.add (List.assoc region results.by_region) latency
              | None -> results.errors <- results.errors + 1);
              let pause = pause_for rng kind in
              results.pause_micros <- results.pause_micros + pause;
              Proc.sleep sim pause;
              loop ()
            end
          in
          loop ();
          remaining := !remaining - 1;
          if !remaining = 0 then Crdb_sim.Ivar.fill finished ())
    done
  done;
  Crdb.run t (fun () -> Proc.await finished);
  results.elapsed <- duration;
  results
