(* An inventory / order-processing application composing the §2 abstract
   data types into one schema:

     Store ──▶ stock counters (escrow)   one per product
          ──▶ catalog (directory)        product name -> price
          ──▶ orders (FIFO queue)        fulfilment pipeline
          ──▶ sold (escrow counter)      revenue tally

   place_order checks the catalog, debits stock under the escrow test
   (concurrent orders for ample stock commute!), credits revenue and
   enqueues fulfilment.  When stock runs short the escrow commutativity
   vanishes and orders serialize — semantics degrading exactly as O'Neil
   describes.  A failed debit is caught with try_call and the order is
   rejected without aborting anything else. *)

open Ooser_core
open Ooser_oodb
module Escrow = Ooser_adts.Escrow_counter
module Fifo_queue = Ooser_adts.Fifo_queue
module Rng = Ooser_sim.Rng
module Dist = Ooser_sim.Dist

type t = {
  db : Database.t;
  store : Obj_id.t;
  products : string array;
  stock : Escrow.t array;
  revenue : Escrow.t;
  orders : Fifo_queue.t;
}

let stock_obj name i = Obj_id.v (Printf.sprintf "%s.Stock%d" name i)
let catalog_obj name = Obj_id.v (name ^ ".Catalog")
let orders_obj name = Obj_id.v (name ^ ".Orders")
let revenue_obj name = Obj_id.v (name ^ ".Revenue")

(* Store-level semantics: orders for different products commute; the
   inventory report conflicts with every order (it reads all stock). *)
let store_spec =
  let keyed =
    Commutativity.by_key ~key_of:Commutativity.first_arg
      (Commutativity.predicate ~stable:true ~name:"store-keyed" (fun a b ->
           match (Action.meth a, Action.meth b) with
           | "place", "place" ->
               (* same product: defer to the stock escrow below — at store
                  level we conservatively conflict *)
               false
           | _ -> false))
  in
  Commutativity.predicate ~stable:true ~name:"store"
    ~vocab:[ "place"; "fulfil"; "report" ]
    (fun a b ->
      match (Action.meth a, Action.meth b) with
      | "report", _ | _, "report" -> false
      | _ -> Commutativity.test keyed a b)

let create ?(name = "Store") ?(products = 4) ?(initial_stock = 100) db =
  if products <= 0 then invalid_arg "Inventory.create";
  let product_names = Array.init products (fun i -> Printf.sprintf "p%d" i) in
  let stock =
    Array.init products (fun i ->
        Adt_objects.register_counter db (stock_obj name i) ~low:0 initial_stock)
  in
  let catalog = Adt_objects.register_directory db (catalog_obj name) in
  Array.iteri
    (fun i p -> Ooser_adts.Directory.bind catalog (Value.str p) (Value.int (10 + i)))
    product_names;
  let orders = Adt_objects.register_queue db (orders_obj name) in
  let revenue =
    Adt_objects.register_counter db (revenue_obj name) ~low:0 0
  in
  let t =
    { db; store = Obj_id.v name; products = product_names; stock; revenue;
      orders }
  in
  let product_index p =
    let rec find i =
      if i >= Array.length product_names then None
      else if product_names.(i) = p then Some i
      else find (i + 1)
    in
    find 0
  in
  let place ctx args =
    match args with
    | [ Value.Str p; Value.Int qty ] -> (
        (* look the price up; missing products fail the order softly *)
        match
          (Runtime.call ctx (catalog_obj name) "lookup" [ Value.str p ],
           product_index p)
        with
        | Value.Pair (Value.Str "some", Value.Int price), Some i -> (
            (* debit stock under the escrow test; insufficient stock is a
               partial rollback, not a transaction abort *)
            match
              Runtime.try_call ctx (stock_obj name i) "decr" [ Value.int qty ]
            with
            | Ok _ ->
                ignore
                  (Runtime.call ctx (revenue_obj name) "incr"
                     [ Value.int (price * qty) ]);
                ignore
                  (Runtime.call ctx (orders_obj name) "enqueue"
                     [ Value.pair (Value.str p) (Value.int qty) ]);
                Value.pair (Value.str "accepted") (Value.int (price * qty))
            | Error _ -> Value.pair (Value.str "rejected") Value.unit)
        | _, _ -> Value.pair (Value.str "rejected") Value.unit)
    | _ -> invalid_arg "place: product and quantity expected"
  in
  let fulfil ctx _args = Runtime.call ctx (orders_obj name) "dequeue" [] in
  let report ctx _args =
    Value.list
      (List.init products (fun i ->
           Runtime.call ctx (stock_obj name i) "read" []))
  in
  Database.register db t.store ~spec:store_spec
    [
      ("place", Database.composite place);
      ("fulfil", Database.composite fulfil);
      ("report", Database.composite report);
    ];
  t

let stock_level t i = Escrow.value t.stock.(i)
let revenue_total t = Escrow.value t.revenue
let pending_orders t = Fifo_queue.length t.orders
let product t i = t.products.(i)

(* -- transaction helpers -------------------------------------------------------- *)

let place_order t ctx ~product:p ~qty =
  match
    Runtime.call ctx t.store "place" [ Value.str p; Value.int qty ]
  with
  | Value.Pair (Value.Str "accepted", Value.Int total) -> Some total
  | _ -> None

let fulfil_one t ctx =
  match Runtime.call ctx t.store "fulfil" [] with
  | Value.Pair (Value.Str "some", v) -> Some v
  | _ -> None

let report t ctx =
  match Runtime.call ctx t.store "report" [] with
  | Value.List vs -> List.filter_map Value.to_int vs
  | _ -> []

(* -- workload ---------------------------------------------------------------------- *)

type params = {
  products : int;
  initial_stock : int;
  n_txns : int;
  orders_per_txn : int;
  qty : int;
  dist : Dist.t;
}

let default_params =
  {
    products = 4;
    initial_stock = 100;
    n_txns = 8;
    orders_per_txn = 2;
    qty = 3;
    dist = Dist.uniform 4;
  }

(* The product picks of every order transaction — shared by the
   executable bodies and the static summaries. *)
let order_plan ~rng p =
  List.init p.n_txns (fun i ->
      let picks =
        List.init p.orders_per_txn (fun _ ->
            Dist.sample rng p.dist mod p.products)
      in
      (i + 1, picks))

let setup ~rng p db =
  let t = create ~products:p.products ~initial_stock:p.initial_stock db in
  let txns =
    List.map
      (fun (i, picks) ->
        ( i,
          Printf.sprintf "order%d" i,
          fun ctx ->
            List.iter
              (fun prod ->
                ignore (place_order t ctx ~product:t.products.(prod) ~qty:p.qty))
              picks;
            Value.unit ))
      (order_plan ~rng p)
  in
  (t, txns)

module Summary = Ooser_analysis.Summary

(* Static summary of one order: the place call and the calls its body
   issues (catalog lookup, escrow stock debit, revenue credit, order
   enqueue) — mirroring [create]'s [place] implementation. *)
let place_summary t ~prod ~qty =
  let name = Obj_id.name t.store in
  let product = t.products.(prod) in
  let price = 10 + prod in
  Summary.call
    ~args:[ Value.str product; Value.int qty ]
    t.store "place"
    [
      Summary.call ~args:[ Value.str product ] (catalog_obj name) "lookup" [];
      Summary.call ~args:[ Value.int qty ] (stock_obj name prod) "decr" [];
      Summary.call
        ~args:[ Value.int (price * qty) ]
        (revenue_obj name) "incr" [];
      Summary.call
        ~args:[ Value.pair (Value.str product) (Value.int qty) ]
        (orders_obj name) "enqueue" [];
    ]

let fulfil_summary t =
  let name = Obj_id.name t.store in
  Summary.txn "fulfil"
    [
      Summary.call t.store "fulfil"
        [ Summary.call (orders_obj name) "dequeue" [] ];
    ]

let report_summary t =
  let name = Obj_id.name t.store in
  Summary.txn "report"
    [
      Summary.call t.store "report"
        (List.init (Array.length t.products) (fun i ->
             Summary.call (stock_obj name i) "read" []));
    ]

let static_summaries t ~rng p =
  List.map
    (fun (i, picks) ->
      Summary.txn
        (Printf.sprintf "order%d" i)
        (List.map (fun prod -> place_summary t ~prod ~qty:p.qty) picks))
    (order_plan ~rng p)
  @ [ fulfil_summary t; report_summary t ]
