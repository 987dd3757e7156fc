(* Tests for the inventory application: escrow-backed orders, soft
   rejection on insufficient stock, the report/order phantom, scripted
   interleavings through the engine. *)

open Ooser_core
open Ooser_oodb
open Ooser_workload
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let open_protocol db = Protocol.open_nested ~reg:(Database.spec_registry db) ()

let test_orders_commute_on_ample_stock () =
  let db = Database.create () in
  let inv = Inventory.create ~products:2 ~initial_stock:100 db in
  let buyer product ctx =
    check_bool "accepted" true
      (Inventory.place_order inv ctx ~product ~qty:5 <> None);
    Value.unit
  in
  let config =
    let p = open_protocol db in
    {
      (Engine.default_config p) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:4);
    }
  in
  let out =
    Engine.run ~config db ~protocol:config.Engine.protocol
      [ (1, "b1", buyer "p0"); (2, "b2", buyer "p0"); (3, "b3", buyer "p1") ]
  in
  check_int "all committed" 3 (List.length out.Engine.committed);
  check_int "stock p0" 90 (Inventory.stock_level inv 0);
  check_int "stock p1" 95 (Inventory.stock_level inv 1);
  check_int "revenue" ((10 * 5 * 2) + (11 * 5)) (Inventory.revenue_total inv);
  check_int "orders queued" 3 (Inventory.pending_orders inv);
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_insufficient_stock_rejected_softly () =
  let db = Database.create () in
  let inv = Inventory.create ~products:1 ~initial_stock:4 db in
  let result = ref None in
  let buyer ctx =
    (* the big order fails softly; the small one then succeeds in the
       SAME transaction *)
    result := Inventory.place_order inv ctx ~product:"p0" ~qty:10;
    check_bool "small order accepted" true
      (Inventory.place_order inv ctx ~product:"p0" ~qty:2 <> None);
    Value.unit
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "b", buyer) ] in
  Alcotest.(check (list int)) "committed" [ 1 ] out.Engine.committed;
  check_bool "big order rejected" true (!result = None);
  check_int "stock debited only once" 2 (Inventory.stock_level inv 0);
  check_int "one order in queue" 1 (Inventory.pending_orders inv);
  check_int "revenue only for the accepted order" 20
    (Inventory.revenue_total inv)

let test_unknown_product () =
  let db = Database.create () in
  let inv = Inventory.create ~products:1 db in
  let buyer ctx =
    check_bool "rejected" true
      (Inventory.place_order inv ctx ~product:"nonexistent" ~qty:1 = None);
    Value.unit
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "b", buyer) ] in
  Alcotest.(check (list int)) "still commits" [ 1 ] out.Engine.committed

let test_fulfilment_fifo () =
  let db = Database.create () in
  let inv = Inventory.create ~products:2 db in
  let buyer ctx =
    ignore (Inventory.place_order inv ctx ~product:"p0" ~qty:1);
    ignore (Inventory.place_order inv ctx ~product:"p1" ~qty:2);
    Value.unit
  in
  ignore (Engine.run db ~protocol:(open_protocol db) [ (1, "b", buyer) ]);
  let shipper ctx =
    (match Inventory.fulfil_one inv ctx with
    | Some (Value.Pair (Value.Str p, Value.Int q)) ->
        check_bool "fifo head" true (p = "p0" && q = 1)
    | _ -> Alcotest.fail "expected an order");
    Value.unit
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (2, "s", shipper) ] in
  Alcotest.(check (list int)) "committed" [ 2 ] out.Engine.committed;
  check_int "one left" 1 (Inventory.pending_orders inv)

let test_report_conflicts_with_orders () =
  let db = Database.create () in
  let inv = Inventory.create ~products:2 db in
  let buyer ctx =
    ignore (Inventory.place_order inv ctx ~product:"p0" ~qty:1);
    Value.unit
  in
  let auditor ctx =
    ignore (Inventory.report inv ctx);
    Value.unit
  in
  let config =
    let p = open_protocol db in
    {
      (Engine.default_config p) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:8);
    }
  in
  let out =
    Engine.run ~config db ~protocol:config.Engine.protocol
      [ (1, "buy", buyer); (2, "audit", auditor) ]
  in
  check_int "both committed" 2 (List.length out.Engine.committed);
  check_bool "audit/order dependency" true
    (Baselines.conflict_pairs out.Engine.history `Oo > 0)

let test_scripted_interleaving () =
  (* drive a specific interleaving through the engine: T2 completes its
     whole order between T1's two orders — accepted and serializable *)
  let db = Database.create () in
  let inv = Inventory.create ~products:2 ~initial_stock:50 db in
  let b1 ctx =
    ignore (Inventory.place_order inv ctx ~product:"p0" ~qty:1);
    ignore (Inventory.place_order inv ctx ~product:"p1" ~qty:1);
    Value.unit
  in
  let b2 ctx =
    ignore (Inventory.place_order inv ctx ~product:"p0" ~qty:1);
    Value.unit
  in
  let protocol = open_protocol db in
  (* T1 places the first order (~steps), then T2 runs to completion, then
     T1 finishes *)
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy =
        Test_engine.scripted
          (List.init 25 (fun _ -> 1) @ List.init 40 (fun _ -> 2)
          @ List.init 100 (fun _ -> 1));
    }
  in
  let out =
    Engine.run ~config db ~protocol [ (1, "b1", b1); (2, "b2", b2) ]
  in
  check_int "both committed" 2 (List.length out.Engine.committed);
  check_int "stock p0" 48 (Inventory.stock_level inv 0);
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_contended_stock_keeps_invariants () =
  (* more demand than stock: a subset of orders gets through, stock never
     goes negative, queue matches accepted orders over many seeds *)
  let ok = ref true in
  for seed = 1 to 10 do
    let db = Database.create () in
    let inv = Inventory.create ~products:1 ~initial_stock:10 db in
    let buyer i ctx =
      ignore (Inventory.place_order inv ctx ~product:"p0" ~qty:3);
      ignore i;
      Value.unit
    in
    let config =
      let p = open_protocol db in
      {
        (Engine.default_config p) with
        Engine.strategy = Engine.Random_pick (Rng.create ~seed);
      }
    in
    let out =
      Engine.run ~config db ~protocol:config.Engine.protocol
        (List.init 6 (fun i -> (i + 1, Printf.sprintf "b%d" (i + 1), buyer i)))
    in
    let accepted = Inventory.pending_orders inv in
    if
      List.length out.Engine.committed <> 6
      || Inventory.stock_level inv 0 <> 10 - (3 * accepted)
      || Inventory.stock_level inv 0 < 0
      || not (Serializability.oo_serializable out.Engine.history)
    then ok := false
  done;
  check_bool "all seeds consistent" true !ok

let suites =
  [
    ( "inventory",
      [
        Alcotest.test_case "orders commute on ample stock" `Quick
          test_orders_commute_on_ample_stock;
        Alcotest.test_case "insufficient stock rejected softly" `Quick
          test_insufficient_stock_rejected_softly;
        Alcotest.test_case "unknown product" `Quick test_unknown_product;
        Alcotest.test_case "fulfilment is FIFO" `Quick test_fulfilment_fifo;
        Alcotest.test_case "report conflicts with orders" `Quick
          test_report_conflicts_with_orders;
        Alcotest.test_case "scripted interleaving" `Quick
          test_scripted_interleaving;
        Alcotest.test_case "contended stock invariants" `Quick
          test_contended_stock_keeps_invariants;
      ] );
  ]
