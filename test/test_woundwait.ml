(* Tests for the wound-wait deadlock prevention policy. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let o = Obj_id.v

let register_cell db name init =
  let state = ref init in
  let read _ _ = Value.int !state in
  let write ctx args =
    match args with
    | [ Value.Int v ] ->
        let old = !state in
        Runtime.on_undo ctx (fun () -> state := old);
        state := v;
        Value.unit
    | _ -> invalid_arg "write"
  in
  Database.register db (o name)
    ~spec:(Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ])
    [ ("read", Database.primitive read); ("write", Database.primitive write) ];
  state

let ww_config ?(seed = 1) protocol =
  {
    (Engine.default_config protocol) with
    Engine.deadlock = Engine.Wound_wait;
    Engine.strategy = Engine.Random_pick (Rng.create ~seed);
  }

let test_wound_wait_resolves_crossing () =
  (* the classic A/B crossing deadlock: under wound-wait no cycle ever
     forms — the older transaction wounds the younger holder *)
  let db = Database.create () in
  let a = register_cell db "A" 0 in
  let b = register_cell db "B" 0 in
  let t1 ctx =
    ignore (Runtime.call ctx (o "A") "write" [ Value.int 1 ]);
    ignore (Runtime.call ctx (o "B") "write" [ Value.int 1 ]);
    Value.unit
  in
  let t2 ctx =
    ignore (Runtime.call ctx (o "B") "write" [ Value.int 2 ]);
    ignore (Runtime.call ctx (o "A") "write" [ Value.int 2 ]);
    Value.unit
  in
  let protocol = Protocol.flat_2pl ~reg:(Database.spec_registry db) () in
  let config = ww_config protocol in
  let out = Engine.run ~config db ~protocol [ (1, "t1", t1); (2, "t2", t2) ] in
  check_int "both committed" 2 (List.length out.Engine.committed);
  check_int "no detector deadlocks" 0
    (try List.assoc "deadlocks" out.Engine.metrics with Not_found -> 0);
  check_bool "serializable" true
    (Baselines.conventional_serializable out.Engine.history);
  check_bool "state consistent" true (!a > 0 && !b > 0)

let test_wounds_counted () =
  (* T2 (younger) grabs the lock first; T1 (older) wounds it *)
  let db = Database.create () in
  ignore (register_cell db "X" 0);
  let slow ctx =
    (* touch X early, then do other work so the older txn collides *)
    ignore (Runtime.call ctx (o "X") "write" [ Value.int 2 ]);
    ignore (Runtime.call ctx (o "X") "read" []);
    ignore (Runtime.call ctx (o "X") "read" []);
    Value.unit
  in
  let old_txn ctx =
    ignore (Runtime.call ctx (o "X") "write" [ Value.int 1 ]);
    Value.unit
  in
  let protocol = Protocol.flat_2pl ~reg:(Database.spec_registry db) () in
  (* round-robin: let T2 start first by listing it first *)
  let config =
    { (Engine.default_config protocol) with Engine.deadlock = Engine.Wound_wait }
  in
  let out =
    Engine.run ~config db ~protocol [ (2, "young", slow); (1, "old", old_txn) ]
  in
  check_int "both committed" 2 (List.length out.Engine.committed);
  check_bool "a wound happened" true
    ((try List.assoc "wounds" out.Engine.metrics with Not_found -> 0) > 0)

let test_wound_wait_many_txns () =
  (* a pile of read-modify-write increments: wound-wait must keep making
     progress and end with the correct count *)
  let db = Database.create () in
  let cell = register_cell db "R" 0 in
  let incr ctx _ =
    let v = Value.to_int_exn (Runtime.call ctx (o "R") "read" []) in
    ignore (Runtime.call ctx (o "R") "write" [ Value.int (v + 1) ]);
    Value.unit
  in
  Database.register db (o "C")
    ~spec:(Commutativity.of_commute_matrix ~name:"counter" [ ("incr", "incr") ])
    [ ("incr", Database.composite incr) ];
  let body ctx =
    ignore (Runtime.call ctx (o "C") "incr" []);
    Value.unit
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let config = ww_config ~seed:3 protocol in
  let out =
    Engine.run ~config db ~protocol
      (List.init 6 (fun i -> (i + 1, Printf.sprintf "t%d" (i + 1), body)))
  in
  check_int "all committed" 6 (List.length out.Engine.committed);
  check_int "correct count" 6 !cell;
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_wait_die_resolves_crossing () =
  let db = Database.create () in
  let a = register_cell db "A" 0 in
  let b = register_cell db "B" 0 in
  let t1 ctx =
    ignore (Runtime.call ctx (o "A") "write" [ Value.int 1 ]);
    ignore (Runtime.call ctx (o "B") "write" [ Value.int 1 ]);
    Value.unit
  in
  let t2 ctx =
    ignore (Runtime.call ctx (o "B") "write" [ Value.int 2 ]);
    ignore (Runtime.call ctx (o "A") "write" [ Value.int 2 ]);
    Value.unit
  in
  let protocol = Protocol.flat_2pl ~reg:(Database.spec_registry db) () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.deadlock = Engine.Wait_die;
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:2);
    }
  in
  let out = Engine.run ~config db ~protocol [ (1, "t1", t1); (2, "t2", t2) ] in
  check_int "both committed" 2 (List.length out.Engine.committed);
  check_int "no detector deadlocks" 0
    (try List.assoc "deadlocks" out.Engine.metrics with Not_found -> 0);
  check_bool "a young transaction died" true
    ((try List.assoc "dies" out.Engine.metrics with Not_found -> 0) > 0);
  check_bool "serializable" true
    (Baselines.conventional_serializable out.Engine.history);
  check_bool "state consistent" true (!a > 0 && !b > 0)

let test_wait_die_first_branch_dies () =
  (* the younger transaction's first parallel branch dies on the older
     holder's lock, aborting the transaction while call_par is still
     forking: the remaining branch must not be started for it *)
  let db = Database.create () in
  let a = register_cell db "A" 0 in
  let b = register_cell db "B" 0 in
  let older ctx =
    ignore (Runtime.call ctx (o "A") "write" [ Value.int 1 ]);
    ignore (Runtime.call ctx (o "A") "read" []);
    Value.unit
  in
  let younger ctx =
    ignore
      (Runtime.call_par ctx
         [
           Runtime.invocation (o "A") "write" [ Value.int 2 ];
           Runtime.invocation (o "B") "write" [ Value.int 2 ];
         ]);
    Value.unit
  in
  let protocol = Protocol.flat_2pl ~reg:(Database.spec_registry db) () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.deadlock = Engine.Wait_die;
      (* the older one takes A's lock before the younger one forks *)
      Engine.strategy = Test_engine.scripted [ 1; 1; 1; 2; 2 ];
    }
  in
  let out =
    Engine.run ~config db ~protocol [ (1, "older", older); (2, "younger", younger) ]
  in
  check_int "both committed" 2 (List.length out.Engine.committed);
  check_bool "the younger transaction died" true
    ((try List.assoc "dies" out.Engine.metrics with Not_found -> 0) > 0);
  check_bool "younger wrote last" true (!a = 2 && !b = 2)

let test_policies_agree_on_results () =
  (* both policies produce correct (if different) schedules over many
     seeds *)
  let ok = ref true in
  List.iter
    (fun policy ->
      for seed = 1 to 6 do
        let db = Database.create () in
        let p =
          { Ooser_workload.Banking.default_params with
            Ooser_workload.Banking.n_txns = 5 }
        in
        let db', counters = Ooser_workload.Banking.setup ~semantics:`Rw p in
        ignore db;
        let txns = Ooser_workload.Banking.transactions ~rng:(Rng.create ~seed) p in
        let protocol =
          Protocol.open_nested ~reg:(Database.spec_registry db') ()
        in
        let config =
          {
            (Engine.default_config protocol) with
            Engine.deadlock = policy;
            Engine.strategy = Engine.Random_pick (Rng.create ~seed:(seed * 5));
          }
        in
        let out = Engine.run ~config db' ~protocol txns in
        if
          (not (Serializability.oo_serializable out.Engine.history))
          || Ooser_workload.Banking.total_balance counters
             <> p.Ooser_workload.Banking.accounts
                * p.Ooser_workload.Banking.initial
        then ok := false
      done)
    [ Engine.Detect; Engine.Wound_wait; Engine.Wait_die ];
  check_bool "all policies sound" true !ok

(* A barger: the waiter W is blocked behind a holder it must wait for,
   and a transaction B is then granted a class W's request conflicts
   with (reads share, the write conflicts with both).  Grants are not
   queued, so B gets in; W's request is asked again on the next pump
   iteration because its object granted a lock, and W's policy then
   acts on B at once — long before the first holder, parked on
   [Runtime.await], releases.  The script runs the holder to its await,
   then W to its block, then B to its grant. *)
let run_barger ~policy ~holder ~waiter ~barger =
  let db = Database.create () in
  ignore (register_cell db "X" 0);
  let read ctx = ignore (Runtime.call ctx (o "X") "read" []) in
  let bodies =
    [
      (holder, fun ctx -> read ctx; Runtime.await ctx; Value.unit);
      (waiter, fun ctx -> ignore (Runtime.call ctx (o "X") "write" [ Value.int 1 ]); Value.unit);
      (barger, fun ctx -> read ctx; Value.unit);
    ]
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.deadlock = policy;
      Engine.max_restarts = 0;
      Engine.strategy =
        Test_engine.scripted
          (List.concat_map
             (fun (top, n) -> List.init n (fun _ -> top))
             [ (holder, 5); (waiter, 3); (barger, 3) ]);
    }
  in
  let eng = Engine.create ~config db ~protocol in
  List.iter
    (fun top -> Engine.submit eng ~top ~name:(Printf.sprintf "t%d" top) (List.assoc top bodies))
    [ 1; 2; 3 ];
  ignore (Engine.pump eng);
  check_bool "the holder still holds its lock" true (Engine.txn_state eng holder = `Running);
  eng

let test_wound_wait_barger () =
  (* T1 holds, T2 waits (younger than T1), T3 barges: T2 wounds it *)
  let eng = run_barger ~policy:Engine.Wound_wait ~holder:1 ~waiter:2 ~barger:3 in
  check_bool "the barger is wounded" true (Engine.txn_state eng 3 = `Aborted "wounded");
  check_bool "the waiter still waits" true (Engine.txn_state eng 2 = `Running);
  ignore (Engine.poke eng 1);
  ignore (Engine.pump eng);
  check_bool "the waiter gets in once the holder commits" true
    (match Engine.txn_state eng 2 with `Committed _ -> true | _ -> false)

let test_wait_die_barger () =
  (* T3 holds, T2 waits (older than T3), the older T1 barges: T2 dies *)
  let eng = run_barger ~policy:Engine.Wait_die ~holder:3 ~waiter:2 ~barger:1 in
  check_bool "the waiter dies" true (Engine.txn_state eng 2 = `Aborted "wait-die");
  check_bool "the barger commits" true
    (match Engine.txn_state eng 1 with `Committed _ -> true | _ -> false)

let suites =
  [
    ( "wound_wait",
      [
        Alcotest.test_case "resolves the crossing deadlock" `Quick
          test_wound_wait_resolves_crossing;
        Alcotest.test_case "wounds are counted" `Quick test_wounds_counted;
        Alcotest.test_case "wait-die resolves the crossing" `Quick
          test_wait_die_resolves_crossing;
        Alcotest.test_case "wait-die: first parallel branch dies" `Quick
          test_wait_die_first_branch_dies;
        Alcotest.test_case "wound-wait: a barger is wounded at once" `Quick
          test_wound_wait_barger;
        Alcotest.test_case "wait-die: a waiter dies for an older barger" `Quick
          test_wait_die_barger;
        Alcotest.test_case "many transactions make progress" `Quick
          test_wound_wait_many_txns;
        Alcotest.test_case "policies agree on correctness" `Quick
          test_policies_agree_on_results;
      ] );
  ]
