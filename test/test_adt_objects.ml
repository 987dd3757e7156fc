(* Tests for the ADT database objects: transactional behaviour (undo on
   abort), semantic concurrency (escrow and queue commutativity through
   the protocols), and correctness of results. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng
module Escrow = Ooser_adts.Escrow_counter
module Fifo_queue = Ooser_adts.Fifo_queue
module Kv_set = Ooser_adts.Kv_set
module Directory = Ooser_adts.Directory

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let o = Obj_id.v

let open_protocol db = Protocol.open_nested ~reg:(Database.spec_registry db) ()

let test_counter_concurrent_escrow () =
  let db = Database.create () in
  let c = Adt_objects.register_counter db (o "C") ~low:0 ~high:1000 100 in
  let body delta ctx =
    ignore
      (Runtime.call ctx (o "C")
         (if delta >= 0 then "incr" else "decr")
         [ Value.int (abs delta) ]);
    Value.unit
  in
  let out =
    Engine.run db ~protocol:(open_protocol db)
      [ (1, "d1", body 10); (2, "d2", body (-5)); (3, "d3", body 7) ]
  in
  check_int "all committed" 3 (List.length out.Engine.committed);
  check_int "value" 112 (Escrow.value c);
  (* escrow: small updates commute, no waits at all *)
  check_bool "no waits" true
    (not (List.mem_assoc "waits" out.Engine.metrics));
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_counter_abort_undo () =
  let db = Database.create () in
  let c = Adt_objects.register_counter db (o "C") ~low:0 ~high:1000 50 in
  let body ctx =
    ignore (Runtime.call ctx (o "C") "incr" [ Value.int 10 ]);
    Runtime.abort "nope"
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "t", body) ] in
  check_int "aborted" 1 (List.length out.Engine.aborted);
  check_int "restored" 50 (Escrow.value c)

let test_counter_bounds_abort () =
  let db = Database.create () in
  let c = Adt_objects.register_counter db (o "C") ~low:0 ~high:20 10 in
  let body ctx =
    ignore (Runtime.call ctx (o "C") "incr" [ Value.int 5 ]);
    ignore (Runtime.call ctx (o "C") "incr" [ Value.int 50 ]);
    (* bound violation *)
    Value.unit
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "t", body) ] in
  check_int "aborted on bound" 1 (List.length out.Engine.aborted);
  check_int "first incr undone too" 10 (Escrow.value c)

(* A blocked escrow request is asked again on every pump iteration: its
   pin is the balance when it is asked, and an abort's undo changes the
   balance without a grant or a release of the lock it waits for.  T1
   takes 3 of 10 and parks on [Runtime.await]; T2 takes 1 (balance 6);
   T3's decr 4, pinned at 6, conflicts with T1's decr (6 - 3 - 4 < 0)
   but not with T2's.  T2 then gives up, its undo brings the balance
   back to 7, and T3, asked again, now commutes with T1 and commits
   while T1 still holds its lock. *)
let test_counter_pin_follows_undo () =
  let db = Database.create () in
  let c = Adt_objects.register_counter db (o "C") ~low:0 ~high:100 10 in
  let decr ctx n = ignore (Runtime.call ctx (o "C") "decr" [ Value.int n ]) in
  let protocol = open_protocol db in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy =
        Test_engine.scripted [ 1; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 2 ];
    }
  in
  let eng = Engine.create ~config db ~protocol in
  Engine.submit eng ~top:1 ~name:"t1" (fun ctx -> decr ctx 3; Runtime.await ctx; Value.unit);
  Engine.submit eng ~top:2 ~name:"t2" (fun ctx -> decr ctx 1; Runtime.abort "give up");
  Engine.submit eng ~top:3 ~name:"t3" (fun ctx -> decr ctx 4; Value.unit);
  ignore (Engine.pump eng);
  check_bool "T1 still holds its lock" true (Engine.txn_state eng 1 = `Running);
  check_bool "T2 gave up" true (Engine.txn_state eng 2 = `Aborted "give up");
  check_bool "T3 committed" true
    (match Engine.txn_state eng 3 with `Committed _ -> true | _ -> false);
  check_int "balance" 3 (Escrow.value c)

let test_set_operations () =
  let db = Database.create () in
  let s = Adt_objects.register_set db (o "S1") in
  let body ctx =
    ignore (Runtime.call ctx (o "S1") "insert" [ Value.str "a" ]);
    ignore (Runtime.call ctx (o "S1") "insert" [ Value.str "b" ]);
    ignore (Runtime.call ctx (o "S1") "remove" [ Value.str "a" ]);
    Runtime.call ctx (o "S1") "contains" [ Value.str "b" ]
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "t", body) ] in
  check_bool "result" true (List.assoc 1 out.Engine.results = Value.bool true);
  check_int "final cardinality" 1 (Kv_set.cardinal s)

let test_set_keyed_concurrency () =
  let db = Database.create () in
  ignore (Adt_objects.register_set db (o "S1"));
  let body k ctx =
    ignore (Runtime.call ctx (o "S1") "insert" [ Value.str k ]);
    Value.unit
  in
  let out =
    Engine.run db ~protocol:(open_protocol db)
      [ (1, "ka", body "a"); (2, "kb", body "b"); (3, "kc", body "c") ]
  in
  check_int "all committed" 3 (List.length out.Engine.committed);
  check_bool "different keys never wait" true
    (not (List.mem_assoc "waits" out.Engine.metrics))

let test_queue_fifo_through_engine () =
  let db = Database.create () in
  let q = Adt_objects.register_queue db (o "Q") in
  let producer ctx =
    List.iter
      (fun i -> ignore (Runtime.call ctx (o "Q") "enqueue" [ Value.int i ]))
      [ 1; 2; 3 ];
    Value.unit
  in
  ignore (Engine.run db ~protocol:(open_protocol db) [ (1, "prod", producer) ]);
  let consumer ctx = Runtime.call ctx (o "Q") "dequeue" [] in
  let out = Engine.run db ~protocol:(open_protocol db) [ (2, "cons", consumer) ] in
  check_bool "fifo head" true
    (List.assoc 2 out.Engine.results = Value.pair (Value.str "some") (Value.int 1));
  check_int "two left" 2 (Fifo_queue.length q)

let test_queue_abort_restores () =
  let db = Database.create () in
  let q = Adt_objects.register_queue db (o "Q") in
  let setup ctx =
    ignore (Runtime.call ctx (o "Q") "enqueue" [ Value.int 1 ]);
    ignore (Runtime.call ctx (o "Q") "enqueue" [ Value.int 2 ]);
    Value.unit
  in
  ignore (Engine.run db ~protocol:(open_protocol db) [ (1, "s", setup) ]);
  let doomed ctx =
    ignore (Runtime.call ctx (o "Q") "dequeue" []);
    ignore (Runtime.call ctx (o "Q") "enqueue" [ Value.int 99 ]);
    Runtime.abort "rollback"
  in
  ignore (Engine.run db ~protocol:(open_protocol db) [ (2, "d", doomed) ]);
  check_int "length restored" 2 (Fifo_queue.length q);
  check_bool "head restored" true (Fifo_queue.peek q = Some (Value.int 1))

let test_directory_phantoms () =
  let db = Database.create () in
  ignore (Adt_objects.register_directory db (o "D"));
  let binder ctx =
    ignore
      (Runtime.call ctx (o "D") "bind" [ Value.str "k"; Value.int 1 ]);
    Value.unit
  in
  let lister ctx =
    ignore (Runtime.call ctx (o "D") "list" []);
    Value.unit
  in
  let out =
    Engine.run db ~protocol:(open_protocol db)
      [ (1, "bind", binder); (2, "list", lister) ]
  in
  check_int "both committed" 2 (List.length out.Engine.committed);
  (* list conflicts with bind: a top-level dependency exists *)
  check_bool "phantom dependency" true
    (Baselines.conflict_pairs out.Engine.history `Oo > 0);
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_directory_lookup_results () =
  let db = Database.create () in
  ignore (Adt_objects.register_directory db (o "D"));
  let body ctx =
    ignore (Runtime.call ctx (o "D") "bind" [ Value.str "x"; Value.int 42 ]);
    ignore (Runtime.call ctx (o "D") "bind" [ Value.str "x"; Value.int 43 ]);
    Runtime.call ctx (o "D") "lookup" [ Value.str "x" ]
  in
  let out = Engine.run db ~protocol:(open_protocol db) [ (1, "t", body) ] in
  check_bool "rebind wins" true
    (List.assoc 1 out.Engine.results
    = Value.pair (Value.str "some") (Value.int 43))

(* Two binds on distinct keys commute by the directory spec, so a later
   [list] must not tell their orders apart: names come in key order. *)
let test_directory_list_key_order () =
  let listed keys =
    let db = Database.create () in
    ignore (Adt_objects.register_directory db (o "D"));
    let body ctx =
      List.iter
        (fun k -> ignore (Runtime.call ctx (o "D") "bind" [ k; Value.int 1 ]))
        keys;
      Runtime.call ctx (o "D") "list" []
    in
    let out = Engine.run db ~protocol:(open_protocol db) [ (1, "t", body) ] in
    List.assoc 1 out.Engine.results
  in
  let a = Value.str "a" and b = Value.str "b" in
  check_bool "bind a; bind b lists as bind b; bind a" true
    (Value.equal (listed [ a; b ]) (listed [ b; a ]))

let test_set_compensations_commute () =
  (* the classical open-nesting pitfall: T1 inserts v and will abort; T2
     inserts the SAME v between T1's insert and T1's abort (the two
     inserts commute, so nothing blocks T2).  T1's compensation must NOT
     erase T2's element — the counted representation guarantees it. *)
  let db = Database.create () in
  let s = Adt_objects.register_set db (o "S1") in
  (* T1 inserts then stalls long enough for T2 to run, then aborts *)
  let t1 ctx =
    ignore (Runtime.call ctx (o "S1") "insert" [ Value.str "v" ]);
    (* busywork so the abort happens after T2's insert under the script *)
    ignore (Runtime.call ctx (o "S1") "cardinal" []);
    ignore (Runtime.call ctx (o "S1") "cardinal" []);
    Runtime.abort "t1 gives up"
  in
  let t2 ctx =
    ignore (Runtime.call ctx (o "S1") "insert" [ Value.str "v" ]);
    Value.unit
  in
  (* script: T1 inserts, T2 runs to completion, T1 aborts *)
  let protocol = open_protocol db in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy =
        Test_engine.scripted
          (List.init 6 (fun _ -> 1) @ List.init 10 (fun _ -> 2)
          @ List.init 20 (fun _ -> 1));
    }
  in
  let out = Engine.run ~config db ~protocol [ (1, "t1", t1); (2, "t2", t2) ] in
  check_bool "t2 committed" true (List.mem 2 out.Engine.committed);
  check_bool "t1 aborted" true (List.mem_assoc 1 out.Engine.aborted);
  (* T2's insert must survive T1's compensation *)
  check_bool "element survives" true (Kv_set.mem s (Value.str "v"));
  check_int "exactly one insertion left" 1 (Kv_set.count s (Value.str "v"))

let test_queue_compensations_commute () =
  (* same pitfall for the queue: T1 enqueues x and aborts after T2
     enqueued the identical value; exactly one x must remain *)
  let db = Database.create () in
  let q = Adt_objects.register_queue db (o "Q") in
  let t1 ctx =
    ignore (Runtime.call ctx (o "Q") "enqueue" [ Value.str "x" ]);
    ignore (Runtime.call ctx (o "Q") "length" []);
    ignore (Runtime.call ctx (o "Q") "length" []);
    Runtime.abort "t1 gives up"
  in
  let t2 ctx =
    ignore (Runtime.call ctx (o "Q") "enqueue" [ Value.str "x" ]);
    Value.unit
  in
  let protocol = open_protocol db in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy =
        Test_engine.scripted
          (List.init 6 (fun _ -> 1) @ List.init 10 (fun _ -> 2)
          @ List.init 20 (fun _ -> 1));
    }
  in
  let out = Engine.run ~config db ~protocol [ (1, "t1", t1); (2, "t2", t2) ] in
  check_bool "t2 committed" true (List.mem 2 out.Engine.committed);
  check_int "exactly one x left" 1 (Fifo_queue.length q)

(* Direct execution outside the scheduler: nested calls run at once, a
   callee's abort under try_call comes back as [Error], call_par results
   come back in invocation order, and [on_undo] receives every closure
   the call tree registers, oldest first. *)
let test_run_direct () =
  let db = Database.create () in
  ignore (Adt_objects.register_counter db (o "C") 5);
  let log = ref [] in
  let note ctx label = Runtime.on_undo ctx (fun () -> log := label :: !log) in
  Database.register db (o "N") ~spec:Commutativity.all_conflict
    [
      ( "note",
        Database.primitive (fun ctx args ->
            let v = List.hd args in
            note ctx (Value.to_str_exn v);
            v) );
      ("fail", Database.primitive (fun _ _ -> Runtime.abort "refused"));
    ];
  let n = o "N" in
  Database.register db (o "P") ~spec:Commutativity.all_conflict
    [
      ( "outer",
        Database.composite (fun ctx _ ->
            note ctx "first";
            let nested = Runtime.call ctx n "note" [ Value.str "nested" ] in
            let tried =
              match Runtime.try_call ctx n "fail" [] with
              | Ok v -> v
              | Error msg -> Value.str ("error " ^ msg)
            in
            let par =
              Runtime.call_par ctx
                [
                  Runtime.invocation n "note" [ Value.str "par1" ];
                  Runtime.invocation (o "C") "read" [];
                  Runtime.invocation n "note" [ Value.str "par2" ];
                ]
            in
            note ctx "last";
            Value.list (nested :: tried :: par)) );
    ];
  let undos = ref [] in
  let v =
    Database.run_direct db
      ~on_undo:(fun g -> undos := g :: !undos)
      { Runtime.top = 1 }
      (Runtime.invocation (o "P") "outer" [])
  in
  let s = Value.str in
  check_bool "results: nested, try_call error, call_par in order" true
    (Value.equal v
       (Value.list
          [ s "nested"; s "error refused"; s "par1"; Value.int 5; s "par2" ]));
  List.iter (fun g -> g ()) (List.rev !undos);
  Alcotest.(check (list string))
    "closures arrive oldest first"
    [ "first"; "nested"; "par1"; "par2"; "last" ]
    (List.rev !log)

let suites =
  [
    ( "adt_objects",
      [
        Alcotest.test_case "escrow counter concurrency" `Quick
          test_counter_concurrent_escrow;
        Alcotest.test_case "counter abort undo" `Quick test_counter_abort_undo;
        Alcotest.test_case "counter bound violation aborts" `Quick
          test_counter_bounds_abort;
        Alcotest.test_case "counter pin follows an undo" `Quick
          test_counter_pin_follows_undo;
        Alcotest.test_case "set operations" `Quick test_set_operations;
        Alcotest.test_case "set keyed concurrency" `Quick
          test_set_keyed_concurrency;
        Alcotest.test_case "queue fifo order" `Quick test_queue_fifo_through_engine;
        Alcotest.test_case "queue abort restores" `Quick test_queue_abort_restores;
        Alcotest.test_case "directory phantoms" `Quick test_directory_phantoms;
        Alcotest.test_case "directory lookup" `Quick test_directory_lookup_results;
        Alcotest.test_case "directory list in key order" `Quick
          test_directory_list_key_order;
        Alcotest.test_case "run_direct: nested, try and parallel calls"
          `Quick test_run_direct;
        Alcotest.test_case "set compensations commute" `Quick
          test_set_compensations_commute;
        Alcotest.test_case "queue compensations commute" `Quick
          test_queue_compensations_commute;
      ] );
  ]
