(* Integration tests for the execution engine: fibers, locking, undo,
   compensation, deadlock resolution, history recording. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let o = Obj_id.v

(* A scripted interleaving on [Controlled]: each pick steps the next
   transaction the script names and consumes the entry; when that
   transaction is not runnable, or the script is spent, the hook answers
   -1 and the engine falls back to round-robin. *)
let scripted tops =
  let script = ref tops in
  Engine.Controlled
    (fun labels ->
      match !script with
      | [] -> -1
      | top :: rest -> (
          match List.find_index (fun l -> l.Engine.u_top = top) labels with
          | Some i ->
              script := rest;
              i
          | None -> -1))

(* A register: a primitive cell with read/write and undo. *)
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

(* A counter whose incr is a composite method over a register, with
   commuting increments and a compensating decrement. *)
let register_counter db name cell_name =
  let incr ctx _args =
    let v = Value.to_int_exn (Runtime.call ctx (o cell_name) "read" []) in
    ignore (Runtime.call ctx (o cell_name) "write" [ Value.int (v + 1) ]);
    Value.unit
  in
  let decr ctx _args =
    let v = Value.to_int_exn (Runtime.call ctx (o cell_name) "read" []) in
    ignore (Runtime.call ctx (o cell_name) "write" [ Value.int (v - 1) ]);
    Value.unit
  in
  let compensate _args _result =
    Database.Inverse { Runtime.target = o name; meth_name = "decr"; args = [] }
  in
  Database.register db (o name)
    ~spec:(Commutativity.of_commute_matrix ~name:"counter" [ ("incr", "incr") ])
    [
      ("incr", Database.composite ~compensate incr);
      ("decr", Database.composite decr);
    ]

let test_single_transaction () =
  let db = Database.create () in
  let cell = register_cell db "R" 0 in
  register_counter db "C" "R";
  let body ctx =
    ignore (Runtime.call ctx (o "C") "incr" []);
    ignore (Runtime.call ctx (o "C") "incr" []);
    Value.unit
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  Alcotest.(check (list int)) "committed" [ 1 ] out.Engine.committed;
  check_int "state" 2 !cell;
  check_bool "history valid" true (History.validate out.Engine.history = Ok ());
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_concurrent_commuting_increments () =
  let db = Database.create () in
  let cell = register_cell db "R" 0 in
  register_counter db "C" "R";
  let body ctx =
    ignore (Runtime.call ctx (o "C") "incr" []);
    Value.unit
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out =
    Engine.run db ~protocol
      [ (1, "t1", body); (2, "t2", body); (3, "t3", body) ]
  in
  check_int "all committed" 3 (List.length out.Engine.committed);
  check_int "state" 3 !cell;
  check_bool "history valid" true (History.validate out.Engine.history = Ok ());
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_flat_2pl_serializes () =
  let db = Database.create () in
  let cell = register_cell db "R" 0 in
  register_counter db "C" "R";
  let body ctx =
    ignore (Runtime.call ctx (o "C") "incr" []);
    Value.unit
  in
  let protocol = Protocol.flat_2pl ~reg:(Database.spec_registry db) () in
  let out = Engine.run db ~protocol [ (1, "t1", body); (2, "t2", body) ] in
  check_int "all committed" 2 (List.length out.Engine.committed);
  check_int "state" 2 !cell;
  check_bool "conventional-serializable" true
    (Baselines.conventional_serializable out.Engine.history)

let test_explicit_abort_restores_state () =
  let db = Database.create () in
  let cell = register_cell db "R" 10 in
  let body ctx =
    ignore (Runtime.call ctx (o "R") "write" [ Value.int 99 ]);
    Runtime.abort "changed my mind"
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  check_int "no commits" 0 (List.length out.Engine.committed);
  check_int "aborted" 1 (List.length out.Engine.aborted);
  check_int "state restored" 10 !cell;
  (* empty history is fine *)
  check_bool "history valid" true (History.validate out.Engine.history = Ok ())

let test_compensation_after_subcommit () =
  (* T1 increments (the subtransaction commits, releasing its page-level
     locks), then aborts: the counter must be compensated by decr, not by
     restoring the raw cell value (which may meanwhile have moved). *)
  let db = Database.create () in
  let cell = register_cell db "R" 0 in
  register_counter db "C" "R";
  let body ctx =
    ignore (Runtime.call ctx (o "C") "incr" []);
    Runtime.abort "after subcommit"
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  check_int "aborted" 1 (List.length out.Engine.aborted);
  check_int "compensated back to 0" 0 !cell;
  ignore out

let test_deadlock_resolution () =
  (* T1 writes A then B; T2 writes B then A, under flat 2PL with
     all-conflict semantics: a deadlock must be detected, one transaction
     restarted, and both must eventually commit. *)
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
  let out = Engine.run db ~protocol [ (1, "t1", t1); (2, "t2", t2) ] in
  check_int "both committed" 2 (List.length out.Engine.committed);
  check_bool "a deadlock was broken" true
    (List.assoc "deadlocks" out.Engine.metrics > 0
    || List.assoc "restarts" out.Engine.metrics > 0);
  (* the final state is one of the two serial outcomes *)
  check_bool "serial outcome" true
    ((!a, !b) = (1, 1) || (!a, !b) = (2, 2) || (!a, !b) = (1, 2) || (!a, !b) = (2, 1));
  check_bool "conventional-serializable" true
    (Baselines.conventional_serializable out.Engine.history)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_primitive_cannot_call () =
  let db = Database.create () in
  let bad ctx _args = Runtime.call ctx (o "X") "read" [] in
  Database.register db (o "Bad") ~spec:Commutativity.all_conflict
    [ ("boom", Database.primitive bad) ];
  let body ctx = Runtime.call ctx (o "Bad") "boom" [] in
  let protocol = Protocol.unlocked () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  check_int "aborted" 1 (List.length out.Engine.aborted);
  check_bool "reason mentions the call" true
    (match out.Engine.aborted with
    | [ (_, reason) ] -> contains reason "issued a call"
    | _ -> false)

let test_unknown_targets () =
  let db = Database.create () in
  ignore (register_cell db "R" 0);
  let protocol = Protocol.unlocked () in
  let out1 =
    Engine.run db ~protocol
      [ (1, "t1", fun ctx -> Runtime.call ctx (o "Nowhere") "read" []) ]
  in
  check_bool "unknown object aborts" true
    (match out1.Engine.aborted with
    | [ (1, reason) ] -> contains reason "unknown object"
    | _ -> false);
  let out2 =
    Engine.run db ~protocol
      [ (2, "t2", fun ctx -> Runtime.call ctx (o "R") "frobnicate" []) ]
  in
  check_bool "unknown method aborts" true
    (match out2.Engine.aborted with
    | [ (2, reason) ] -> contains reason "no method"
    | _ -> false)

let test_random_strategy_deterministic () =
  (* the same seed must give the same execution *)
  let run seed =
    let db = Database.create () in
    let _cell = register_cell db "R" 0 in
    register_counter db "C" "R";
    let body ctx =
      ignore (Runtime.call ctx (o "C") "incr" []);
      Value.unit
    in
    let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
    let config =
      {
        (Engine.default_config protocol) with
        Engine.strategy = Engine.Random_pick (Rng.create ~seed);
      }
    in
    let out =
      Engine.run ~config db ~protocol
        [ (1, "t1", body); (2, "t2", body); (3, "t3", body) ]
    in
    List.map Action_id.to_string (History.order out.Engine.history)
  in
  Alcotest.(check (list string)) "same seed, same order" (run 42) (run 42);
  (* all three increments commit: two primitives each *)
  check_int "all runs commit fully" 6 (List.length (run 7))

let test_unlocked_can_violate () =
  (* without locks, interleaved read-modify-write increments can lose an
     update; the checker must catch it when it happens.  We only assert
     agreement between the final counter value and the verdict. *)
  let db = Database.create () in
  let cell = register_cell db "R" 0 in
  register_counter db "C" "R";
  let body ctx =
    ignore (Runtime.call ctx (o "C") "incr" []);
    Value.unit
  in
  let protocol = Protocol.unlocked () in
  let out = Engine.run db ~protocol [ (1, "t1", body); (2, "t2", body) ] in
  check_int "committed" 2 (List.length out.Engine.committed);
  let serializable = Serializability.oo_serializable out.Engine.history in
  if !cell <> 2 then check_bool "lost update detected" false serializable

let test_metrics_exposed () =
  let db = Database.create () in
  ignore (register_cell db "R" 0);
  let protocol = Protocol.flat_2pl ~reg:(Database.spec_registry db) () in
  let body ctx =
    ignore (Runtime.call ctx (o "R") "write" [ Value.int 5 ]);
    Value.unit
  in
  let out = Engine.run db ~protocol [ (1, "t1", body); (2, "t2", body) ] in
  check_int "commits metric" 2 (List.assoc "commits" out.Engine.metrics);
  check_bool "lock requests counted" true
    (List.assoc "lock.requests" out.Engine.metrics >= 2)

(* [run]'s quiescent exit: a batch body parked on [Runtime.await] is
   never poked, so the pump goes quiet within the budget and [run]
   returns with the transaction still running — no budget abort, and no
   ABORT record in the journal. *)
let test_run_leaves_awaiting_body () =
  let db = Database.create () in
  let cell = register_cell db "R" 0 in
  let body ctx =
    ignore (Runtime.call ctx (o "R") "write" [ Value.int 1 ]);
    Runtime.await ctx;
    Value.unit
  in
  let protocol = Protocol.flat_2pl ~reg:(Database.spec_registry db) () in
  let journal = Ooser_recovery.Oplog.create () in
  let config = { (Engine.default_config protocol) with Engine.max_steps = 100 } in
  let out = Engine.run ~config ~journal db ~protocol [ (1, "waiter", body) ] in
  check_bool "within the budget" true (out.Engine.steps < 100);
  check_int "not committed" 0 (List.length out.Engine.committed);
  check_int "not aborted" 0 (List.length out.Engine.aborted);
  check_int "its write stays in place" 1 !cell;
  check_bool "no ABORT journaled" true
    (List.for_all
       (function Ooser_recovery.Oplog.Abort _ -> false | _ -> true)
       (Ooser_recovery.Oplog.all journal))

(* [run]'s budget exit, reached while the two writers of crossed objects
   wait on each other (each holds one object and requests the other's):
   the cycle is never broken by a victim, both abort with "step budget",
   their compensations undo every write and release every lock. *)
let test_run_budget_exhausted_in_lock_cycle () =
  let db = Database.create () in
  let a = register_cell db "A" 0 in
  let b = register_cell db "B" 0 in
  let writer first second v ctx =
    ignore (Runtime.call ctx (o first) "write" [ Value.int v ]);
    ignore (Runtime.call ctx (o second) "write" [ Value.int v ]);
    Value.unit
  in
  let protocol = Protocol.flat_2pl ~reg:(Database.spec_registry db) () in
  (* round-robin: the second wait, which closes the cycle, is the 12th
     step *)
  let config = { (Engine.default_config protocol) with Engine.max_steps = 12 } in
  let out =
    Engine.run ~config db ~protocol
      [ (1, "ab", writer "A" "B" 1); (2, "ba", writer "B" "A" 2) ]
  in
  let metric k = Option.value ~default:0 (List.assoc_opt k out.Engine.metrics) in
  check_int "both writers waiting" 2 (metric "waits");
  check_int "no deadlock victim" 0 (metric "deadlocks");
  Alcotest.(check (list (pair int string)))
    "both aborted on the budget"
    [ (1, "step budget"); (2, "step budget") ]
    (List.sort compare out.Engine.aborted);
  check_int "A undone" 0 !a;
  check_int "B undone" 0 !b;
  check_bool "compensations within 4x the budget" true (out.Engine.steps <= 48);
  check_bool "no lock left" true (Protocol.quiescent protocol)

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "single transaction" `Quick test_single_transaction;
        Alcotest.test_case "concurrent commuting increments" `Quick
          test_concurrent_commuting_increments;
        Alcotest.test_case "flat 2PL serializes" `Quick test_flat_2pl_serializes;
        Alcotest.test_case "explicit abort restores state" `Quick
          test_explicit_abort_restores_state;
        Alcotest.test_case "compensation after subcommit" `Quick
          test_compensation_after_subcommit;
        Alcotest.test_case "deadlock resolution" `Quick test_deadlock_resolution;
        Alcotest.test_case "primitive cannot call" `Quick test_primitive_cannot_call;
        Alcotest.test_case "unknown targets abort" `Quick test_unknown_targets;
        Alcotest.test_case "random strategy deterministic" `Quick
          test_random_strategy_deterministic;
        Alcotest.test_case "unlocked violations detected" `Quick
          test_unlocked_can_violate;
        Alcotest.test_case "metrics exposed" `Quick test_metrics_exposed;
        Alcotest.test_case "run leaves an awaiting body running" `Quick
          test_run_leaves_awaiting_body;
        Alcotest.test_case "run budget exhausted in a lock cycle" `Quick
          test_run_budget_exhausted_in_lock_cycle;
      ] );
  ]
