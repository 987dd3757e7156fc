(* Tests for intra-transaction parallelism (Def. 9): parallel branches as
   separate processes, action sets with partial precedence, branch-level
   conflicts and deadlocks. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng
module Stats = Ooser_sim.Stats

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
  let add ctx args =
    match args with
    | [ Value.Int v ] ->
        let old = !state in
        Runtime.on_undo ctx (fun () -> state := old);
        state := !state + v;
        Value.int !state
    | _ -> invalid_arg "add"
  in
  Database.register db (o name)
    ~spec:(Commutativity.rw ~reads:[ "read" ] ~writes:[ "write"; "add" ])
    [
      ("read", Database.primitive read);
      ("write", Database.primitive write);
      ("add", Database.primitive add);
    ];
  state

let test_fork_basic () =
  let db = Database.create () in
  let a = register_cell db "A" 0 in
  let b = register_cell db "B" 0 in
  let c = register_cell db "C" 0 in
  let body ctx =
    let results =
      Runtime.call_par ctx
        [
          Runtime.invocation (o "A") "write" [ Value.int 1 ];
          Runtime.invocation (o "B") "write" [ Value.int 2 ];
          Runtime.invocation (o "C") "write" [ Value.int 3 ];
        ]
    in
    Value.int (List.length results)
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  Alcotest.(check (list int)) "committed" [ 1 ] out.Engine.committed;
  check_int "A" 1 !a;
  check_int "B" 2 !b;
  check_int "C" 3 !c;
  check_bool "result count" true (List.assoc 1 out.Engine.results = Value.int 3);
  check_bool "history valid" true (History.validate out.Engine.history = Ok ());
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history);
  (* the three branches carry three distinct processes, none the main one *)
  let procs =
    List.filter_map
      (fun act ->
        if Ids.Action_id.depth (Action.id act) = 1 then Some (Action.process act)
        else None)
      (History.all_actions out.Engine.history)
  in
  check_int "three branch actions" 3 (List.length procs);
  check_int "three distinct processes" 3
    (List.length (List.sort_uniq Ids.Process_id.compare procs))

let test_fork_no_precedence () =
  let db = Database.create () in
  ignore (register_cell db "A" 0);
  ignore (register_cell db "B" 0);
  let body ctx =
    ignore (Runtime.call ctx (o "A") "write" [ Value.int 9 ]);
    ignore
      (Runtime.call_par ctx
         [
           Runtime.invocation (o "A") "read" [];
           Runtime.invocation (o "B") "read" [];
         ]);
    ignore (Runtime.call ctx (o "B") "write" [ Value.int 9 ]);
    Value.unit
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  (match History.tops out.Engine.history with
  | [ tree ] ->
      let prec = Call_tree.prec tree in
      (* children: write(0), read(1), read(2), write(3); the two parallel
         reads are mutually unordered but ordered wrt the writes *)
      let mem p = List.mem p prec in
      check_bool "write before reads" true (mem (0, 1) && mem (0, 2));
      check_bool "reads before write" true (mem (1, 3) && mem (2, 3));
      check_bool "reads unordered" false (mem (1, 2) || mem (2, 1));
      (* program-order pairs reflect the partial order *)
      let pairs = Call_tree.program_order_pairs tree in
      let has a b =
        List.exists
          (fun (x, y) ->
            Ids.Action_id.equal x (Ids.Action_id.v ~top:1 ~path:[ a ])
            && Ids.Action_id.equal y (Ids.Action_id.v ~top:1 ~path:[ b ]))
          pairs
      in
      check_bool "n3 has write->read" true (has 1 2 && has 1 3);
      check_bool "n3 lacks read->read" false (has 2 3 || has 3 2)
  | _ -> Alcotest.fail "expected one tree");
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_branches_conflict () =
  (* two branches of ONE transaction add to the same cell: different
     processes, so they conflict (Def. 9) and the lock serializes them;
     both effects must apply *)
  let db = Database.create () in
  let a = register_cell db "A" 0 in
  let body ctx =
    ignore
      (Runtime.call_par ctx
         [
           Runtime.invocation (o "A") "add" [ Value.int 1 ];
           Runtime.invocation (o "A") "add" [ Value.int 2 ];
         ]);
    Value.unit
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  Alcotest.(check (list int)) "committed" [ 1 ] out.Engine.committed;
  check_int "both adds applied" 3 !a;
  check_bool "history valid" true (History.validate out.Engine.history = Ok ());
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_fork_inside_method () =
  (* a composite method forks: a scatter-gather read over two cells *)
  let db = Database.create () in
  ignore (register_cell db "X" 10);
  ignore (register_cell db "Y" 20);
  let gather ctx _args =
    let vs =
      Runtime.call_par ctx
        [
          Runtime.invocation (o "X") "read" [];
          Runtime.invocation (o "Y") "read" [];
        ]
    in
    Value.int (List.fold_left (fun acc v -> acc + Value.to_int_exn v) 0 vs)
  in
  Database.register db (o "Gather") ~spec:Commutativity.all_commute
    [ ("sum", Database.composite gather) ];
  let body ctx = Runtime.call ctx (o "Gather") "sum" [] in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  check_bool "sum" true (List.assoc 1 out.Engine.results = Value.int 30);
  check_bool "history valid" true (History.validate out.Engine.history = Ok ());
  (* the reads are children of the Gather.sum action *)
  match History.tops out.Engine.history with
  | [ tree ] -> (
      match Call_tree.find tree (Ids.Action_id.v ~top:1 ~path:[ 1 ]) with
      | Some node -> check_int "two parallel children" 2
                       (List.length (Call_tree.children node))
      | None -> Alcotest.fail "sum action missing")
  | _ -> Alcotest.fail "expected one tree"

let test_nested_forks () =
  let db = Database.create () in
  ignore (register_cell db "A" 0);
  ignore (register_cell db "B" 0);
  ignore (register_cell db "C" 0);
  ignore (register_cell db "D" 0);
  let pair ctx names =
    ignore
      (Runtime.call_par ctx
         (List.map (fun n -> Runtime.invocation (o n) "write" [ Value.int 5 ]) names));
    Value.unit
  in
  Database.register db (o "L")
    ~spec:Commutativity.all_commute
    [
      ("ab", Database.composite (fun ctx _ -> pair ctx [ "A"; "B" ]));
      ("cd", Database.composite (fun ctx _ -> pair ctx [ "C"; "D" ]));
    ];
  let body ctx =
    ignore
      (Runtime.call_par ctx
         [ Runtime.invocation (o "L") "ab" []; Runtime.invocation (o "L") "cd" [] ]);
    Value.unit
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  Alcotest.(check (list int)) "committed" [ 1 ] out.Engine.committed;
  check_bool "history valid" true (History.validate out.Engine.history = Ok ());
  check_int "four leaf writes" 4
    (List.length (History.order out.Engine.history));
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_empty_fork () =
  let db = Database.create () in
  let body ctx =
    let vs = Runtime.call_par ctx [] in
    Value.int (List.length vs)
  in
  let protocol = Protocol.unlocked () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  check_bool "empty fork returns []" true
    (List.assoc 1 out.Engine.results = Value.int 0)

let test_abort_unwinds_branches () =
  (* one branch aborts the transaction: all branch effects are undone *)
  let db = Database.create () in
  let a = register_cell db "A" 100 in
  let boom _ctx _args = Runtime.abort "branch failure" in
  Database.register db (o "Boom") ~spec:Commutativity.all_commute
    [ ("go", Database.composite boom) ];
  let body ctx =
    ignore
      (Runtime.call_par ctx
         [
           Runtime.invocation (o "A") "write" [ Value.int 0 ];
           Runtime.invocation (o "Boom") "go" [];
         ]);
    Value.unit
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out = Engine.run db ~protocol [ (1, "t1", body) ] in
  check_int "aborted" 1 (List.length out.Engine.aborted);
  check_int "branch write undone" 100 !a

let test_parallel_txns_with_branches () =
  (* several transactions, each forking; everything serializes correctly *)
  let db = Database.create () in
  let a = register_cell db "A" 0 in
  let b = register_cell db "B" 0 in
  let body ctx =
    ignore
      (Runtime.call_par ctx
         [
           Runtime.invocation (o "A") "add" [ Value.int 1 ];
           Runtime.invocation (o "B") "add" [ Value.int 1 ];
         ]);
    Value.unit
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:77);
    }
  in
  let out =
    Engine.run ~config db ~protocol
      [ (1, "t1", body); (2, "t2", body); (3, "t3", body) ]
  in
  check_int "all committed" 3 (List.length out.Engine.committed);
  check_int "A" 3 !a;
  check_int "B" 3 !b;
  check_bool "history valid" true (History.validate out.Engine.history = Ok ());
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_intra_txn_deadlock_resolved () =
  (* branch 1 takes A then B; branch 2 takes B then A: a deadlock INSIDE
     one transaction, detected at task granularity and resolved by
     restarting the transaction *)
  let db = Database.create () in
  let a = register_cell db "A" 0 in
  let b = register_cell db "B" 0 in
  let seq ctx names =
    List.iter
      (fun n -> ignore (Runtime.call ctx (o n) "add" [ Value.int 1 ]))
      names;
    Value.unit
  in
  Database.register db (o "W")
    ~spec:Commutativity.all_conflict
    [
      ("ab", Database.composite (fun ctx _ -> seq ctx [ "A"; "B" ]));
      ("ba", Database.composite (fun ctx _ -> seq ctx [ "B"; "A" ]));
    ];
  let body ctx =
    ignore
      (Runtime.call_par ctx
         [ Runtime.invocation (o "W") "ab" []; Runtime.invocation (o "W") "ba" [] ]);
    Value.unit
  in
  (* flat 2PL holds the page locks to the end: guaranteed deadlock *)
  let protocol = Protocol.flat_2pl ~reg:(Database.spec_registry db) () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:3);
      Engine.max_restarts = 50;
    }
  in
  let out = Engine.run ~config db ~protocol [ (1, "t1", body) ] in
  match out.Engine.committed with
  | [ 1 ] ->
      check_int "A got both adds" 2 !a;
      check_int "B got both adds" 2 !b;
      check_bool "restarts or luck" true (List.assoc "aborts" out.Engine.metrics >= 0)
  | [] ->
      (* permanently aborted after exhausting restarts: state must be
         clean *)
      check_int "A restored" 0 !a;
      check_int "B restored" 0 !b
  | _ -> Alcotest.fail "unexpected commit set"

(* Property: random fork workloads under every protocol and deadlock
   policy stay correct.  The cells use LOGICAL undo (subtract what was
   added) rather than before-image restore: the optimistic certifier runs
   without locks, so a physical restore could clobber another
   transaction's concurrent update (see Engine.config.certify). *)
let register_logical_cell db name =
  let state = ref 0 in
  let add ctx args =
    match args with
    | [ Value.Int v ] ->
        Runtime.on_undo ctx (fun () -> state := !state - v);
        state := !state + v;
        Value.int v
    | _ -> invalid_arg "add"
  in
  Database.register db (o name)
    ~spec:(Commutativity.rw ~reads:[] ~writes:[ "add" ])
    [ ("add", Database.primitive add) ];
  state

let prop_forks_under_protocols =
  QCheck2.Test.make ~name:"forked branches correct under every protocol"
    ~count:24
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 0 3))
    (fun (seed, pmode) ->
      let db = Database.create () in
      let cells =
        Array.init 4 (fun i -> register_logical_cell db (Printf.sprintf "C%d" i))
      in
      let rng = Rng.create ~seed in
      let body _i ctx =
        let picks =
          List.init 3 (fun _ -> Rng.int rng 4) |> List.sort_uniq compare
        in
        ignore
          (Runtime.call_par ctx
             (List.map
                (fun c ->
                  Runtime.invocation
                    (o (Printf.sprintf "C%d" c))
                    "add" [ Value.int 1 ])
                picks));
        Value.int (List.length picks)
      in
      let reg = Database.spec_registry db in
      let protocol, certify =
        match pmode with
        | 0 -> (Protocol.open_nested ~reg (), false)
        | 1 -> (Protocol.flat_2pl ~reg (), false)
        | 2 -> (Protocol.closed_nested ~reg (), false)
        | _ -> (Protocol.unlocked (), true)
      in
      let config =
        {
          (Engine.default_config protocol) with
          Engine.certify;
          Engine.strategy = Engine.Random_pick (Rng.create ~seed:(seed + 9));
          Engine.max_restarts = 40;
        }
      in
      let out =
        Engine.run ~config db ~protocol
          [ (1, "t1", body 1); (2, "t2", body 2); (3, "t3", body 3) ]
      in
      let total_adds =
        List.fold_left
          (fun acc (_, v) -> acc + Value.to_int_exn v)
          0 out.Engine.results
      in
      let total_state = Array.fold_left (fun a c -> a + !c) 0 cells in
      List.length out.Engine.committed = 3
      && total_adds = total_state
      && History.validate out.Engine.history = Ok ()
      && Serializability.oo_serializable out.Engine.history)

(* A deadlock through a join.  T1 writes A, then forks branches writing
   B and C; T2 has written C and then asks for A.  T1's C branch waits
   for T2, T2 waits for the lock T1's parent holds on A, and the parent
   waits for its branch: a cycle only through the join.  It is broken
   like any other, by aborting its youngest transaction, T2 — alone and
   beside a third transaction parked on [Runtime.await] alike. *)
let join_deadlock ~with_awaiting () =
  let db = Database.create () in
  ignore (register_cell db "A" 0);
  ignore (register_cell db "B" 0);
  ignore (register_cell db "C" 0);
  let write ctx name v = ignore (Runtime.call ctx (o name) "write" [ Value.int v ]) in
  let t1 ctx =
    write ctx "A" 1;
    ignore
      (Runtime.call_par ctx
         [
           Runtime.invocation (o "B") "write" [ Value.int 1 ];
           Runtime.invocation (o "C") "write" [ Value.int 1 ];
         ]);
    Value.unit
  in
  let t2 ctx =
    write ctx "C" 2;
    write ctx "A" 2;
    Value.unit
  in
  let t3 ctx =
    Runtime.await ctx;
    Value.unit
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.max_restarts = 0;
      (* T1 writes A, T2 writes C, T1 forks, T2 asks for A *)
      Engine.strategy =
        Test_engine.scripted
          ((if with_awaiting then [ 3; 3 ] else []) @ [ 1; 1; 1; 1; 2; 2; 2; 2; 1; 2; 2 ]);
    }
  in
  let eng = Engine.create ~config db ~protocol in
  Engine.submit eng ~top:1 ~name:"t1" t1;
  Engine.submit eng ~top:2 ~name:"t2" t2;
  if with_awaiting then Engine.submit eng ~top:3 ~name:"t3" t3;
  ignore (Engine.pump eng);
  check_int "one deadlock" 1 (Stats.Counter.get (Engine.counters eng) "deadlocks");
  check_bool "T2 is the victim" true
    (Engine.txn_state eng 2 = `Aborted "deadlock victim");
  check_bool "T1 commits" true
    (match Engine.txn_state eng 1 with `Committed _ -> true | _ -> false);
  if with_awaiting then
    check_bool "T3 still awaits" true (Engine.txn_state eng 3 = `Running)

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "fork basic" `Quick test_fork_basic;
        Alcotest.test_case "fork precedence structure" `Quick
          test_fork_no_precedence;
        Alcotest.test_case "branches of one txn conflict (Def. 9)" `Quick
          test_branches_conflict;
        Alcotest.test_case "fork inside a method" `Quick test_fork_inside_method;
        Alcotest.test_case "nested forks" `Quick test_nested_forks;
        Alcotest.test_case "empty fork" `Quick test_empty_fork;
        Alcotest.test_case "abort unwinds branches" `Quick
          test_abort_unwinds_branches;
        Alcotest.test_case "parallel txns with branches" `Quick
          test_parallel_txns_with_branches;
        Alcotest.test_case "intra-transaction deadlock" `Quick
          test_intra_txn_deadlock_resolved;
        Alcotest.test_case "deadlock through a join" `Quick
          (join_deadlock ~with_awaiting:false);
        Alcotest.test_case "deadlock through a join beside an awaiting session"
          `Quick (join_deadlock ~with_awaiting:true);
        QCheck_alcotest.to_alcotest prop_forks_under_protocols;
      ] );
  ]
