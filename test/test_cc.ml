(* Unit tests for the lock table, protocols and deadlock detection. *)

open Ooser_core
module Lock_table = Ooser_cc.Lock_table
module Protocol = Ooser_cc.Protocol
module Deadlock = Ooser_cc.Deadlock

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let o = Obj_id.v
let aid top path = Ids.Action_id.v ~top ~path

let act ?(args = []) top path obj meth =
  Action.v ~id:(aid top path) ~obj:(o obj) ~meth ~args
    ~process:(Ids.Process_id.main top)
    ()

let rw_reg =
  Commutativity.uniform (Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ])

let test_lock_table_basics () =
  let t = Lock_table.create () in
  let w1 = act 1 [ 1; 1 ] "P" "write" in
  Lock_table.add t ~action:w1 ~scope:(aid 1 [ 1 ]);
  check_int "one entry" 1 (Lock_table.total t);
  let w2 = act 2 [ 1; 1 ] "P" "write" in
  check_int "conflicting found" 1
    (List.length (Lock_table.conflicting rw_reg t w2));
  let r2 = act 2 [ 1; 2 ] "P" "read" in
  check_int "read conflicts write" 1
    (List.length (Lock_table.conflicting rw_reg t r2));
  let other = act 2 [ 1; 3 ] "Q" "write" in
  check_int "different object free" 0
    (List.length (Lock_table.conflicting rw_reg t other));
  Lock_table.release_scope t (aid 1 [ 1 ]);
  check_int "released" 0 (Lock_table.total t)

let test_lock_table_call_path () =
  let t = Lock_table.create () in
  (* an ancestor's lock never blocks its own descendants *)
  let held = act 1 [ 1 ] "P" "write" in
  Lock_table.add t ~action:held ~scope:(aid 1 []);
  let child = act 1 [ 1; 2 ] "P" "write" in
  check_int "descendant passes" 0
    (List.length (Lock_table.conflicting rw_reg t child));
  (* a sibling of the same transaction also passes, but via Def. 9
     (same process), exercised through the commutativity registry *)
  let sibling = act 1 [ 2 ] "P" "write" in
  check_int "same process passes" 0
    (List.length (Lock_table.conflicting rw_reg t sibling))

let test_release_top () =
  let t = Lock_table.create () in
  Lock_table.add t ~action:(act 1 [ 1; 1 ] "P" "write") ~scope:(aid 1 [ 1 ]);
  Lock_table.add t ~action:(act 1 [ 2; 1 ] "Q" "write") ~scope:(aid 1 []);
  Lock_table.add t ~action:(act 2 [ 1; 1 ] "R" "write") ~scope:(aid 2 [ 1 ]);
  Lock_table.release_top t 1;
  check_int "only T2's entry remains" 1 (Lock_table.total t)

let test_lock_table_class_skip () =
  (* many same-class readers: the probe for another reader is dismissed
     with a single raw spec test (the rw spec is stable), while a writer
     still finds every one of them *)
  let calls = ref 0 in
  let rw = Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ] in
  let counting =
    Commutativity.make ~stable:true ~name:"counting-rw" (fun a b ->
        incr calls;
        Commutativity.test rw a b)
  in
  let reg = Commutativity.uniform counting in
  let t = Lock_table.create () in
  for i = 1 to 8 do
    Lock_table.add t ~action:(act i [ 1 ] "P" "read") ~scope:(aid i [])
  done;
  check_int "readers all pass" 0
    (List.length (Lock_table.conflicting reg t (act 9 [ 1 ] "P" "read")));
  check_int "one spec call dismisses the 8 readers" 1 !calls;
  check_int "writer finds all readers" 8
    (List.length (Lock_table.conflicting reg t (act 9 [ 2 ] "P" "write")));
  (* nothing is memoised: a repeat probe decides afresh, again with one
     call *)
  calls := 0;
  check_int "repeat probe still passes" 0
    (List.length (Lock_table.conflicting reg t (act 10 [ 1 ] "P" "read")));
  check_int "one spec call again" 1 !calls;
  (* a dead entry is gone from subsequent probes (lazy purge) *)
  Lock_table.release_top t 1;
  check_int "seven live" 7 (Lock_table.total t);
  check_int "writer finds the live ones" 7
    (List.length (Lock_table.conflicting reg t (act 9 [ 3 ] "P" "write")))

let test_lock_table_escalate_index () =
  (* after escalation the lock is retained by the caller: the caller's
     other descendants pass, other transactions still conflict *)
  let t = Lock_table.create () in
  let a = act 1 [ 1; 1 ] "P" "write" in
  Lock_table.add t ~action:a ~scope:(aid 1 []);
  Lock_table.escalate t (aid 1 [ 1; 1 ]);
  Lock_table.escalate t (aid 1 [ 1 ]);
  check_int "sibling branch passes after escalation" 0
    (List.length (Lock_table.conflicting rw_reg t (act 1 [ 2; 1 ] "P" "write")));
  check_int "other txn still blocked" 1
    (List.length (Lock_table.conflicting rw_reg t (act 2 [ 1 ] "P" "write")))

let test_protocol_flat_vs_open_scope () =
  (* flat 2PL holds page locks to the end of the transaction; open
     nesting releases them when the calling subtransaction ends *)
  let w1 = act 1 [ 1; 1 ] "P" "write" in
  let w2 = act 2 [ 1; 1 ] "P" "write" in
  let sub1 = act 1 [ 1 ] "C" "incr" in
  let flat = Protocol.flat_2pl ~reg:rw_reg () in
  check_bool "flat grants first" true (Protocol.request flat w1 ~leaf:true = Protocol.Granted);
  Protocol.on_end flat sub1;
  check_bool "flat still blocks after subtxn end" true
    (match Protocol.request flat w2 ~leaf:true with
    | Protocol.Blocked _ -> true
    | Protocol.Granted -> false);
  Protocol.on_top_commit flat 1;
  check_bool "flat grants after top commit" true
    (Protocol.request flat w2 ~leaf:true = Protocol.Granted);
  let opn = Protocol.open_nested ~reg:rw_reg () in
  check_bool "open grants first" true (Protocol.request opn w1 ~leaf:true = Protocol.Granted);
  check_bool "open blocks concurrently" true
    (match Protocol.request opn w2 ~leaf:true with
    | Protocol.Blocked _ -> true
    | Protocol.Granted -> false);
  (* the page lock's scope is the calling action a1.1 *)
  Protocol.on_end opn sub1;
  check_bool "open grants after caller ends" true
    (Protocol.request opn w2 ~leaf:true = Protocol.Granted)

let test_protocol_semantic_locks () =
  (* open nesting also locks intermediate actions with their object's
     semantics *)
  let reg =
    Commutativity.fixed
      [
        ("C", Commutativity.of_commute_matrix ~name:"c" [ ("incr", "incr") ]);
      ]
  in
  let opn = Protocol.open_nested ~reg () in
  let i1 = act 1 [ 1 ] "C" "incr" in
  let i2 = act 2 [ 1 ] "C" "incr" in
  let r2 = act 2 [ 2 ] "C" "reset" in
  check_bool "incr granted" true (Protocol.request opn i1 ~leaf:false = Protocol.Granted);
  check_bool "commuting incr granted" true
    (Protocol.request opn i2 ~leaf:false = Protocol.Granted);
  check_bool "conflicting reset blocked" true
    (match Protocol.request opn r2 ~leaf:false with
    | Protocol.Blocked _ -> true
    | Protocol.Granted -> false)

let test_protocol_flat_ignores_non_leaf () =
  let flat = Protocol.flat_2pl ~reg:(Commutativity.uniform Commutativity.all_conflict) () in
  let sub1 = act 1 [ 1 ] "C" "incr" in
  let sub2 = act 2 [ 1 ] "C" "incr" in
  check_bool "non-leaf always granted" true
    (Protocol.request flat sub1 ~leaf:false = Protocol.Granted
    && Protocol.request flat sub2 ~leaf:false = Protocol.Granted)

let test_unlocked () =
  let p = Protocol.unlocked () in
  let w1 = act 1 [ 1 ] "P" "write" in
  let w2 = act 2 [ 1 ] "P" "write" in
  check_bool "grants everything" true
    (Protocol.request p w1 ~leaf:true = Protocol.Granted
    && Protocol.request p w2 ~leaf:true = Protocol.Granted)

let test_deadlock_detection () =
  check_bool "no cycle" true (Deadlock.find_cycle [ (1, [ 2 ]); (2, [ 3 ]) ] = None);
  check_bool "cycle found" true
    (Deadlock.find_cycle [ (1, [ 2 ]); (2, [ 1 ]) ] <> None);
  Alcotest.(check (option int)) "youngest is victim" (Some 2)
    (Deadlock.victim [ (1, [ 2 ]); (2, [ 1 ]) ]);
  Alcotest.(check (option int)) "three-cycle victim" (Some 7)
    (Deadlock.victim [ (3, [ 7 ]); (7, [ 5 ]); (5, [ 3 ]) ]);
  check_bool "self-wait ignored" true (Deadlock.find_cycle [ (1, [ 1 ]) ] = None)

(* Pinned escrow locks: two held decrements of the same amount but
   different pins fall into different classes — a class probe on one
   must not dismiss the other. *)
let test_lock_table_pinned_classes () =
  let c = Ooser_adts.Escrow_counter.create ~low:0 ~high:10 10 in
  let reg = Commutativity.uniform (Ooser_adts.Escrow_counter.spec c) in
  let t = Lock_table.create () in
  let decr top pin =
    Action.with_pin (act ~args:[ Value.int 3 ] top [ 1 ] "C" "decr") (Value.int pin)
  in
  (* decr 3 pinned at 4 conflicts with a request pinned at 10 (4-3-3 < 0);
     decr 3 pinned at 10 commutes with it *)
  Lock_table.add t ~action:(decr 2 4) ~scope:(aid 2 []);
  Lock_table.add t ~action:(decr 1 10) ~scope:(aid 1 []);
  match Lock_table.conflicting reg t (decr 3 10) with
  | [ e ] ->
      check_int "the holder pinned at 4 conflicts" 2
        (Ids.Action_id.top (Action.id e.Lock_table.action))
  | l -> Alcotest.failf "expected one conflict, got %d" (List.length l)

let suites =
  [
    ( "cc",
      [
        Alcotest.test_case "lock table basics" `Quick test_lock_table_basics;
        Alcotest.test_case "call-path compatibility" `Quick test_lock_table_call_path;
        Alcotest.test_case "release by transaction" `Quick test_release_top;
        Alcotest.test_case "pinned escrow lock classes" `Quick
          test_lock_table_pinned_classes;
        Alcotest.test_case "class-bucket skip and lazy purge" `Quick
          test_lock_table_class_skip;
        Alcotest.test_case "escalation via retainer index" `Quick
          test_lock_table_escalate_index;
        Alcotest.test_case "flat vs open lock scopes" `Quick
          test_protocol_flat_vs_open_scope;
        Alcotest.test_case "semantic locks at intermediate levels" `Quick
          test_protocol_semantic_locks;
        Alcotest.test_case "flat ignores non-leaf actions" `Quick
          test_protocol_flat_ignores_non_leaf;
        Alcotest.test_case "unlocked grants all" `Quick test_unlocked;
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
      ] );
  ]
