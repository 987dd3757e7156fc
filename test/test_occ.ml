(* Unit and property tests for the multiversion optimistic protocol
   (lib/occ): snapshot visibility, buffered-write apply order,
   validation-abort retry, escrow deposit/deposit non-abort under
   commute-mode validation (and the abort under rw mode), the
   doctors-on-duty write-skew pair, and the qcheck acceptance property
   that every occ-committed history is oo-serializable. *)

open Ooser_core
open Ooser_oodb
module Store = Ooser_occ.Store
module Model = Ooser_occ.Model
module Workloads = Ooser_occ.Workloads
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng
module Stats = Ooser_sim.Stats

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let o = Obj_id.v

let counter store name =
  match List.assoc_opt name (Stats.Counter.to_list (Store.counters store)) with
  | Some n -> n
  | None -> 0

let engine_counter eng name =
  match List.assoc_opt name (Stats.Counter.to_list (Engine.counters eng)) with
  | Some n -> n
  | None -> 0

(* Drive an interactive transaction to completion: poke its await park,
   pump, repeat — validation-abort retries replay the body and park
   again, so one poke is not always enough. *)
let finish eng top =
  let budget = ref 10 in
  while Engine.txn_state eng top = `Running && !budget > 0 do
    decr budget;
    ignore (Engine.poke eng top);
    ignore (Engine.pump eng)
  done

let committed eng top =
  match Engine.txn_state eng top with `Committed _ -> true | _ -> false

(* -- snapshot visibility ------------------------------------------------------- *)

let test_snapshot_visibility () =
  let db, store = Workloads.setup_banking ~mode:Store.Commute ~accounts:2 () in
  let eng = Engine.create db ~protocol:(Store.protocol store) in
  let seen = ref [] in
  let body1 ctx =
    seen := Value.to_int_exn (Runtime.call ctx (o "Account0") "balance" []) :: !seen;
    Runtime.await ctx;
    seen := Value.to_int_exn (Runtime.call ctx (o "Account0") "balance" []) :: !seen;
    Value.unit
  in
  Engine.submit eng ~top:1 ~name:"reader" body1;
  ignore (Engine.pump eng);
  (* a concurrent deposit commits while the reader is parked *)
  Engine.submit eng ~top:2 ~name:"depositor" (fun ctx ->
      Runtime.call ctx (o "Account0") "deposit" [ Value.int 50 ]);
  ignore (Engine.pump eng);
  check_bool "depositor committed" true (committed eng 2);
  check_int "newest committed state" 150
    (Value.to_int_exn (Store.committed_state store (o "Account0")));
  finish eng 1;
  (* the reader's balance probes conflict with the deposit per the
     escrow spec, so it validation-aborts once; each attempt's two reads
     are snapshot-stable, and the retry re-snapshots at 150 *)
  check_bool "reader committed" true (committed eng 1);
  (match List.rev !seen with
  | [ a; b; c; d ] ->
      check_int "first attempt read pre-deposit state" 100 a;
      check_int "first attempt snapshot-stable across the commit" a b;
      check_int "retry reads fresh snapshot" 150 c;
      check_int "retry snapshot-stable" c d
  | _ -> Alcotest.fail "expected two attempts of two reads each");
  check_bool "multiversion history serializable" true
    (Serializability.oo_serializable (Store.history store))

(* Own writes are visible through the snapshot overlay before commit. *)
let test_read_own_writes () =
  let db, store = Workloads.setup_banking ~mode:Store.Commute ~accounts:1 () in
  let eng = Engine.create db ~protocol:(Store.protocol store) in
  let mid = ref 0 in
  Engine.submit eng ~top:1 ~name:"rmw" (fun ctx ->
      ignore (Runtime.call ctx (o "Account0") "deposit" [ Value.int 7 ]);
      mid := Value.to_int_exn (Runtime.call ctx (o "Account0") "balance" []);
      Value.unit);
  ignore (Engine.pump eng);
  check_bool "committed" true (committed eng 1);
  check_int "own write visible" 107 !mid;
  check_int "committed state" 107
    (Value.to_int_exn (Store.committed_state store (o "Account0")))

(* -- buffered-write apply order ------------------------------------------------ *)

let test_apply_order () =
  let db, store =
    Workloads.setup_registers ~mode:Store.Commute ~cells:[ "X" ] ()
  in
  let eng = Engine.create db ~protocol:(Store.protocol store) in
  Engine.submit eng ~top:1 ~name:"writer" (fun ctx ->
      ignore (Runtime.call ctx (o "X") "write" [ Value.int 1 ]);
      ignore (Runtime.call ctx (o "X") "write" [ Value.int 2 ]);
      ignore (Runtime.call ctx (o "X") "write" [ Value.int 3 ]);
      Value.unit);
  ignore (Engine.pump eng);
  check_bool "committed" true (committed eng 1);
  check_int "last buffered write wins" 3
    (Value.to_int_exn (Store.committed_state store (o "X")));
  (* one version installed per commit, not per intention *)
  check_int "single new version" 2 (List.length (Store.versions store (o "X")))

(* A nested subtransaction aborting alone takes its buffered intentions
   with it (partial rollback through the engine's undo machinery). *)
let test_partial_rollback_drops_intentions () =
  let db, store =
    Workloads.setup_registers ~mode:Store.Commute ~cells:[ "X" ] ()
  in
  Database.register db (o "H") ~spec:Commutativity.all_commute
    [
      ( "doomed",
        Database.composite (fun ctx _ ->
            ignore (Runtime.call ctx (o "X") "write" [ Value.int 99 ]);
            Runtime.abort "doomed subtransaction") );
    ];
  let eng = Engine.create db ~protocol:(Store.protocol store) in
  Engine.submit eng ~top:1 ~name:"partial" (fun ctx ->
      (match Runtime.try_call ctx (o "H") "doomed" [] with
      | Ok _ -> Alcotest.fail "doomed subtransaction succeeded"
      | Error _ -> ());
      ignore (Runtime.call ctx (o "X") "write" [ Value.int 5 ]);
      Value.unit);
  ignore (Engine.pump eng);
  check_bool "committed" true (committed eng 1);
  check_int "aborted subtransaction's write dropped" 5
    (Value.to_int_exn (Store.committed_state store (o "X")))

(* -- validation-abort retry ---------------------------------------------------- *)

let test_validation_abort_retry () =
  let db, store =
    Workloads.setup_registers ~mode:Store.Commute ~cells:[ "X"; "Y" ] ()
  in
  let eng = Engine.create db ~protocol:(Store.protocol store) in
  let observed = ref [] in
  Engine.submit eng ~top:1 ~name:"rmw" (fun ctx ->
      let v = Value.to_int_exn (Runtime.call ctx (o "X") "read" []) in
      observed := v :: !observed;
      Runtime.await ctx;
      Runtime.call ctx (o "Y") "write" [ Value.int (v + 1) ]);
  ignore (Engine.pump eng);
  Engine.submit eng ~top:2 ~name:"clobber" (fun ctx ->
      Runtime.call ctx (o "X") "write" [ Value.int 40 ]);
  ignore (Engine.pump eng);
  check_bool "clobber committed" true (committed eng 2);
  finish eng 1;
  check_bool "rmw committed after retry" true (committed eng 1);
  check_int "one validation abort" 1 (counter store "aborts");
  check_int "engine saw the validation failure" 1
    (engine_counter eng "validation-failures");
  (* the retry re-snapshotted: it read the clobbered value and wrote 41 *)
  check_int "retry wrote from fresh snapshot" 41
    (Value.to_int_exn (Store.committed_state store (o "Y")));
  check_bool "first attempt read the old value" true
    (match List.rev !observed with 0 :: _ -> true | _ -> false);
  check_bool "multiversion history serializable" true
    (Serializability.oo_serializable (Store.history store))

(* -- escrow: the headline admission -------------------------------------------- *)

(* Two concurrent deposits to the same account: commute-mode validation
   admits both (the escrow spec proves order-independence), rw-mode
   aborts the second committer — the exact capability gap between
   commutativity-aware OCC and plain SSI. *)
let run_concurrent_deposits mode =
  let db, store = Workloads.setup_banking ~mode ~accounts:1 () in
  let eng = Engine.create db ~protocol:(Store.protocol store) in
  let deposit top n =
    Engine.submit eng ~top ~name:(Printf.sprintf "dep%d" top) (fun ctx ->
        ignore (Runtime.call ctx (o "Account0") "deposit" [ Value.int n ]);
        Runtime.await ctx;
        Value.unit)
  in
  deposit 1 5;
  ignore (Engine.pump eng);
  deposit 2 7;
  ignore (Engine.pump eng);
  (* both have executed against the same snapshot; commit 1 then 2 *)
  finish eng 1;
  finish eng 2;
  check_bool "dep1 committed" true (committed eng 1);
  check_bool "dep2 committed" true (committed eng 2);
  check_int "both deposits landed" 112
    (Value.to_int_exn (Store.committed_state store (o "Account0")));
  (eng, store)

let test_escrow_deposits_commute () =
  let _eng, store = run_concurrent_deposits Store.Commute in
  check_int "no validation aborts" 0 (counter store "aborts");
  check_bool "commute-saves recorded" true (counter store "commute-saves" > 0)

let test_escrow_deposits_rw_abort () =
  let _eng, store = run_concurrent_deposits Store.Rw in
  check_int "rw validation aborts the second committer" 1
    (counter store "aborts")

(* -- write-skew (doctors-on-duty) ---------------------------------------------- *)

let run_write_skew mode =
  let db, store = Workloads.setup_roster ~mode () in
  let eng = Engine.create db ~protocol:(Store.protocol store) in
  let sign top meth =
    Engine.submit eng ~top ~name:meth (fun ctx ->
        ignore (Runtime.call ctx Workloads.roster_obj meth []);
        Runtime.await ctx;
        Value.unit)
  in
  sign 1 "sign_off_x";
  ignore (Engine.pump eng);
  sign 2 "sign_off_y";
  ignore (Engine.pump eng);
  finish eng 1;
  finish eng 2;
  check_bool "t1 committed" true (committed eng 1);
  check_bool "t2 committed" true (committed eng 2);
  (store, Store.committed_state store Workloads.roster_obj)

let test_write_skew_commute_aborts_one () =
  let store, state = run_write_skew Store.Commute in
  check_int "one transaction validation-aborts" 1 (counter store "aborts");
  (* the retried sign-off observed the other doctor already off duty *)
  check_string "serial outcome" "(off(saw on), off(saw off(saw on)))"
    (Value.to_string state)

let test_write_skew_rw_aborts_one () =
  let store, state = run_write_skew Store.Rw in
  check_int "one transaction validation-aborts" 1 (counter store "aborts");
  check_string "serial outcome" "(off(saw on), off(saw off(saw on)))"
    (Value.to_string state)

let test_write_skew_unvalidated_skews () =
  let store, state = run_write_skew Store.Unvalidated in
  check_int "no validation aborts" 0 (counter store "aborts");
  (* both doctors signed off having seen the other on duty: the state no
     serial order can produce — the anomaly the mc serial-state oracle
     flags in the write-skew scenarios *)
  check_string "write-skew state" "(off(saw on), off(saw on))"
    (Value.to_string state)

(* -- qcheck acceptance property ------------------------------------------------ *)

(* Every occ-committed history passes Serializability.check: random
   banking mixes (state-reading escrow specs — probe-validated) and
   random register mixes (stable specs — certifier-validated), random
   schedules, both validation modes. *)
let occ_serializable_once seed =
  let rng = Rng.create ~seed in
  let mode = if seed mod 2 = 0 then Store.Commute else Store.Rw in
  let banking = seed mod 4 < 2 in
  let db, store =
    if banking then
      Workloads.setup_banking ~mode ~accounts:3 ~balance:20 ~low:0 ~high:60 ()
    else Workloads.setup_registers ~mode ~cells:[ "X"; "Y"; "Z" ] ()
  in
  let n_txns = 3 + Rng.int rng 4 in
  let body _i ctx =
    let calls = 1 + Rng.int rng 3 in
    for _ = 1 to calls do
      if banking then begin
        let acct = o (Printf.sprintf "Account%d" (Rng.int rng 3)) in
        let amt = Value.int (1 + Rng.int rng 5) in
        match Rng.int rng 3 with
        | 0 -> ignore (Runtime.try_call ctx acct "deposit" [ amt ])
        | 1 -> ignore (Runtime.try_call ctx acct "withdraw" [ amt ])
        | _ -> ignore (Runtime.call ctx acct "balance" [])
      end
      else begin
        let cell = o (List.nth [ "X"; "Y"; "Z" ] (Rng.int rng 3)) in
        if Rng.int rng 2 = 0 then
          ignore (Runtime.call ctx cell "write" [ Value.int (Rng.int rng 100) ])
        else ignore (Runtime.call ctx cell "read" [])
      end
    done;
    Value.unit
  in
  let txns =
    List.init n_txns (fun i -> (i + 1, Printf.sprintf "t%d" (i + 1), body i))
  in
  let protocol = Store.protocol store in
  let config =
    { (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:(seed * 31 + 7))
    }
  in
  let out = Engine.run ~config db ~protocol txns in
  let h = Store.history store in
  History.validate h = Ok ()
  && Serializability.oo_serializable h
  && List.length (History.tops h) = List.length out.Engine.committed

let occ_history_prop =
  QCheck.Test.make ~count:100 ~name:"occ-committed history oo-serializable"
    QCheck.(int_bound 1_000_000)
    (fun seed -> occ_serializable_once seed)

let suites =
  [
    ( "occ",
      [
        Alcotest.test_case "snapshot visibility" `Quick test_snapshot_visibility;
        Alcotest.test_case "read own writes" `Quick test_read_own_writes;
        Alcotest.test_case "buffered-write apply order" `Quick test_apply_order;
        Alcotest.test_case "partial rollback drops intentions" `Quick
          test_partial_rollback_drops_intentions;
        Alcotest.test_case "validation-abort retry" `Quick
          test_validation_abort_retry;
        Alcotest.test_case "escrow deposit/deposit non-abort" `Quick
          test_escrow_deposits_commute;
        Alcotest.test_case "escrow deposit/deposit rw abort" `Quick
          test_escrow_deposits_rw_abort;
        Alcotest.test_case "write-skew: commute aborts one" `Quick
          test_write_skew_commute_aborts_one;
        Alcotest.test_case "write-skew: rw aborts one" `Quick
          test_write_skew_rw_aborts_one;
        Alcotest.test_case "write-skew: unvalidated mutant skews" `Quick
          test_write_skew_unvalidated_skews;
        QCheck_alcotest.to_alcotest occ_history_prop;
      ] );
  ]
