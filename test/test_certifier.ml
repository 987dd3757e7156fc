(* Tests for the optimistic certifier (Engine config.certify): commit-time
   oo-serializability validation with rollback and retry — the paper's §6
   direction for protocols that guarantee oo-serializability.

   Lock-free execution admits dirty reads of uncommitted state, so all
   updates here use LOGICAL undo (inverse deltas) as Engine.config.certify
   requires; read-modify-write registers are not value-safe under this
   certifier (they would need deferred updates / versioning). *)

open Ooser_core
open Ooser_oodb
open Ooser_workload
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let o = Obj_id.v

(* A cell whose adds CONFLICT order-wise (so certification has real work)
   but undo logically (so rollback is value-safe without locks). *)
let register_cell db name init =
  let state = ref init in
  let read _ _ = Value.int !state in
  let add ctx args =
    match args with
    | [ Value.Int v ] ->
        Runtime.on_undo ctx (fun () -> state := !state - v);
        state := !state + v;
        Value.unit
    | _ -> invalid_arg "add"
  in
  Database.register db (o name) ~spec:Commutativity.all_conflict
    [ ("read", Database.primitive read); ("add", Database.primitive add) ];
  state

let certified_config ?(seed = 1) () =
  let protocol = Protocol.unlocked () in
  {
    (Engine.default_config protocol) with
    Engine.certify = true;
    Engine.strategy = Engine.Random_pick (Rng.create ~seed);
  }

let test_certifier_accepts_clean_runs () =
  let db = Database.create () in
  ignore (register_cell db "A" 0);
  ignore (register_cell db "B" 0);
  let t1 ctx =
    ignore (Runtime.call ctx (o "A") "add" [ Value.int 1 ]);
    Value.unit
  in
  let t2 ctx =
    ignore (Runtime.call ctx (o "B") "add" [ Value.int 2 ]);
    Value.unit
  in
  let config = certified_config () in
  let out =
    Engine.run ~config db ~protocol:config.Engine.protocol
      [ (1, "t1", t1); (2, "t2", t2) ]
  in
  check_int "both committed" 2 (List.length out.Engine.committed);
  check_bool "no certification failures" true
    (not (List.mem_assoc "certification-failures" out.Engine.metrics));
  check_bool "oo-serializable" true
    (Serializability.oo_serializable out.Engine.history)

let test_certifier_rejects_crossing_updates () =
  (* T1 touches A then B, T2 touches B then A, all conflicting, without
     locks: crossing interleavings are NOT serializable and must be
     caught at commit and retried until the committed history checks *)
  let db = Database.create () in
  let a = register_cell db "A" 0 in
  let b = register_cell db "B" 0 in
  let t1 ctx =
    ignore (Runtime.call ctx (o "A") "add" [ Value.int 1 ]);
    ignore (Runtime.call ctx (o "B") "add" [ Value.int 1 ]);
    Value.unit
  in
  let t2 ctx =
    ignore (Runtime.call ctx (o "B") "add" [ Value.int 1 ]);
    ignore (Runtime.call ctx (o "A") "add" [ Value.int 1 ]);
    Value.unit
  in
  let fired = ref false in
  for seed = 1 to 10 do
    let db2 = Database.create () in
    let a2 = register_cell db2 "A" 0 in
    let b2 = register_cell db2 "B" 0 in
    ignore (a2, b2);
    ignore db;
    let config = certified_config ~seed () in
    let out =
      Engine.run ~config db2 ~protocol:config.Engine.protocol
        [
          (1, "t1", fun ctx ->
            ignore (Runtime.call ctx (o "A") "add" [ Value.int 1 ]);
            ignore (Runtime.call ctx (o "B") "add" [ Value.int 1 ]);
            Value.unit);
          (2, "t2", fun ctx ->
            ignore (Runtime.call ctx (o "B") "add" [ Value.int 1 ]);
            ignore (Runtime.call ctx (o "A") "add" [ Value.int 1 ]);
            Value.unit);
        ]
    in
    check_int "all committed eventually" 2 (List.length out.Engine.committed);
    check_int "A exact" 2 !a2;
    check_int "B exact" 2 !b2;
    check_bool "final history oo-serializable" true
      (Serializability.oo_serializable out.Engine.history);
    if
      (try List.assoc "certification-failures" out.Engine.metrics
       with Not_found -> 0)
      > 0
    then fired := true
  done;
  ignore (t1, t2, a, b);
  check_bool "certification fired on some seed" true !fired

let test_certifier_banking_property () =
  (* random banking under the certifier: totals preserved, histories
     serializable *)
  let ok = ref true in
  for seed = 1 to 10 do
    let p = { Banking.default_params with Banking.n_txns = 5 } in
    let db, counters = Banking.setup ~semantics:`Rw p in
    let txns = Banking.transactions ~rng:(Rng.create ~seed) p in
    let config = certified_config ~seed:(seed * 7) () in
    let out = Engine.run ~config db ~protocol:config.Engine.protocol txns in
    if
      (not (Serializability.oo_serializable out.Engine.history))
      || Banking.total_balance counters <> p.Banking.accounts * p.Banking.initial
    then ok := false
  done;
  check_bool "all seeds clean" true !ok

let test_certifier_rollback_restores_state () =
  (* with a tiny restart budget some transactions may fail permanently:
     whatever happens, the state must equal the committed effects *)
  let db = Database.create () in
  let a = register_cell db "A" 0 in
  let b = register_cell db "B" 0 in
  let body flip ctx =
    let first, second = if flip then ("B", "A") else ("A", "B") in
    ignore (Runtime.call ctx (o first) "add" [ Value.int 1 ]);
    ignore (Runtime.call ctx (o second) "add" [ Value.int 1 ]);
    Value.unit
  in
  let protocol = Protocol.unlocked () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.certify = true;
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:2);
      Engine.max_restarts = 1;
    }
  in
  let out =
    Engine.run ~config db ~protocol
      [ (1, "t1", body false); (2, "t2", body true); (3, "t3", body false);
        (4, "t4", body true) ]
  in
  let n = List.length out.Engine.committed in
  check_int "A equals committed count" n !a;
  check_int "B equals committed count" n !b;
  check_bool "committed history serializable" true
    (Serializability.oo_serializable out.Engine.history)

let metric out name =
  try List.assoc name out.Engine.metrics with Not_found -> 0

let test_certifier_uses_incremental_path () =
  (* stable specs end to end: every commit must certify incrementally,
     never via the from-scratch oracle *)
  let db = Database.create () in
  ignore (register_cell db "A" 0);
  ignore (register_cell db "B" 0);
  let config = certified_config ~seed:3 () in
  let out =
    Engine.run ~config db ~protocol:config.Engine.protocol
      [
        (1, "t1", fun ctx ->
          ignore (Runtime.call ctx (o "A") "add" [ Value.int 1 ]);
          ignore (Runtime.call ctx (o "B") "add" [ Value.int 1 ]);
          Value.unit);
        (2, "t2", fun ctx ->
          ignore (Runtime.call ctx (o "B") "add" [ Value.int 1 ]);
          Value.unit);
      ]
  in
  check_int "both committed" 2 (List.length out.Engine.committed);
  check_bool "incremental path taken" true (metric out "cert-incremental" > 0);
  check_int "oracle never consulted" 0 (metric out "cert-oracle")

let test_certifier_oracle_mode_agrees () =
  (* certify_oracle forces the from-scratch checker; under the same seed
     the two modes must take the same decisions commit for commit *)
  for seed = 1 to 8 do
    let run ~oracle =
      let db = Database.create () in
      let a = register_cell db "A" 0 in
      let b = register_cell db "B" 0 in
      let config =
        { (certified_config ~seed ()) with Engine.certify_oracle = oracle }
      in
      let out =
        Engine.run ~config db ~protocol:config.Engine.protocol
          [
            (1, "t1", fun ctx ->
              ignore (Runtime.call ctx (o "A") "add" [ Value.int 1 ]);
              ignore (Runtime.call ctx (o "B") "add" [ Value.int 1 ]);
              Value.unit);
            (2, "t2", fun ctx ->
              ignore (Runtime.call ctx (o "B") "add" [ Value.int 1 ]);
              ignore (Runtime.call ctx (o "A") "add" [ Value.int 1 ]);
              Value.unit);
          ]
      in
      (List.length out.Engine.committed, !a, !b,
       metric out "certification-failures")
    in
    let inc = run ~oracle:false and orc = run ~oracle:true in
    check_bool (Fmt.str "seed %d: modes agree" seed) true (inc = orc)
  done

let test_certifier_escrow_stays_incremental () =
  (* escrow decides on the balances pinned at execution, so the spec is
     stable: a certified banking run near the bounds must stay on the
     incremental certifier for every commit, and agree with the oracle
     mode decision for decision *)
  let rejected = ref 0 in
  for seed = 1 to 10 do
    let run ~oracle =
      let p =
        {
          Banking.default_params with
          Banking.n_txns = 6;
          accounts = 3;
          initial = 6;
          high = 12;
          amount = 2;
          transfers_per_txn = 2;
        }
      in
      let db, counters = Banking.setup ~semantics:`Escrow p in
      let txns = Banking.transactions ~rng:(Rng.create ~seed) p in
      let config =
        { (certified_config ~seed:(seed * 7) ()) with Engine.certify_oracle = oracle }
      in
      let out = Engine.run ~config db ~protocol:config.Engine.protocol txns in
      (out, List.map Ooser_adts.Escrow_counter.value (Array.to_list counters))
    in
    let out, balances = run ~oracle:false in
    let commits = List.length out.Engine.committed in
    (* every certification, accepted (a commit) or rejected (a retry),
       ran on the incremental certifier *)
    check_int (Fmt.str "seed %d: every commit certified incrementally" seed)
      (commits + metric out "certification-failures")
      (metric out "cert-incremental");
    check_int (Fmt.str "seed %d: oracle never consulted" seed) 0
      (metric out "cert-oracle");
    check_bool (Fmt.str "seed %d: history oo-serializable" seed) true
      (Serializability.oo_serializable out.Engine.history);
    rejected := !rejected + metric out "certification-failures";
    let orc, orc_balances = run ~oracle:true in
    check_bool (Fmt.str "seed %d: oracle mode decides the same" seed) true
      (out.Engine.committed = orc.Engine.committed
      && balances = orc_balances
      && metric out "certification-failures"
         = metric orc "certification-failures")
  done;
  check_bool "some certification rejected a commit" true (!rejected > 0)

let test_pins_are_execution_states () =
  (* lock-free, a granted call may run several scheduler steps after its
     request: the recorded pin must be the balance the call actually ran
     on — replaying the execution order from the initial balance
     reproduces every pin *)
  for seed = 1 to 20 do
    let db = Database.create () in
    ignore (Adt_objects.register_counter db (o "C") 50);
    let rng = Rng.create ~seed in
    let body ctx =
      for _ = 1 to 3 do
        let meth = if Rng.int rng 2 = 0 then "incr" else "decr" in
        ignore (Runtime.call ctx (o "C") meth [ Value.int (1 + Rng.int rng 5) ])
      done;
      Value.unit
    in
    let config = certified_config ~seed () in
    let out =
      Engine.run
        ~config:{ config with Engine.certify = false }
        db ~protocol:config.Engine.protocol
        (List.init 4 (fun i -> (i + 1, Printf.sprintf "t%d" i, body)))
    in
    let h = out.Engine.history in
    let acts =
      List.concat_map Call_tree.all_actions (History.tops h)
      |> List.map (fun a -> (Action.id a, a))
    in
    ignore
      (List.fold_left
         (fun balance id ->
           let a = List.assoc id acts in
           check_bool (Fmt.str "seed %d: %a pinned at %d" seed Action.pp a balance)
             true
             (Action.pin a = Some (Value.int balance));
           match Ooser_adts.Escrow_counter.delta_of a with
           | Some d -> balance + d
           | None -> balance)
         50 (History.order h))
  done

let test_certifier_refuses_unstable_spec () =
  (* a spec reading live state would let cached decisions go stale: a
     certifying engine refuses it up front, naming the object *)
  let db = Database.create () in
  ignore (register_cell db "A" 0);
  Database.register db (o "M")
    ~spec:(Commutativity.make ~name:"moody" (fun _ _ -> false))
    [ ("add", Database.primitive (fun _ _ -> Value.unit)) ];
  let config = certified_config () in
  match Engine.create ~config db ~protocol:config.Engine.protocol with
  | _ -> Alcotest.fail "unstable spec accepted"
  | exception Invalid_argument msg ->
      let needle = "object M " in
      let n = String.length needle in
      let rec scan i =
        i + n <= String.length msg
        && (String.sub msg i n = needle || scan (i + 1))
      in
      check_bool "message names the object" true (scan 0)

let suites =
  [
    ( "certifier",
      [
        Alcotest.test_case "accepts clean runs" `Quick
          test_certifier_accepts_clean_runs;
        Alcotest.test_case "rejects crossing updates" `Quick
          test_certifier_rejects_crossing_updates;
        Alcotest.test_case "banking under certification" `Quick
          test_certifier_banking_property;
        Alcotest.test_case "rollback restores state" `Quick
          test_certifier_rollback_restores_state;
        Alcotest.test_case "incremental path taken on stable specs" `Quick
          test_certifier_uses_incremental_path;
        Alcotest.test_case "oracle mode agrees with incremental" `Quick
          test_certifier_oracle_mode_agrees;
        Alcotest.test_case "escrow stays incremental" `Quick
          test_certifier_escrow_stays_incremental;
        Alcotest.test_case "pins are execution-time states" `Quick
          test_pins_are_execution_states;
        Alcotest.test_case "unstable spec refused" `Quick
          test_certifier_refuses_unstable_spec;
      ] );
  ]
