(* The incremental certifier against the from-scratch oracle.

   The central property: feeding the committed trees of a random history
   one by one into [Incremental.add_commit] (primitives stamped by their
   position in the full interleaved order) yields, on every prefix,
   exactly the oracle's verdict on that committed prefix — and, edge for
   edge, the oracle's dependency relations.  A rejected commit must roll
   back completely: the next prefix continues from the accepted set, and
   the certifier must again agree with the oracle on it. *)

open Ooser_core
open Ooser_workload
module Rng = Ooser_sim.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Stamp a tree's primitives with their positions in the full order. *)
let prims_of_tree order tree =
  let mine =
    Ids.Action_id.Set.of_list
      (List.map Action.id (Call_tree.primitives tree))
  in
  List.filteri (fun _ _ -> true) order
  |> List.mapi (fun i id -> (id, i))
  |> List.filter (fun (id, _) -> Ids.Action_id.Set.mem id mine)

(* Run one seed: commit trees in sequence; compare every prefix verdict
   (and the relations of every object) with the oracle on the committed
   subset.  Returns the number of rejected commits, to assert the suite
   exercises both outcomes overall. *)
let agree ~seed ~tops ~order ~reg =
  let cert = Incremental.create reg in
  let rejected = ref 0 in
  let committed = ref [] in
  List.iter
    (fun tree ->
      let prims = prims_of_tree order tree in
      let outcome = Incremental.add_commit cert ~tree ~prims in
      let with_tree = tree :: !committed in
      let committed_order trees =
        let prims =
          Ids.Action_id.Set.of_list
            (List.concat_map
               (fun t -> List.map Action.id (Call_tree.primitives t))
               trees)
        in
        List.filter (fun id -> Ids.Action_id.Set.mem id prims) order
      in
      let oracle_accepts =
        (Serializability.check
           (History.v ~tops:(List.rev with_tree)
              ~order:(committed_order with_tree)
              ~commut:reg))
          .Serializability.oo_serializable
      in
      check_bool
        (Fmt.str "seed %d, commit %a: incremental = oracle" seed Ids.Action_id.pp
           (Action.id (Call_tree.act tree)))
        oracle_accepts outcome.Incremental.accepted;
      if outcome.Incremental.accepted then begin
        committed := with_tree;
        (* edge-level exactness on the accepted prefix *)
        let sched =
          Schedule.compute
            (History.v ~tops:(List.rev !committed)
               ~order:(committed_order !committed)
               ~commut:reg)
        in
        List.iter
          (fun (s : Schedule.object_schedule) ->
            let o = s.Schedule.obj in
            check_bool
              (Fmt.str "seed %d %a act_dep equal" seed Ids.Obj_id.pp o)
              true
              (Action.Rel.equal s.Schedule.act_dep (Incremental.act_dep cert o));
            check_bool
              (Fmt.str "seed %d %a txn_dep equal" seed Ids.Obj_id.pp o)
              true
              (Action.Rel.equal s.Schedule.txn_dep (Incremental.txn_dep cert o));
            check_bool
              (Fmt.str "seed %d %a combined equal" seed Ids.Obj_id.pp o)
              true
              (Action.Rel.equal
                 (Action.Rel.union s.Schedule.act_dep s.Schedule.added_dep)
                 (Incremental.combined_dep cert o)))
          (Schedule.objects sched)
      end
      else incr rejected)
    tops;
  !rejected

let run_seed ~params ~seed =
  let tops, reg = Random_schedules.system ~seed params in
  let rng = Rng.create ~seed:(seed + 7919) in
  let order = Random_schedules.random_order rng tops in
  agree ~seed ~tops ~order ~reg

let test_oracle_agreement () =
  let params =
    { Random_schedules.default_params with n_txns = 4; p_commute = 0.5 }
  in
  let total_rejects = ref 0 in
  for seed = 1 to 100 do
    total_rejects := !total_rejects + run_seed ~params ~seed
  done;
  (* the interleavings must exercise both verdicts, or the property is
     vacuous on one side *)
  check_bool "some commits rejected" true (!total_rejects > 0);
  check_bool "some commits accepted" true (!total_rejects < 400)

(* State-dependent specs under pins.  A near-bound escrow counter
   (balance <= 10 in [0, 10], amounts 1-5) and a fifo queue, driven by
   2-4 concurrent transactions the engine executes lock-free — the
   certify protocol's execution — with certification off, so the
   committed stream keeps the crossing interleavings the certifier must
   reject.  Every action carries the pin the engine recorded when it ran,
   and the harness above compares the incremental verdicts and edge sets
   with the oracle on exactly that pinned history. *)
let pinned_history ~seed =
  let open Ooser_oodb in
  let rand = Random.State.make [| seed |] in
  let call =
    QCheck2.Gen.(
      oneof
        [
          map (fun n -> ("C", "incr", [ Value.int n ])) (int_range 1 5);
          map (fun n -> ("C", "decr", [ Value.int n ])) (int_range 1 5);
          pure ("C", "read", []);
          map (fun v -> ("Q", "enqueue", [ Value.int v ])) (int_range 0 2);
          pure ("Q", "dequeue", []);
        ])
  in
  let txn = QCheck2.Gen.(list_size (int_range 1 3) call) in
  let plans = QCheck2.Gen.(generate1 ~rand (list_size (int_range 2 4) txn)) in
  let db = Database.create () in
  let balance = QCheck2.Gen.(generate1 ~rand (int_range 0 10)) in
  ignore (Adt_objects.register_counter db (Obj_id.v "C") ~low:0 ~high:10 balance);
  ignore (Adt_objects.register_queue db (Obj_id.v "Q"));
  let protocol = Ooser_cc.Protocol.unlocked () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed);
      max_restarts = 0;
    }
  in
  let bodies =
    List.mapi
      (fun i calls ->
        ( i + 1,
          Printf.sprintf "t%d" (i + 1),
          fun ctx ->
            List.iter
              (fun (obj, meth, args) ->
                ignore (Runtime.call ctx (Obj_id.v obj) meth args))
              calls;
            Value.unit ))
      plans
  in
  let h = (Engine.run ~config db ~protocol bodies).Engine.history in
  (History.tops h, History.order h, History.commut h)

let test_pinned_agreement () =
  let rejected = ref 0 and pinned = ref 0 in
  for seed = 1 to 100 do
    let tops, order, reg = pinned_history ~seed in
    List.iter
      (fun tree ->
        List.iter
          (fun a -> if Action.pin a <> None then incr pinned)
          (Call_tree.primitives tree))
      tops;
    rejected := !rejected + agree ~seed ~tops ~order ~reg
  done;
  check_bool "actions carry pins" true (!pinned > 0);
  check_bool "some commits rejected" true (!rejected > 0)

let test_oracle_agreement_contended () =
  (* denser conflicts: more pages shared, mostly writes *)
  let params =
    {
      Random_schedules.default_params with
      n_txns = 5;
      n_pages = 2;
      p_commute = 0.2;
      p_write = 0.8;
    }
  in
  for seed = 200 to 240 do
    ignore (run_seed ~params ~seed)
  done

let test_rollback_restores_state () =
  (* After a rejected commit the stats and relations must be those of the
     accepted prefix only: re-running just the accepted trees in a fresh
     certifier gives identical edge counts. *)
  let params =
    {
      Random_schedules.default_params with
      n_txns = 5;
      n_pages = 2;
      p_commute = 0.2;
      p_write = 0.8;
    }
  in
  let seed = 42 in
  let tops, reg = Random_schedules.system ~seed params in
  let rng = Rng.create ~seed:(seed + 7919) in
  let order = Random_schedules.random_order rng tops in
  let cert = Incremental.create reg in
  let accepted = ref [] in
  List.iter
    (fun tree ->
      let prims = prims_of_tree order tree in
      if (Incremental.add_commit cert ~tree ~prims).Incremental.accepted then
        accepted := tree :: !accepted)
    tops;
  let fresh = Incremental.create reg in
  List.iter
    (fun tree ->
      let prims = prims_of_tree order tree in
      let o = Incremental.add_commit fresh ~tree ~prims in
      check_bool "replay of accepted prefix accepts" true
        o.Incremental.accepted)
    (List.rev !accepted);
  let s = Incremental.stats cert and s' = Incremental.stats fresh in
  check_int "commits equal" s'.Incremental.commits s.Incremental.commits;
  check_int "act edges equal" s'.Incremental.act_edges
    s.Incremental.act_edges;
  check_int "txn edges equal" s'.Incremental.txn_edges
    s.Incremental.txn_edges;
  check_int "actions equal" s'.Incremental.actions s.Incremental.actions

let test_cache_effective () =
  (* The memo table must be doing work on a stable registry: repeated
     probes of the same method classes hit. *)
  let params = { Random_schedules.default_params with n_txns = 4 } in
  let tops, reg = Random_schedules.system ~seed:7 params in
  let rng = Rng.create ~seed:7926 in
  let order = Random_schedules.random_order rng tops in
  let cert = Incremental.create reg in
  List.iter
    (fun tree ->
      ignore
        (Incremental.add_commit cert ~tree ~prims:(prims_of_tree order tree)))
    tops;
  let s = Incremental.stats cert in
  let hits, _ = Commutativity.cache_stats (Incremental.cache cert) in
  check_int "stats expose the cache" s.Incremental.cache_hits hits;
  check_bool "cache hits occur" true (hits > 0)

(* ---- Pearce–Kelly regression ---- *)

module G = Digraph.Make (struct
  type t = int

  let compare = Int.compare
  let pp = Fmt.int
end)

module PK = G.Incremental

let ok = function `Ok -> true | `Cycle _ -> false

let test_pk_basic () =
  let g = PK.create () in
  check_bool "1->2" true (ok (PK.add_edge g 1 2));
  check_bool "2->3" true (ok (PK.add_edge g 2 3));
  check_bool "duplicate ok" true (ok (PK.add_edge g 1 2));
  check_int "edges" 2 (PK.nb_edges g);
  check_bool "order valid" true (PK.valid g);
  (* closing the cycle is rejected and leaves the graph unchanged *)
  (match PK.add_edge g 3 1 with
  | `Ok -> Alcotest.fail "3->1 must close a cycle"
  | `Cycle c ->
      check_bool "witness closes through 3->1" true
        (List.length c >= 2 && List.hd c = 3));
  check_int "edges unchanged after cycle" 2 (PK.nb_edges g);
  check_bool "still valid" true (PK.valid g);
  check_bool "self loop" false (ok (PK.add_edge g 5 5))

let test_pk_create_then_avoid () =
  (* insertions that would create a cycle, removal, then the same
     insertion succeeding: the journal-rollback pattern of the
     certifier *)
  let g = PK.create () in
  List.iter
    (fun (u, v) -> check_bool "insert" true (ok (PK.add_edge g u v)))
    [ (1, 2); (2, 3); (3, 4); (5, 1) ];
  check_bool "4->5 closes 5-cycle" false (ok (PK.add_edge g 4 5));
  PK.remove_edge g 5 1;
  check_bool "after removal 4->5 fits" true (ok (PK.add_edge g 4 5));
  check_bool "valid after reorder" true (PK.valid g);
  (* and the removed edge would now be the cycle *)
  check_bool "5->1 now cyclic" false (ok (PK.add_edge g 5 1))

let test_pk_against_oracle () =
  (* random edge streams: accept/reject must match the persistent
     checker, and the maintained order must stay valid throughout *)
  let rng = Rng.create ~seed:99 in
  for _trial = 1 to 50 do
    let g = PK.create () in
    let persistent = ref G.empty in
    for _i = 1 to 60 do
      let u = Rng.int rng 12 and v = Rng.int rng 12 in
      if u <> v then begin
        let would = G.add u v !persistent in
        let expect = G.is_acyclic would in
        match PK.add_edge g u v with
        | `Ok ->
            check_bool "oracle also acyclic" true expect;
            persistent := would
        | `Cycle c ->
            check_bool "oracle also cyclic" false expect;
            (* witness must be a real cycle in the would-be graph *)
            let closes =
              match c with
              | [] -> false
              | first :: _ ->
                  let rec chain = function
                    | [ last ] -> G.mem last first would
                    | x :: (y :: _ as rest) -> G.mem x y would && chain rest
                    | [] -> false
                  in
                  chain c
            in
            check_bool "witness is a cycle" true closes
      end
    done;
    check_bool "order valid at end" true (PK.valid g);
    check_bool "same edges as oracle" true
      (G.equal !persistent (PK.to_graph g))
  done

let suites =
  [
    ( "incremental",
      [
        Alcotest.test_case "oracle agreement (100 seeds)" `Slow
          test_oracle_agreement;
        Alcotest.test_case "oracle agreement, contended" `Quick
          test_oracle_agreement_contended;
        Alcotest.test_case "oracle agreement, pinned escrow + fifo (100 seeds)"
          `Quick test_pinned_agreement;
        Alcotest.test_case "rollback restores state" `Quick
          test_rollback_restores_state;
        Alcotest.test_case "commutativity cache effective" `Quick
          test_cache_effective;
      ] );
    ( "pearce-kelly",
      [
        Alcotest.test_case "basic" `Quick test_pk_basic;
        Alcotest.test_case "create then avoid cycles" `Quick
          test_pk_create_then_avoid;
        Alcotest.test_case "random stream vs oracle" `Quick
          test_pk_against_oracle;
      ] );
  ]
