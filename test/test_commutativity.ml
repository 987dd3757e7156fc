(* Unit tests for commutativity specifications (Def. 9). *)

open Ooser_core

let check_bool = Alcotest.(check bool)

let mk ?(top = 1) ?(branch = 0) ?(args = []) ~path obj meth =
  Action.v
    ~id:(Action_id.v ~top ~path)
    ~obj:(Obj_id.v obj) ~meth ~args
    ~process:(Process_id.v ~top ~branch)
    ()

let test_rw () =
  let s = Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ] in
  let reg = Commutativity.uniform s in
  let r1 = mk ~top:1 ~path:[ 1 ] "P" "read" in
  let r2 = mk ~top:2 ~path:[ 1 ] "P" "read" in
  let w1 = mk ~top:1 ~path:[ 2 ] "P" "write" in
  let w2 = mk ~top:2 ~path:[ 2 ] "P" "write" in
  check_bool "read/read commute" true (Commutativity.commutes reg r1 r2);
  check_bool "read/write conflict" true (Commutativity.conflicts reg r1 w2);
  check_bool "write/write conflict" true (Commutativity.conflicts reg w1 w2);
  let u = mk ~top:2 ~path:[ 3 ] "P" "mystery" in
  check_bool "unknown conflicts" true (Commutativity.conflicts reg r1 u)

let test_same_process_never_conflicts () =
  let reg = Commutativity.uniform Commutativity.all_conflict in
  let a = mk ~top:1 ~path:[ 1 ] "P" "write" in
  let b = mk ~top:1 ~path:[ 2 ] "P" "write" in
  check_bool "same process commutes (Def. 9)" true
    (Commutativity.commutes reg a b);
  let c = mk ~top:1 ~branch:1 ~path:[ 3 ] "P" "write" in
  check_bool "different branch conflicts" true
    (Commutativity.conflicts reg a c);
  let d = mk ~top:2 ~path:[ 1 ] "P" "write" in
  check_bool "different transaction conflicts" true
    (Commutativity.conflicts reg a d)

let test_self_never_conflicts () =
  let reg = Commutativity.uniform Commutativity.all_conflict in
  let a = mk ~top:1 ~path:[ 1 ] "P" "write" in
  check_bool "no self conflict" false (Commutativity.conflicts reg a a)

let test_matrices () =
  let conflict_spec =
    Commutativity.of_conflict_matrix ~name:"m"
      [ ("insert", "search"); ("insert", "delete") ]
  in
  let reg = Commutativity.uniform conflict_spec in
  let i1 = mk ~top:1 ~path:[ 1 ] "L" "insert" in
  let i2 = mk ~top:2 ~path:[ 1 ] "L" "insert" in
  let s2 = mk ~top:2 ~path:[ 2 ] "L" "search" in
  check_bool "unlisted pair commutes" true (Commutativity.commutes reg i1 i2);
  check_bool "listed pair conflicts (either order)" true
    (Commutativity.conflicts reg i1 s2 && Commutativity.conflicts reg s2 i1);
  let commute_spec =
    Commutativity.of_commute_matrix ~name:"m2" [ ("incr", "incr") ]
  in
  let reg2 = Commutativity.uniform commute_spec in
  let a = mk ~top:1 ~path:[ 1 ] "C" "incr" in
  let b = mk ~top:2 ~path:[ 1 ] "C" "incr" in
  let c = mk ~top:2 ~path:[ 2 ] "C" "reset" in
  check_bool "listed commute" true (Commutativity.commutes reg2 a b);
  check_bool "unlisted conflict" true (Commutativity.conflicts reg2 a c)

let test_by_key () =
  (* Example 1: inserts of different keys commute at the node level even
     though their page accesses conflict. *)
  let spec =
    Commutativity.by_key ~key_of:Commutativity.first_arg
      (Commutativity.of_conflict_matrix ~name:"leaf"
         [ ("insert", "insert"); ("insert", "search") ])
  in
  let reg = Commutativity.uniform spec in
  let ins k top path =
    mk ~top ~path ~args:[ Value.str k ] "Leaf11" "insert"
  in
  let search k top path =
    mk ~top ~path ~args:[ Value.str k ] "Leaf11" "search"
  in
  check_bool "different keys commute" true
    (Commutativity.commutes reg (ins "DBMS" 1 [ 1 ]) (ins "DBS" 2 [ 1 ]));
  check_bool "same key conflicts" true
    (Commutativity.conflicts reg (ins "DBS" 3 [ 1 ]) (search "DBS" 4 [ 1 ]));
  check_bool "missing key falls back to inner" true
    (Commutativity.conflicts reg
       (mk ~top:5 ~path:[ 1 ] "Leaf11" "insert")
       (mk ~top:6 ~path:[ 1 ] "Leaf11" "insert"))

let test_registry_virtual_objects () =
  let spec = Commutativity.of_commute_matrix ~name:"c" [ ("m", "m") ] in
  let reg = Commutativity.fixed [ ("N", spec) ] in
  let a =
    Action.v
      ~id:(Action_id.v ~top:1 ~path:[ 1 ])
      ~obj:(Obj_id.virtualize (Obj_id.v "N") ~rank:1)
      ~meth:"m" ~process:(Process_id.main 1) ()
  in
  let b =
    Action.v
      ~id:(Action_id.v ~top:2 ~path:[ 1 ])
      ~obj:(Obj_id.virtualize (Obj_id.v "N") ~rank:1)
      ~meth:"m" ~process:(Process_id.main 2) ()
  in
  check_bool "virtual object uses original's spec" true
    (Commutativity.commutes reg a b)

let test_fixed_default () =
  let reg = Commutativity.fixed ~default:Commutativity.all_commute [] in
  let a = mk ~top:1 ~path:[ 1 ] "X" "w" in
  let b = mk ~top:2 ~path:[ 1 ] "X" "w" in
  check_bool "default applies" true (Commutativity.commutes reg a b)

(* The memo cache never changes an answer.  For every shipped registry
   (the lint targets and the standalone ADTs), random same-object action
   pairs — pinned escrow/fifo actions and Def. 5 virtual objects
   included — get the raw spec's answer from [cached_test], on the
   first probe (a miss) and the second (a hit for stable specs), in both
   orders.  Each case probes one object through one fresh cache, and
   each (method, args) pair under several pins, so answers memoised at
   one pin meet probes at another. *)
let shipped_objects =
  lazy
    (List.concat_map
       (fun (t : Ooser_analysis.Lint.target) ->
         List.filter_map
           (fun (i : Ooser_analysis.Spec_lint.object_info) ->
             match Ooser_analysis.Spec_lint.probe_vocab i with
             | [] -> None
             | vocab -> Some (t.name, t.registry, i.obj, Array.of_list vocab))
           t.objects)
       (Ooser_workload.Lint_targets.adts ()
       :: Ooser_workload.Lint_targets.all ~seed:1 ()))

let arg_pool =
  Value.
    [|
      []; [ int 1 ]; [ int 5 ]; [ int 200 ]; [ str "a" ]; [ str "b" ];
      [ str "a"; int 1 ]; [ str "k00001"; str "v" ];
    |]

let pin_pool =
  Value.
    [|
      None; Some (int 0); Some (int 3); Some (int 50); Some (int 1_000_000);
      Some (bool true); Some (bool false);
    |]

(* (rank, (method, args), (method', args'), [(pin, pin')]) as pool indices *)
let gen_case =
  QCheck2.Gen.(
    let side = pair nat (int_bound (Array.length arg_pool - 1)) in
    let pin = int_bound (Array.length pin_pool - 1) in
    pair nat
      (list_size (int_range 1 8)
         (quad (int_bound 2) side side (list_size (int_range 1 4) (pair pin pin)))))

let prop_cache_agrees =
  QCheck2.Test.make ~name:"cached_test = test on every shipped registry"
    ~count:500 gen_case (fun (o, pairs) ->
      let objects = Lazy.force shipped_objects in
      let target, reg, name, vocab = List.nth objects (o mod List.length objects) in
      let cache = Commutativity.cached reg in
      let action top obj (m, args) pin =
        Action.v
          ~id:(Action_id.v ~top ~path:[ 1 ])
          ~obj ~meth:vocab.(m mod Array.length vocab) ~args:arg_pool.(args)
          ?pin:pin_pool.(pin) ~process:(Process_id.main top) ()
      in
      let probe spec a b =
        let want = Commutativity.test spec a b in
        let check () =
          if Commutativity.cached_test cache a b <> want then
            let pin x = Option.fold ~none:"-" ~some:Value.to_string (Action.pin x) in
            QCheck2.Test.fail_reportf
              "%s %s: %a (pin %s) vs %a (pin %s): cached %b, raw %b" target
              name Action.pp a (pin a) Action.pp b (pin b) (not want) want
        in
        let hits () = fst (Commutativity.cache_stats cache) in
        check ();
        let before = hits () in
        check ();
        (not (Commutativity.stable spec)) || hits () = before + 1
      in
      List.for_all
        (fun (rank, l, r, pins) ->
          let obj =
            if rank = 0 then Obj_id.v name
            else Obj_id.virtualize (Obj_id.v name) ~rank
          in
          let spec = Commutativity.spec_for reg obj in
          List.for_all
            (fun (p, p') ->
              let a = action 1 obj l p and b = action 2 obj r p' in
              probe spec a b && probe spec b a)
            pins)
        pairs)

let suites =
  [
    ( "commutativity",
      [
        Alcotest.test_case "read/write semantics" `Quick test_rw;
        Alcotest.test_case "same process never conflicts" `Quick
          test_same_process_never_conflicts;
        Alcotest.test_case "no self conflicts" `Quick test_self_never_conflicts;
        Alcotest.test_case "conflict and commute matrices" `Quick test_matrices;
        Alcotest.test_case "keyed refinement (Example 1)" `Quick test_by_key;
        Alcotest.test_case "virtual objects use original spec" `Quick
          test_registry_virtual_objects;
        Alcotest.test_case "fixed registry default" `Quick test_fixed_default;
        QCheck_alcotest.to_alcotest prop_cache_agrees;
      ] );
  ]
