(* Unit and property tests for the semantic abstract data types. *)

open Ooser_core
open Ooser_adts

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let act ?(top = 1) ?(args = []) ?pin meth =
  Action.v
    ~id:(Ids.Action_id.v ~top ~path:[ 1 ])
    ~obj:(Obj_id.v "X") ~meth ~args ?pin
    ~process:(Ids.Process_id.main top)
    ()

let test_escrow_basic () =
  let c = Escrow_counter.create ~low:0 ~high:10 5 in
  Escrow_counter.incr c 3;
  check_int "after incr" 8 (Escrow_counter.value c);
  Escrow_counter.decr c 8;
  check_int "after decr" 0 (Escrow_counter.value c);
  check_bool "bounds violation" true
    (match Escrow_counter.decr c 1 with
    | exception Escrow_counter.Bounds_violation _ -> true
    | () -> false);
  check_bool "negative amount" true
    (match Escrow_counter.incr c (-1) with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_escrow_commutativity () =
  let c = Escrow_counter.create ~low:0 ~high:10 5 in
  let spec = Escrow_counter.spec c in
  (* probes pinned at the counter's current state, as the engine pins
     the actions it executes *)
  let pin () = Escrow_counter.pin c in
  let incr top n = act ~top ~args:[ Value.int n ] ~pin:(pin ()) "incr" in
  let decr top n = act ~top ~args:[ Value.int n ] ~pin:(pin ()) "decr" in
  let read top = act ~top "read" in
  check_bool "small updates commute" true
    (Commutativity.test spec (incr 1 2) (decr 2 3));
  (* incr 4 and incr 4 from value 5 with high 10: each alone fits, both
     together overflow: must conflict *)
  check_bool "jointly overflowing updates conflict" false
    (Commutativity.test spec (incr 1 4) (incr 2 4));
  check_bool "read conflicts with update" false
    (Commutativity.test spec (read 1) (incr 2 1));
  check_bool "reads commute" true (Commutativity.test spec (read 1) (read 2));
  (* state-dependence: after draining the counter, decrements conflict *)
  Escrow_counter.decr c 5;
  check_bool "empty counter: decrements conflict" false
    (Commutativity.test spec (decr 1 1) (decr 2 1));
  (* the verdict reads the pins, never the live counter: a pair pinned
     at 5 still commutes after the drain, and the test must hold at both
     pins — 2 + 3 fits from 5 but not from 9 *)
  let at v top n = act ~top ~args:[ Value.int n ] ~pin:(Value.int v) "incr" in
  check_bool "pins decide, not live state" true
    (Commutativity.test spec (at 5 1 2) (at 5 2 3));
  check_bool "tested at both pinned pre-states" false
    (Commutativity.test spec (at 5 1 2) (at 9 2 3));
  check_bool "unpinned updates conflict" false
    (Commutativity.test spec
       (act ~top:1 ~args:[ Value.int 1 ] "incr")
       (act ~top:2 ~args:[ Value.int 1 ] "incr"))

let test_kv_set () =
  let s = Kv_set.create () in
  Kv_set.insert s (Value.str "a");
  Kv_set.insert s (Value.str "a");
  Kv_set.insert s (Value.str "b");
  check_int "cardinal dedups" 2 (Kv_set.cardinal s);
  check_int "insertion count tracked" 2 (Kv_set.count s (Value.str "a"));
  Kv_set.decr_count s (Value.str "a");
  check_bool "still member after one decrement" true
    (Kv_set.mem s (Value.str "a"));
  Kv_set.decr_count s (Value.str "a");
  check_bool "gone after both decrements" false (Kv_set.mem s (Value.str "a"));
  Kv_set.insert s (Value.str "a");
  check_int "remove reports dropped count" 1 (Kv_set.remove s (Value.str "a"));
  check_bool "removed" false (Kv_set.mem s (Value.str "a"));
  let spec = Kv_set.spec in
  let ins k top = act ~top ~args:[ Value.str k ] "insert" in
  let con k top = act ~top ~args:[ Value.str k ] "contains" in
  let rem k top = act ~top ~args:[ Value.str k ] "remove" in
  check_bool "different keys commute" true
    (Commutativity.test spec (ins "x" 1) (rem "y" 2));
  check_bool "same-key inserts commute (idempotent)" true
    (Commutativity.test spec (ins "x" 1) (ins "x" 2));
  check_bool "insert/contains conflict" false
    (Commutativity.test spec (ins "x" 1) (con "x" 2));
  check_bool "insert/remove conflict" false
    (Commutativity.test spec (ins "x" 1) (rem "x" 2))

let test_fifo_queue () =
  let q = Fifo_queue.create () in
  check_bool "empty" true (Fifo_queue.is_empty q);
  Fifo_queue.enqueue q (Value.int 1);
  Fifo_queue.enqueue q (Value.int 2);
  Fifo_queue.enqueue q (Value.int 3);
  check_int "length" 3 (Fifo_queue.length q);
  Alcotest.(check (option int)) "fifo order" (Some 1)
    (Option.bind (Fifo_queue.dequeue q) Value.to_int);
  Alcotest.(check (option int)) "peek" (Some 2)
    (Option.bind (Fifo_queue.peek q) Value.to_int);
  Alcotest.(check (option int)) "next" (Some 2)
    (Option.bind (Fifo_queue.dequeue q) Value.to_int);
  ignore (Fifo_queue.dequeue q);
  check_bool "drained" true (Fifo_queue.dequeue q = None)

let test_fifo_commutativity () =
  let q = Fifo_queue.create () in
  let spec = Fifo_queue.spec in
  let enq top = act ~top ~pin:(Fifo_queue.pin q) "enqueue" in
  let deq top = act ~top ~pin:(Fifo_queue.pin q) "dequeue" in
  check_bool "enq/deq conflict on empty queue" false
    (Commutativity.test spec (enq 1) (deq 2));
  Fifo_queue.enqueue q (Value.int 1);
  check_bool "enq/deq commute when non-empty" true
    (Commutativity.test spec (enq 1) (deq 2));
  check_bool "enq/enq never commute" false
    (Commutativity.test spec (enq 1) (enq 2));
  check_bool "deq/deq never commute" false
    (Commutativity.test spec (deq 1) (deq 2));
  check_bool "enq/deq conflict unless both pins are non-empty" false
    (Commutativity.test spec (enq 1)
       (act ~top:2 ~pin:(Value.bool true) "dequeue"));
  check_bool "unpinned enq/deq conflict" false
    (Commutativity.test spec (act ~top:1 "enqueue") (act ~top:2 "dequeue"))

let test_directory () =
  let d = Directory.create () in
  Directory.bind d (Value.str "a") (Value.int 1);
  Directory.bind d (Value.str "a") (Value.int 2);
  check_int "rebind replaces" 1 (Directory.cardinal d);
  Alcotest.(check (option int)) "lookup" (Some 2)
    (Option.bind (Directory.lookup d (Value.str "a")) Value.to_int);
  Directory.unbind d (Value.str "a");
  check_bool "unbound" true (Directory.lookup d (Value.str "a") = None);
  let spec = Directory.spec in
  let bind k top = act ~top ~args:[ Value.str k ] "bind" in
  let lookup k top = act ~top ~args:[ Value.str k ] "lookup" in
  let list top = act ~top "list" in
  check_bool "different keys commute" true
    (Commutativity.test spec (bind "x" 1) (bind "y" 2));
  check_bool "same key bind/lookup conflict" false
    (Commutativity.test spec (bind "x" 1) (lookup "x" 2));
  check_bool "list conflicts with bind (phantom)" false
    (Commutativity.test spec (list 1) (bind "x" 2));
  check_bool "list commutes with lookup" true
    (Commutativity.test spec (list 1) (lookup "x" 2))

(* Property: escrow commutativity is sound — whenever the spec says two
   updates commute, applying them in either order succeeds and ends in
   the same state. *)
let prop_escrow_sound =
  let open QCheck2 in
  let gen =
    Gen.(
      tup4 (int_range 0 20) (* initial *)
        (int_range (-10) 10) (* delta a *)
        (int_range (-10) 10) (* delta b *)
        (int_range 10 30) (* high bound *))
  in
  QCheck2.Test.make ~name:"escrow commute implies order-insensitive success"
    ~count:500 gen (fun (init, da, db, high) ->
      let init = min init high in
      let mk () = Escrow_counter.create ~low:0 ~high init in
      let c = mk () in
      let spec = Escrow_counter.spec c in
      let act_of top d =
        act ~top
          ~args:[ Value.int (abs d) ]
          ~pin:(Escrow_counter.pin c)
          (if d >= 0 then "incr" else "decr")
      in
      let apply c d = if d >= 0 then Escrow_counter.incr c d else Escrow_counter.decr c (-d) in
      if Commutativity.test spec (act_of 1 da) (act_of 2 db) then (
        let c1 = mk () and c2 = mk () in
        let r1 =
          match
            apply c1 da;
            apply c1 db
          with
          | () -> Some (Escrow_counter.value c1)
          | exception Escrow_counter.Bounds_violation _ -> None
        in
        let r2 =
          match
            apply c2 db;
            apply c2 da
          with
          | () -> Some (Escrow_counter.value c2)
          | exception Escrow_counter.Bounds_violation _ -> None
        in
        r1 <> None && r1 = r2)
      else true)

let suites =
  [
    ( "adts",
      [
        Alcotest.test_case "escrow basics" `Quick test_escrow_basic;
        Alcotest.test_case "escrow commutativity" `Quick test_escrow_commutativity;
        Alcotest.test_case "kv set" `Quick test_kv_set;
        Alcotest.test_case "fifo queue" `Quick test_fifo_queue;
        Alcotest.test_case "fifo commutativity" `Quick test_fifo_commutativity;
        Alcotest.test_case "directory" `Quick test_directory;
        QCheck_alcotest.to_alcotest prop_escrow_sound;
      ] );
  ]
