(* The commit point reads the committing attempt's own primitives.  The
   engine records each attempt's stamped primitives in a buffer on the
   transaction: validation, certification and the trace sink read that
   buffer, a commit publishes it to the committed order and an abort
   drops it.  These properties check, over seeded engine runs under open
   nesting, certification and occ, that nothing is lost or leaked on the
   way:

   - each committed transaction reaches the trace sink exactly once, and
     the primitives it sinks are exactly its entries in
     [Engine.stamped_order];
   - [Engine.final_history] has the same primitive order, the same
     [Serializability.check] verdict and the same dependency edges as a
     history rebuilt from the trace-sink records alone.

   They also check that no pump stopped beside a blocked request a fresh
   lock probe would grant (the engine's "lost-wakeups" counter).

   The generated transactions cover restarts (wound-wait, wait-die and
   deadlock victims, validation and certification failures), call_par
   branches, try_call partial rollbacks and compensation phases; a fixed
   batch of seeds asserts that each of them actually occurs. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Store = Ooser_occ.Store
module Workloads = Ooser_occ.Workloads
module Rng = Ooser_sim.Rng
module Stats = Ooser_sim.Stats

let o = Obj_id.v

type kind = Open | Certify | Occ

let kind_name = function Open -> "open" | Certify -> "certify" | Occ -> "occ"

type op =
  | Write of int
  | Read of int
  | Par of int * int  (* two writes in parallel branches *)
  | Doomed of int  (* try_call of a subtransaction that writes, then fails *)
  | Bump of int  (* a subtransaction with a compensating inverse *)

let n_cells = 3
let cell i = o (Printf.sprintf "C%d" i)

(* Features seen while running, for the coverage check. *)
type seen = { mutable rollbacks : int; mutable compensations : int }

(* Read/write cells with physical undo; the occ kind takes the store's
   registers instead. *)
let register_cell db i =
  let state = ref 0 in
  let write ctx = function
    | [ Value.Int v ] ->
        let old = !state in
        Runtime.on_undo ctx (fun () -> state := old);
        state := v;
        Value.unit
    | _ -> invalid_arg "write"
  in
  Database.register db (cell i)
    ~spec:(Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ])
    [
      ("read", Database.primitive (fun _ _ -> Value.int !state));
      ("write", Database.primitive write);
    ]

(* K.bump increments a cell as an open-nested subtransaction whose
   inverse is K.unbump; H.doomed writes a cell and then aborts. *)
let register_composites db seen =
  let add ctx args delta =
    match args with
    | [ Value.Int i ] ->
        let v = Value.to_int_exn (Runtime.call ctx (cell i) "read" []) in
        ignore (Runtime.call ctx (cell i) "write" [ Value.int (v + delta) ]);
        Value.unit
    | _ -> invalid_arg "bump"
  in
  Database.register db (o "K")
    ~spec:
      (Commutativity.of_commute_matrix ~name:"bump"
         [ ("bump", "bump"); ("bump", "unbump"); ("unbump", "unbump") ])
    [
      ( "bump",
        Database.composite
          ~compensate:(fun args _ ->
            Database.Inverse (Runtime.invocation (o "K") "unbump" args))
          (fun ctx args -> add ctx args 1) );
      ( "unbump",
        Database.composite (fun ctx args ->
            seen.compensations <- seen.compensations + 1;
            add ctx args (-1)) );
    ];
  Database.register db (o "H") ~spec:Commutativity.all_commute
    [
      ( "doomed",
        Database.composite (fun ctx args ->
            (match args with
            | [ Value.Int i ] ->
                ignore (Runtime.call ctx (cell i) "write" [ Value.int 99 ])
            | _ -> ());
            Runtime.abort "doomed subtransaction") );
    ]

let gen_txn rng =
  let c () = Rng.int rng n_cells in
  let ops =
    List.init
      (1 + Rng.int rng 4)
      (fun _ ->
        match Rng.int rng 10 with
        | 0 | 1 | 2 -> Write (c ())
        | 3 | 4 -> Read (c ())
        | 5 | 6 -> Bump (c ())
        | 7 -> Par (c (), c ())
        | _ -> Doomed (c ()))
  in
  (ops, Rng.int rng 10 = 0)

let body seen (ops, give_up) ctx =
  List.iter
    (function
      | Write i -> ignore (Runtime.call ctx (cell i) "write" [ Value.int 1 ])
      | Read i -> ignore (Runtime.call ctx (cell i) "read" [])
      | Bump i -> ignore (Runtime.call ctx (o "K") "bump" [ Value.int i ])
      | Par (i, j) ->
          ignore
            (Runtime.call_par ctx
               [
                 Runtime.invocation (cell i) "write" [ Value.int 2 ];
                 Runtime.invocation (cell j) "write" [ Value.int 3 ];
               ])
      | Doomed i -> (
          match Runtime.try_call ctx (o "H") "doomed" [ Value.int i ] with
          | Ok _ -> ()
          | Error _ -> seen.rollbacks <- seen.rollbacks + 1))
    ops;
  if give_up then Runtime.abort "give up";
  Value.unit

type run = {
  eng : Engine.t;
  db : Database.t;
  tops : int list;
  sunk : (int * Call_tree.t * (Ids.Action_id.t * int) list) list;  (* commit order *)
}

let run kind seed seen =
  let rng = Rng.create ~seed in
  let db, store =
    match kind with
    | Open | Certify ->
        let db = Database.create () in
        for i = 0 to n_cells - 1 do
          register_cell db i
        done;
        (db, None)
    | Occ ->
        let db, store =
          Workloads.setup_registers ~mode:Store.Commute
            ~cells:(List.init n_cells (fun i -> Obj_id.name (cell i)))
            ()
        in
        (db, Some store)
  in
  register_composites db seen;
  let reg = Database.spec_registry db in
  let protocol =
    match (kind, store) with
    | Open, _ -> Protocol.open_nested ~reg ()
    | Certify, _ -> Protocol.unlocked ()
    | Occ, Some store -> Store.protocol store
    | Occ, None -> assert false
  in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:(seed + 1));
      deadlock = List.nth [ Engine.Detect; Engine.Wound_wait; Engine.Wait_die ] (seed mod 3);
      certify = kind = Certify;
      certify_oracle = kind = Certify && seed mod 2 = 0;
      max_steps = 20_000;
    }
  in
  let n = 3 + Rng.int rng 3 in
  let tops = List.init n (fun i -> i + 1) in
  let bodies =
    List.map (fun top -> (top, Printf.sprintf "t%d" top, body seen (gen_txn rng))) tops
  in
  let eng = Engine.create ~config db ~protocol in
  List.iter (fun (top, name, body) -> Engine.submit eng ~top ~name body) bodies;
  let sunk = ref [] in
  Engine.set_trace_sink eng
    (Some (fun ~top ~tree ~prims -> sunk := (top, tree, prims) :: !sunk));
  ignore (Engine.pump eng);
  { eng; db; tops; sunk = List.rev !sunk }

let by_top l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l

(* [None] when the run agrees with its trace-sink records, else what
   differs. *)
let disagreement r =
  let committed =
    List.filter
      (fun top ->
        match Engine.txn_state r.eng top with `Committed _ -> true | _ -> false)
      r.tops
  in
  let stamped = Engine.stamped_order r.eng in
  let sunk_trees = by_top (List.map (fun (top, tree, _) -> (top, tree)) r.sunk) in
  let rebuilt =
    History.v ~tops:(List.map snd sunk_trees)
      ~order:
        (List.concat_map (fun (_, _, prims) -> prims) r.sunk
        |> List.sort (fun (_, a) (_, b) -> Int.compare a b)
        |> List.map fst)
      ~commut:(Database.spec_registry r.db)
  in
  let final = Engine.final_history r.eng in
  if List.sort Int.compare (List.map (fun (top, _, _) -> top) r.sunk) <> committed then
    Some "sunk transactions differ from the committed set"
  else if
    not
      (List.for_all
         (fun (top, _, prims) ->
           prims = List.filter (fun (id, _) -> Ids.Action_id.top id = top) stamped)
         r.sunk)
  then Some "a transaction's sunk primitives differ from its stamped_order entries"
  else if
    List.length stamped
    <> List.fold_left (fun n (_, _, prims) -> n + List.length prims) 0 r.sunk
  then Some "stamped_order holds primitives no committed transaction sank"
  else if
    List.length (List.sort_uniq Ids.Action_id.compare (List.map fst stamped))
    <> List.length stamped
  then Some "stamped_order records an action twice (a dropped attempt leaked)"
  else if Stats.Counter.get (Engine.counters r.eng) "lost-wakeups" > 0 then
    Some "a blocked request was grantable where the pump stopped"
  else if Engine.committed_trees r.eng <> sunk_trees then
    Some "committed_trees differ from the sunk trees"
  else if not (List.equal Ids.Action_id.equal (History.order final) (History.order rebuilt))
  then Some "final_history order differs from the rebuilt order"
  else if Serializability.check final <> Serializability.check rebuilt then
    Some "final_history verdict differs from the rebuilt history's"
  else if not (Schedule.equivalent (Schedule.compute final) (Schedule.compute rebuilt))
  then Some "final_history dependency edges differ from the rebuilt history's"
  else None

let gen_case =
  QCheck2.Gen.(pair (oneofl [ Open; Certify; Occ ]) (int_range 1 1_000_000))

let print_case (kind, seed) = Printf.sprintf "%s seed %d" (kind_name kind) seed

let prop_buffers_match =
  QCheck2.Test.make ~name:"commit buffers match the committed history" ~count:300
    ~print:print_case gen_case (fun (kind, seed) ->
      let seen = { rollbacks = 0; compensations = 0 } in
      match disagreement (run kind seed seen) with
      | None -> true
      | Some what -> QCheck2.Test.fail_reportf "%s: %s" (print_case (kind, seed)) what)

(* The same check on a fixed batch of seeds per protocol, which must
   exercise every path that starts, fails or rolls back an attempt. *)
let test_coverage () =
  let seen = { rollbacks = 0; compensations = 0 } in
  let counters = Stats.Counter.create () in
  List.iter
    (fun kind ->
      for seed = 1 to 40 do
        let r = run kind seed seen in
        (match disagreement r with
        | Some what -> Alcotest.failf "%s: %s" (print_case (kind, seed)) what
        | None -> ());
        List.iter
          (fun (k, v) -> Stats.Counter.incr ~by:v counters k)
          (Stats.Counter.to_list (Engine.counters r.eng))
      done)
    [ Open; Certify; Occ ];
  List.iter
    (fun k ->
      if Stats.Counter.get counters k = 0 then Alcotest.failf "no %s in the batch" k)
    [
      "restarts"; "wounds"; "dies"; "deadlocks"; "validation-failures";
      "certification-failures"; "cert-oracle"; "cert-incremental";
    ];
  Alcotest.(check bool) "try_call rollbacks" true (seen.rollbacks > 0);
  Alcotest.(check bool) "compensation phases" true (seen.compensations > 0)

let suites =
  [
    ( "commit-buffer",
      [
        Alcotest.test_case "seeded batch covers every attempt path" `Quick
          test_coverage;
        QCheck_alcotest.to_alcotest prop_buffers_match;
      ] );
  ]
