(* Spec inference (DESIGN §16): the oracle-backed audit of the shipped
   ADT specs, the INFER001 mutation gate (a planted unsound escrow cell
   must be flagged with a replayable witness the checker rejects), the
   INFER002 conservative gate (a planted over-conservative kv cell must
   be reported), the qcheck oracle-agreement property (no inferred
   commuting cell is refuted by the semantics at random states), and the
   named Invalid_argument diagnostics of the matrix/rw spec
   constructors. *)

open Ooser_core
open Ooser_workload
module A = Ooser_analysis
module Infer = A.Infer
module Semantics = A.Semantics
module Diagnostic = A.Diagnostic
module Lint = A.Lint
module Spec_lint = A.Spec_lint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The full audit of the shipped ADTs is deterministic and not cheap
   (thousands of oracle executions) — run it once and share it. *)
let adts_report = lazy (Infer.run (Lint_targets.adts ()))

let find_cells (r : Infer.t) spec_name meth meth' =
  List.concat_map
    (fun (g : Infer.group) ->
      if String.equal g.Infer.spec_name spec_name then
        List.filter
          (fun (c : Infer.cell) ->
            (String.equal c.Infer.meth meth
            && String.equal c.Infer.meth' meth')
            || (String.equal c.Infer.meth meth'
               && String.equal c.Infer.meth' meth))
          g.Infer.cells
      else [])
    r.Infer.groups

let cell_with_rel cells rel =
  List.find_opt (fun (c : Infer.cell) -> c.Infer.rel = rel) cells

let commutes (c : Infer.cell) =
  match c.Infer.verdict with Infer.Commutes _ -> true | _ -> false

let conflicts (c : Infer.cell) =
  match c.Infer.verdict with Infer.Conflicts _ -> true | _ -> false

let expect_cell r spec meth meth' rel what pred =
  match cell_with_rel (find_cells r spec meth meth') rel with
  | Some c -> check_bool what true (pred c)
  | None -> Alcotest.failf "missing cell %s %s/%s" spec meth meth'

(* --- the shipped specs audit clean ---------------------------------- *)

let test_shipped_specs_clean () =
  let r = Lazy.force adts_report in
  check_int "no INFER001 on shipped specs" 0
    (List.length (Diagnostic.errors r.Infer.diagnostics));
  check_int "no INFER002 on shipped specs" 0
    (List.length (Diagnostic.warnings r.Infer.diagnostics));
  check_int "strict gate passes" 0
    (Lint.exit_code ~strict:true r.Infer.diagnostics);
  check_bool "coverage is counted" true
    (r.Infer.decided > 0 && r.Infer.decided <= r.Infer.total);
  check_bool "nothing unsound" true (Infer.unsound r = []);
  check_bool "nothing conservative" true (Infer.conservative r = [])

let test_shipped_verdicts () =
  let r = Lazy.force adts_report in
  let kv = "keyed(kv-set)" in
  expect_cell r kv "insert" "insert" Infer.Same_args
    "same-key inserts commute" commutes;
  expect_cell r kv "insert" "insert" Infer.Distinct
    "distinct-key inserts commute" commutes;
  expect_cell r kv "remove" "remove" Infer.Same_args
    "same-key removes conflict (dropped count is observable)" conflicts;
  expect_cell r "fifo-queue" "enqueue" "enqueue" Infer.Same_args
    "same-value enqueues commute" commutes;
  expect_cell r "fifo-queue" "enqueue" "enqueue" Infer.Distinct
    "distinct-value enqueues conflict" conflicts;
  expect_cell r "fifo-queue" "dequeue" "dequeue" Infer.Same_args
    "dequeues conflict" conflicts;
  expect_cell r "directory" "bind" "bind" Infer.Same_key
    "same-key binds conflict" conflicts;
  expect_cell r "directory" "lookup" "lookup" Infer.Distinct
    "distinct lookups commute" commutes

(* A conflict witness is minimal: the kv remove/remove refutation is the
   singleton state, and the directory same-args bind/bind refutation is
   labelled abort-unsafe — both orders forward-commute, only the
   captured-old-binding undo distinguishes them. *)
let test_witness_details () =
  let r = Lazy.force adts_report in
  (match
     cell_with_rel
       (find_cells r "keyed(kv-set)" "remove" "remove")
       Infer.Same_args
   with
  | Some { Infer.verdict = Infer.Conflicts w; _ } ->
      check_bool "minimal witness state" true
        (Value.equal w.Infer.w_state
           (Value.list [ Value.pair (Value.str "a") (Value.int 1) ]))
  | _ -> Alcotest.fail "kv remove/remove should conflict");
  match
    cell_with_rel (find_cells r "directory" "bind" "bind") Infer.Same_args
  with
  | Some { Infer.verdict = Infer.Conflicts w; _ } ->
      check_bool "refutation names abort safety" true
        (let sub = "abort" in
         let n = String.length sub and m = String.length w.Infer.w_reason in
         let rec go i =
           i + n <= m && (String.sub w.Infer.w_reason i n = sub || go (i + 1))
         in
         go 0);
      check_bool "both orders forward-commute at the witness" true
        (Semantics.forward_at Semantics.directory w.Infer.w_state
           ("bind", w.Infer.w_args)
           ("bind", w.Infer.w_args'))
  | _ -> Alcotest.fail "dir same-args bind/bind should conflict"

(* --- a planted wrong compensation ------------------------------------ *)

(* The shipped queue with one method replaced: [requeueFront], the
   compensation of a dequeue, appends instead of pushing to the front.
   The shipped [dequeue] names it by object id, so its compensation
   resolves to the planted method. *)
let planted_fifo =
  let module Q = Ooser_adts.Fifo_queue in
  let module Db = Ooser_oodb.Database in
  let oid = Obj_id.v "Q" in
  let instantiate state =
    let shipped = Db.create () in
    let q = Ooser_oodb.Adt_objects.register_queue shipped oid in
    let meth name =
      match Db.resolve shipped oid name with
      | Ok (m, _) -> (name, m)
      | Error msg -> failwith msg
    in
    let db = Db.create () in
    Db.register db oid ~spec:Q.spec
      ~pin:(fun () -> Q.pin q)
      [
        meth "enqueue";
        meth "dequeue";
        meth "removeLastOf";
        ( "requeueFront",
          Db.primitive (fun _ args ->
              Q.enqueue q (List.hd args);
              Value.unit) );
        meth "length";
      ];
    (match state with
    | Value.List xs -> List.iter (Q.enqueue q) xs
    | _ -> invalid_arg "planted_fifo: malformed state");
    Semantics.instance db oid ~observe:(fun () -> Value.list (Q.to_list q))
  in
  { Semantics.fifo with Semantics.instantiate }

let test_planted_compensation_refuted () =
  let s = Value.list [ Value.int 1 ] in
  let deq = ("dequeue", []) and enq = ("enqueue", [ Value.int 7 ]) in
  check_bool "shipped queue: dequeue/enqueue commute at [1]" true
    (Semantics.commute_at Semantics.fifo s deq enq);
  check_bool "planted requeueFront: refuted at [1]" false
    (Semantics.commute_at planted_fifo s deq enq);
  (* only the compensation route shows it: the dequeue's own undo
     closure still pushes to the front *)
  let undone route =
    let i = planted_fifo.Semantics.instantiate s in
    let c = i.Semantics.exec "dequeue" [] in
    ignore (i.Semantics.exec "enqueue" [ Value.int 7 ]);
    ignore (route c ());
    i.Semantics.observe ()
  in
  let front_first = Value.list [ Value.int 1; Value.int 7 ] in
  check_bool "undo closures restore the front" true
    (Value.equal (undone (fun c -> c.Semantics.undo)) front_first);
  check_bool "planted compensation appends" false
    (Value.equal (undone (fun c -> c.Semantics.compensate)) front_first)

(* --- INFER001: a planted unsound escrow cell ------------------------ *)

let escrow_mutant =
  (* claims the escrow reads commute with the updates — false: read
     before and after an incr observes different values *)
  Commutativity.predicate ~name:"escrow-counter"
    ~vocab:[ "incr"; "decr"; "read" ]
    (fun x y ->
      match (Action.meth x, Action.meth y) with
      | "read", _ | _, "read" -> true
      | _ -> false)

let mutant_target () =
  Lint.target ~name:"escrow-mutant"
    ~objects:
      [
        {
          Spec_lint.obj = "counter";
          spec = escrow_mutant;
          methods = [ "incr"; "decr"; "read" ];
          compensated = Some [];
        };
      ]
    (Commutativity.fixed [ ("counter", escrow_mutant) ])

let test_escrow_mutation_flagged () =
  let r = Infer.run (mutant_target ()) in
  check_bool "INFER001 raised" true
    (List.exists
       (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.code "INFER001")
       (Diagnostic.errors r.Infer.diagnostics));
  check_bool "no spurious INFER002" true
    (Diagnostic.warnings r.Infer.diagnostics = []);
  check_bool "gate fails even without --strict" true
    (Lint.exit_code r.Infer.diagnostics <> 0);
  match Infer.unsound r with
  | [] -> Alcotest.fail "unsound cell list is empty"
  | (spec_name, cell) :: _ -> (
      check_bool "flagged on the escrow spec" true
        (String.equal spec_name "escrow-counter");
      match cell.Infer.verdict with
      | Infer.Conflicts w ->
          (* the oracle replays the witness: both calls at the witness
             state do not commute *)
          check_bool "oracle refutes the witness" false
            (Semantics.commute_at Semantics.counter w.Infer.w_state
               (cell.Infer.meth, w.Infer.w_args)
               (cell.Infer.meth', w.Infer.w_args'));
          (* and the witness interleaving, run under a registry where the
             pair conflicts, is rejected by the serializability checker *)
          let h =
            Infer.witness_history ~obj:"counter" ~meth:cell.Infer.meth
              ~args:w.Infer.w_args ~meth':cell.Infer.meth'
              ~args':w.Infer.w_args'
          in
          check_bool "witness history is well-formed" true
            (History.validate h = Ok ());
          check_bool "checker rejects the witness interleaving" false
            (Serializability.check h).Serializability.oo_serializable;
          (* sanity: the same interleaving under the mutant's claim is
             accepted — exactly the unsoundness INFER001 guards against *)
          let lie =
            History.v ~tops:(History.tops h) ~order:(History.order h)
              ~commut:(Commutativity.uniform Commutativity.all_commute)
          in
          check_bool "mutant's claim would certify it" true
            (Serializability.check lie).Serializability.oo_serializable
      | _ -> Alcotest.fail "unsound cell should carry a conflict witness")

(* --- INFER002: a planted over-conservative kv cell ------------------ *)

let kv_conservative =
  (* the shipped kv-set matrix with contains/contains dropped: sound but
     needlessly conservative — two same-key membership reads commute *)
  Commutativity.by_key ~key_of:Commutativity.first_arg
    (Commutativity.predicate ~stable:true ~name:"kv-set"
       ~vocab:[ "insert"; "remove"; "contains"; "cardinal" ]
       (fun x y ->
         match (Action.meth x, Action.meth y) with
         | "insert", "insert" -> true
         | "cardinal", "cardinal" | "cardinal", "contains"
         | "contains", "cardinal" ->
             true
         | _ -> false))

let test_conservative_flagged () =
  let target =
    Lint.target ~name:"kv-conservative"
      ~objects:
        [
          {
            Spec_lint.obj = "set";
            spec = kv_conservative;
            methods = [ "insert"; "remove"; "contains"; "cardinal" ];
            compensated = Some [];
          };
        ]
      (Commutativity.fixed [ ("set", kv_conservative) ])
  in
  let r = Infer.run target in
  check_bool "no INFER001" true (Diagnostic.errors r.Infer.diagnostics = []);
  check_bool "INFER002 raised" true
    (List.exists
       (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.code "INFER002")
       (Diagnostic.warnings r.Infer.diagnostics));
  check_int "non-strict gate still passes" 0
    (Lint.exit_code r.Infer.diagnostics);
  check_bool "strict gate fails" true
    (Lint.exit_code ~strict:true r.Infer.diagnostics <> 0);
  check_bool "the lost cell is same-key contains/contains" true
    (List.exists
       (fun (_, (c : Infer.cell)) ->
         String.equal c.Infer.meth "contains"
         && String.equal c.Infer.meth' "contains"
         && c.Infer.rel = Infer.Same_args && commutes c)
       (Infer.conservative r))

(* --- qcheck: inferred commuting cells agree with the oracle --------- *)

(* The soundness property behind "never falsely commutative": every cell
   the audit published as Commutes keeps commuting at fresh random
   states, for every argument pair in the cell's class.  This re-checks
   the verdicts with states the inference run never enumerated. *)
let oracle_agreement_prop (model : Semantics.model) =
  let r = Lazy.force adts_report in
  let commuting =
    List.concat_map
      (fun (g : Infer.group) ->
        if String.equal g.Infer.spec_name model.Semantics.spec_name then
          List.filter commutes g.Infer.cells
        else [])
      r.Infer.groups
  in
  QCheck.Test.make ~count:100
    ~name:("inferred commutes are sound: " ^ model.Semantics.model_name)
    (QCheck.make model.Semantics.gen_state)
    (fun state ->
      List.for_all
        (fun (c : Infer.cell) ->
          let vs = Semantics.vectors model c.Infer.meth in
          let vs' = Semantics.vectors model c.Infer.meth' in
          List.for_all
            (fun v ->
              List.for_all
                (fun v' ->
                  (not (Infer.rel_of v v' = c.Infer.rel))
                  || Semantics.commute_at model state (c.Infer.meth, v)
                       (c.Infer.meth', v'))
                vs')
            vs)
        commuting)

(* --- named Invalid_argument diagnostics (satellite 1) --------------- *)

let raises_invalid f =
  match f () with
  | exception Invalid_argument m -> m
  | _ -> Alcotest.fail "expected Invalid_argument"

let has sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_invalid_argument_messages () =
  let m =
    raises_invalid (fun () ->
        Commutativity.of_conflict_matrix ~name:"pairs"
          [ ("a", "b"); ("b", "a") ])
  in
  check_bool "conflict matrix names the spec" true (has "spec \"pairs\"" m);
  check_bool "conflict matrix names the pair" true
    (has "duplicate pair (a, b)" m);
  let m =
    raises_invalid (fun () ->
        Commutativity.of_commute_matrix ~name:"cm" [ ("x", "y"); ("x", "y") ])
  in
  check_bool "commute matrix names the ctor" true
    (has "of_commute_matrix" m && has "spec \"cm\"" m);
  let m =
    raises_invalid (fun () ->
        Commutativity.rw_named ~name:"pg" ~reads:[ "get" ]
          ~writes:[ "put"; "get" ])
  in
  check_bool "rw names the read/write overlap" true
    (has "spec \"pg\"" m && has "\"get\" is both a read and a write" m);
  let m =
    raises_invalid (fun () ->
        Commutativity.rw_named ~name:"pg" ~reads:[ "get"; "get" ] ~writes:[])
  in
  check_bool "rw names the duplicate method" true
    (has "\"get\" listed twice" m);
  let m =
    raises_invalid (fun () ->
        Commutativity.rw ~reads:[ "touch" ] ~writes:[ "touch" ])
  in
  check_bool "unnamed rw keeps its default spec name" true
    (has "spec \"read-write\"" m)

let suites =
  [
    ( "infer",
      [
        Alcotest.test_case "shipped ADT specs audit clean" `Quick
          test_shipped_specs_clean;
        Alcotest.test_case "shipped verdicts match the semantics" `Quick
          test_shipped_verdicts;
        Alcotest.test_case "conflict witnesses are minimal and labelled"
          `Quick test_witness_details;
        Alcotest.test_case "planted wrong compensation is refuted" `Quick
          test_planted_compensation_refuted;
        Alcotest.test_case "planted unsound escrow cell raises INFER001"
          `Quick test_escrow_mutation_flagged;
        Alcotest.test_case "planted conservative kv cell raises INFER002"
          `Quick test_conservative_flagged;
        Alcotest.test_case "spec constructors raise named Invalid_argument"
          `Quick test_invalid_argument_messages;
        QCheck_alcotest.to_alcotest (oracle_agreement_prop Semantics.counter);
        QCheck_alcotest.to_alcotest (oracle_agreement_prop Semantics.kv_set);
        QCheck_alcotest.to_alcotest (oracle_agreement_prop Semantics.fifo);
        QCheck_alcotest.to_alcotest
          (oracle_agreement_prop Semantics.directory);
      ] );
  ]
