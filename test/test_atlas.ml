(* Static conflict atlas tests: soundness of the verdicts against the
   dynamic checker (no false "safe" over random schedules, every witness
   rejected), the HOT001/COMP001 rules, Callgraph coverage on recursive summaries,
   and the shared lint/analyze exit-code mapping. *)

open Ooser_core
open Ooser_workload
module A = Ooser_analysis
module Atlas = A.Atlas
module Inherit = A.Inherit
module Effects = A.Effects
module Summary = A.Summary
module Callgraph = A.Callgraph
module Diagnostic = A.Diagnostic
module Lint = A.Lint
module Rng = Ooser_sim.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let o = Obj_id.v

let rw = Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ]

let registry_of assoc =
  Commutativity.registry
    ~known:(fun oid -> List.mem_assoc (Obj_id.name (Obj_id.original oid)) assoc)
    (fun oid ->
      match List.assoc_opt (Obj_id.name (Obj_id.original oid)) assoc with
      | Some s -> s
      | None -> Commutativity.all_conflict)

let target ?(objects = []) name assoc summaries =
  Lint.target ~name ~objects ~summaries (registry_of assoc)

(* -- soundness: static "safe" agrees with the checker on random
      schedules; every witness fails it ----------------------------------- *)

let random_schedules = 100

let replay_random rng (e : Atlas.entry) =
  let t1, t2 = e.Atlas.inh.Inherit.tops in
  let order = Random_schedules.random_order rng [ t1; t2 ] in
  let h =
    History.v ~tops:[ t1; t2 ] ~order ~commut:e.Atlas.inh.Inherit.registry
  in
  (Serializability.check h).Serializability.oo_serializable

let agreement ?max_interleavings ~seed target () =
  let atlas = Atlas.build ?max_interleavings target in
  let rng = Rng.create ~seed in
  List.iter
    (fun (e : Atlas.entry) ->
      match e.Atlas.verdict with
      | Atlas.Safe _ ->
          for _ = 1 to random_schedules do
            if not (replay_random rng e) then
              Alcotest.failf
                "%s: pair %s x %s statically safe but a random schedule \
                 fails the checker"
                atlas.Atlas.target_name (fst e.Atlas.pair) (snd e.Atlas.pair)
          done
      | Atlas.Unsafe w ->
          let v = Serializability.check (Atlas.witness_history e w) in
          if v.Serializability.oo_serializable then
            Alcotest.failf
              "%s: pair %s x %s witness schedule is accepted by the checker"
              atlas.Atlas.target_name (fst e.Atlas.pair) (snd e.Atlas.pair)
      | Atlas.Unknown _ -> ())
    atlas.Atlas.entries;
  (* the suite must exercise at least one non-trivial verdict *)
  check_bool "atlas has entries" true (atlas.Atlas.entries <> [])

(* Shipped workloads.  The encyclopedia enumeration budget is reduced to
   keep the suite fast: pairs above it become Unknown (never silently
   safe), the structural and small exhaustive proofs remain checked. *)
let agreement_tests =
  [
    Alcotest.test_case "banking rw: safe agrees over 100 random schedules"
      `Quick
      (agreement ~seed:7 (Lint_targets.banking ~semantics:`Rw ~seed:3 ()));
    Alcotest.test_case "banking escrow: no false safe" `Quick
      (agreement ~seed:11 (Lint_targets.banking ~seed:3 ()));
    Alcotest.test_case "inventory: no false safe" `Quick
      (agreement ~seed:13 (Lint_targets.inventory ~seed:3 ()));
    Alcotest.test_case "encyclopedia: safe agrees over 100 random schedules"
      `Slow
      (agreement ~max_interleavings:600 ~seed:17
         (Lint_targets.encyclopedia ~seed:3 ()));
  ]

(* -- crafted verdicts --------------------------------------------------- *)

let entry_for atlas (l, r) =
  match
    List.find_opt
      (fun (e : Atlas.entry) -> e.Atlas.pair = (l, r) || e.Atlas.pair = (r, l))
      atlas.Atlas.entries
  with
  | Some e -> e
  | None -> Alcotest.failf "no atlas entry for %s x %s" l r

(* Opposite write orders on two rw objects: the textbook anti-serial
   pair.  The minimal witness needs exactly two context switches. *)
let test_unsafe_witness () =
  let t1 = Summary.txn "t1" [ Summary.call (o "A") "write" []; Summary.call (o "B") "write" [] ]
  and t2 = Summary.txn "t2" [ Summary.call (o "B") "write" []; Summary.call (o "A") "write" [] ] in
  let tgt = target "opposite" [ ("A", rw); ("B", rw) ] [ t1; t2 ] in
  let atlas = Atlas.build tgt in
  let e = entry_for atlas ("t1", "t2") in
  match e.Atlas.verdict with
  | Atlas.Unsafe w ->
      check_int "minimal witness: 2 switches" 2 w.Atlas.w_switches;
      let v = Serializability.check (Atlas.witness_history e w) in
      check_bool "witness rejected" false v.Serializability.oo_serializable;
      check_bool "failing objects named" true (w.Atlas.w_objects <> [])
  | v -> Alcotest.failf "expected unsafe, got %s" (Atlas.verdict_label v)

let test_safe_no_conflict () =
  let t1 = Summary.txn "t1" [ Summary.call (o "A") "read" [] ]
  and t2 = Summary.txn "t2" [ Summary.call (o "A") "read" []; Summary.call (o "B") "write" [] ] in
  let atlas = Atlas.build (target "reads" [ ("A", rw); ("B", rw) ] [ t1; t2 ]) in
  match (entry_for atlas ("t1", "t2")).Atlas.verdict with
  | Atlas.Safe Atlas.No_conflict -> ()
  | v -> Alcotest.failf "expected safe/no-conflict, got %s" (Atlas.verdict_label v)

(* A single conflicting leaf pair cannot close a per-object cycle: the
   channel-counting argument proves the pair safe with no enumeration. *)
let test_safe_isolated () =
  let t1 = Summary.txn "t1" [ Summary.call (o "A") "write" []; Summary.call (o "B") "read" [] ]
  and t2 = Summary.txn "t2" [ Summary.call (o "A") "write" [] ] in
  let atlas = Atlas.build (target "single" [ ("A", rw); ("B", rw) ] [ t1; t2 ]) in
  let e = entry_for atlas ("t1", "t2") in
  check_int "one channel" 1 (List.length e.Atlas.inh.Inherit.channels);
  match e.Atlas.verdict with
  | Atlas.Safe Atlas.Isolated_channels -> ()
  | v -> Alcotest.failf "expected safe/isolated, got %s" (Atlas.verdict_label v)

(* Commuting composite callers (Def. 11) stop the leaf conflicts from
   climbing into a top-level dependency — but the per-object relation at
   the register still cycles under free primitive interleaving (the
   protocol, not the statics, is what keeps [incr] atomic), so the
   verdict must stay Unsafe: absorption must never mask a leaf cycle. *)
let counter_target () =
  let ctr =
    Commutativity.of_commute_matrix ~name:"counter" [ ("incr", "incr") ]
  in
  let incr_txn name =
    Summary.txn name
      [
        Summary.call (o "C") "incr"
          [
            Summary.call (o "R") "read" []; Summary.call (o "R") "write" [];
          ];
      ]
  in
  target "counter" [ ("C", ctr); ("R", rw) ] [ incr_txn "i1"; incr_txn "i2" ]

let test_safe_commuting_callers () =
  let atlas = Atlas.build (counter_target ()) in
  (* i1 and i2 have the same call-tree shape: one representative, and the
     self-pair covers two concurrent instances of it *)
  check_int "deduped to one type" 1 (List.length atlas.Atlas.summaries);
  let e = entry_for atlas ("i1", "i1") in
  List.iter
    (fun (c : Inherit.channel) ->
      check_bool "channel stopped by commuting callers" true
        (c.Inherit.stop = Inherit.Callers_commute))
    e.Atlas.inh.Inherit.channels;
  match e.Atlas.verdict with
  | Atlas.Unsafe w ->
      let v = Serializability.check (Atlas.witness_history e w) in
      check_bool "leaf-cycle witness rejected" false
        v.Serializability.oo_serializable
  | v ->
      Alcotest.failf "expected unsafe (leaf cycle), got %s"
        (Atlas.verdict_label v)

(* One writer wedged between another transaction's two writes on the
   same object: the single write cannot be serialized before or after
   the pair, so the inherited top-level dependencies cycle.  Exercises
   the enumeration on a shared-deposit pair with the smallest possible
   merge space (C(3,1) = 3). *)
let test_unsafe_wedge () =
  let t1 = Summary.txn "one" [ Summary.call (o "A") "write" [] ]
  and t2 =
    Summary.txn "two"
      [ Summary.call (o "A") "write" []; Summary.call (o "A") "write" [] ]
  in
  let atlas = Atlas.build (target "wedge" [ ("A", rw) ] [ t1; t2 ]) in
  let e = entry_for atlas ("one", "two") in
  check_bool "channels share a deposit object" true
    (e.Atlas.inh.Inherit.shared <> []);
  match e.Atlas.verdict with
  | Atlas.Unsafe w ->
      check_int "wedge witness: 2 switches" 2 w.Atlas.w_switches;
      let v = Serializability.check (Atlas.witness_history e w) in
      check_bool "wedge witness rejected" false
        v.Serializability.oo_serializable
  | v -> Alcotest.failf "expected unsafe, got %s" (Atlas.verdict_label v)

(* Without the commuting-caller absorption the same shape is unsafe:
   conflicting callers let the dependency climb to the top. *)
let test_unsafe_without_absorption () =
  let noncommuting = Commutativity.all_conflict in
  let tgt =
    let txn name =
      Summary.txn name
        [
          Summary.call (o "C") "incr"
            [
              Summary.call (o "R") "read" [];
              Summary.call (o "R") "write" [];
            ];
        ]
    in
    target "counter-conflict"
      [ ("C", noncommuting); ("R", rw) ]
      [ txn "i1"; txn "i2" ]
  in
  let atlas = Atlas.build tgt in
  match (entry_for atlas ("i1", "i1")).Atlas.verdict with
  | Atlas.Unsafe _ -> ()
  | v -> Alcotest.failf "expected unsafe, got %s" (Atlas.verdict_label v)

let test_unknown_unstable () =
  let escrow =
    Commutativity.predicate ~name:"escrow" (fun _ _ -> true)
    (* stable defaults to false: the decision may read object state *)
  in
  let t1 = Summary.txn "t1" [ Summary.call (o "E") "withdraw" [] ] in
  let atlas = Atlas.build (target "escrow" [ ("E", escrow) ] [ t1 ]) in
  match (entry_for atlas ("t1", "t1")).Atlas.verdict with
  | Atlas.Unknown _ -> ()
  | v -> Alcotest.failf "expected unknown, got %s" (Atlas.verdict_label v)

let test_unknown_budget () =
  (* opposite alternation phases keep the two shapes distinct under the
     shape-key dedup *)
  let mk name phase =
    Summary.txn name
      (List.init 8 (fun i ->
           Summary.call (o (Printf.sprintf "X%d" ((i + phase) mod 2))) "write" []))
  in
  let assoc = [ ("X0", rw); ("X1", rw) ] in
  let atlas =
    Atlas.build ~max_interleavings:10
      (target "big" assoc [ mk "t1" 0; mk "t2" 1 ])
  in
  match (entry_for atlas ("t1", "t2")).Atlas.verdict with
  | Atlas.Unknown _ -> ()
  | v -> Alcotest.failf "expected unknown (budget), got %s" (Atlas.verdict_label v)

(* -- HOT001 / COMP001 --------------------------------------------------- *)

let test_hot001 () =
  (* a conflict at Z climbing through non-commuting Y and X callers into
     a top-level dependency: inheritance never stops *)
  let txn name =
    Summary.txn name
      [
        Summary.call (o "X") "op"
          [ Summary.call (o "Y") "op" [ Summary.call (o "Z") "write" [] ] ];
      ]
  in
  let assoc =
    [ ("X", Commutativity.all_conflict); ("Y", Commutativity.all_conflict);
      ("Z", rw) ]
  in
  let atlas = Atlas.build (target "hot" assoc [ txn "t1"; txn "t2" ]) in
  check_bool "HOT001 emitted" true
    (List.exists (fun d -> d.Diagnostic.code = "HOT001") atlas.Atlas.diagnostics);
  (* a depth-1 conflict is ordinary contention, not an inheritance chain *)
  let flat name = Summary.txn name [ Summary.call (o "Z") "write" [] ] in
  let atlas' = Atlas.build (target "flat" [ ("Z", rw) ] [ flat "t1"; flat "t2" ]) in
  check_bool "no HOT001 for depth-1 conflicts" false
    (List.exists (fun d -> d.Diagnostic.code = "HOT001") atlas'.Atlas.diagnostics)

let info ?(methods = []) ?compensated name spec =
  { A.Spec_lint.obj = name; spec; methods; compensated }

let test_comp001 () =
  let summaries =
    [
      Summary.txn "t1"
        [ Summary.call (o "C") "incr" [ Summary.call (o "R") "write" [] ] ];
    ]
  in
  let assoc = [ ("C", Commutativity.all_conflict); ("R", rw) ] in
  let build objects =
    Atlas.build (target ~objects "comp" assoc summaries)
  in
  let has_comp atlas =
    List.exists (fun d -> d.Diagnostic.code = "COMP001") atlas.Atlas.diagnostics
  in
  (* R.write runs at depth 2 (under C.incr): open nesting releases its
     lock when incr completes, so it needs a compensation *)
  check_bool "COMP001 for uncompensated nested method" true
    (has_comp (build [ info ~methods:[ "write" ] ~compensated:[] "R" rw ]));
  check_bool "registered compensation silences it" false
    (has_comp
       (build [ info ~methods:[ "write" ] ~compensated:[ "write" ] "R" rw ]));
  check_bool "unknown method table stays silent" false
    (has_comp (build [ info ~methods:[ "write" ] "R" rw ]));
  (* depth-1 calls are scoped by the root: undo logs cover them *)
  let flat = [ Summary.txn "t1" [ Summary.call (o "R") "write" [] ] ] in
  check_bool "no COMP001 at depth 1" false
    (has_comp
       (Atlas.build
          (target
             ~objects:[ info ~methods:[ "write" ] ~compensated:[] "R" rw ]
             "comp-flat" [ ("R", rw) ] flat)))

(* -- Callgraph on recursive and virtual-object summaries ---------------- *)

let test_callgraph_recursive () =
  (* B.n calls back into A: a recursive (cyclic) object reference — the
     Def. 5 extension site must be found through the indirection *)
  let s =
    Summary.txn "rec"
      [
        Summary.call (o "A") "m"
          [
            Summary.call (o "B") "n"
              [ Summary.call (o "A") "m'" [ Summary.call (o "B") "n'" [] ] ];
          ];
      ]
  in
  let sites = Callgraph.extension_sites s in
  check_bool "recursive summary yields extension sites" true (sites <> []);
  let objs =
    List.sort_uniq compare
      (List.map (fun (s : Callgraph.site) -> Obj_id.original s.Callgraph.obj) sites)
  in
  check_bool "both recursive objects found" true
    (List.mem (o "A") objs && List.mem (o "B") objs)

let test_inherit_virtual_extension () =
  (* self-recursive call: the pair analysis must route the conflict
     through the Def. 5 virtual object back to the original *)
  let txn name =
    Summary.txn name
      [ Summary.call (o "A") "m" [ Summary.call (o "A") "write" [] ] ] in
  let reg = registry_of [ ("A", Commutativity.all_conflict) ] in
  let inh = Inherit.analyse reg (txn "t1") (txn "t2") in
  check_bool "extension introduced a virtual object" true
    (Extension.virtual_objects inh.Inherit.ext <> []);
  check_bool "conflict channels found" true (inh.Inherit.channels <> [])

(* -- effects summaries -------------------------------------------------- *)

let test_effects () =
  let s =
    Summary.txn "t"
      [
        Summary.call (o "A") "m"
          [ Summary.call (o "B") "n" []; Summary.call (o "B") "n" [] ];
      ]
  in
  let eff = Effects.of_summary s in
  check_int "two objects touched" 2 (List.length eff.Effects.objects);
  check_int "max depth" 2 eff.Effects.max_depth;
  let b_atoms = Effects.atoms_on eff (o "B") in
  check_int "B collapsed to one class" 1 (List.length b_atoms);
  check_int "with two occurrences" 2 (List.hd b_atoms).Effects.count;
  (* shape keys identify types across instance names *)
  let s' = Summary.txn "u" [ Summary.call (o "A") "m" [ Summary.call (o "B") "n" []; Summary.call (o "B") "n" [] ] ] in
  check_bool "same shape, different name" true
    (Effects.shape_key s = Effects.shape_key s');
  let s'' = Summary.txn "v" [ Summary.call (o "A") "m" [] ] in
  check_bool "different shape" false (Effects.shape_key s = Effects.shape_key s'')

(* -- exit codes and serialization --------------------------------------- *)

let test_exit_codes () =
  let err = Diagnostic.v ~code:"E" ~severity:Diagnostic.Error ~hint:"" "boom"
  and warn = Diagnostic.v ~code:"W" ~severity:Diagnostic.Warning ~hint:"" "hm"
  and inf = Diagnostic.v ~code:"I" ~severity:Diagnostic.Info ~hint:"" "fyi" in
  check_int "clean" 0 (Lint.exit_code []);
  check_int "warnings exit 0" 0 (Lint.exit_code [ warn; inf ]);
  check_int "errors exit 1" 1 (Lint.exit_code [ warn; err ]);
  check_int "strict promotes warnings" 1 (Lint.exit_code ~strict:true [ warn ]);
  check_int "strict ignores infos" 0 (Lint.exit_code ~strict:true [ inf ])

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_json () =
  let d =
    Diagnostic.v ~code:"HOT001" ~severity:Diagnostic.Warning ~obj:{|O"x|}
      ~meth:"m" ~hint:"fix\nit" "line1\tline2"
  in
  let j = Ooser_sim.Json.compact (Diagnostic.to_json d) in
  check_bool "one line" false (String.contains j '\n');
  check_bool "quotes escaped" true (contains_sub j {|O\"x|});
  check_bool "tab escaped" true (contains_sub j {|line1\tline2|});
  check_bool "newline escaped" true (contains_sub j {|fix\nit|});
  let t1 = Summary.txn "t1" [ Summary.call (o "A") "write" []; Summary.call (o "B") "write" [] ]
  and t2 = Summary.txn "t2" [ Summary.call (o "B") "write" []; Summary.call (o "A") "write" [] ] in
  let atlas = Atlas.build (target "opposite" [ ("A", rw); ("B", rw) ] [ t1; t2 ]) in
  let j = Ooser_sim.Json.compact (Atlas.to_json atlas) in
  check_bool "atlas json has unsafe verdict" true (contains_sub j {|"unsafe"|});
  check_bool "atlas json carries a witness" true (contains_sub j {|"witness"|});
  let dot = Atlas.to_dot atlas in
  check_bool "dot edges rendered" true (contains_sub dot "--")

let suites =
  [
    ( "atlas",
      agreement_tests
      @ [
          Alcotest.test_case "unsafe pair: minimal rejected witness" `Quick
            test_unsafe_witness;
          Alcotest.test_case "safe: no conflicting leaves" `Quick
            test_safe_no_conflict;
          Alcotest.test_case "safe: isolated channel" `Quick test_safe_isolated;
          Alcotest.test_case
            "commuting callers stop inheritance, leaf cycle still caught"
            `Quick test_safe_commuting_callers;
          Alcotest.test_case "unsafe: wedged writer" `Quick test_unsafe_wedge;
          Alcotest.test_case "unsafe without caller absorption" `Quick
            test_unsafe_without_absorption;
          Alcotest.test_case "unknown: state-reading spec" `Quick
            test_unknown_unstable;
          Alcotest.test_case "unknown: enumeration budget" `Quick
            test_unknown_budget;
          Alcotest.test_case "HOT001 inheritance hotspot" `Quick test_hot001;
          Alcotest.test_case "COMP001 missing compensation" `Quick test_comp001;
          Alcotest.test_case "callgraph on recursive summaries" `Quick
            test_callgraph_recursive;
          Alcotest.test_case "pair analysis through virtual objects" `Quick
            test_inherit_virtual_extension;
          Alcotest.test_case "effect summaries" `Quick test_effects;
          Alcotest.test_case "lint/analyze exit-code mapping" `Quick
            test_exit_codes;
          Alcotest.test_case "json serialization" `Quick test_json;
        ] );
  ]
