(* Bechamel micro-benchmarks: the cost of the core machinery itself — one
   Test.make per subsystem (checker, extension, B+ tree, engine, lock
   table, random schedules).  Estimated execution time is printed as a
   table (ns/run via ordinary least squares on the monotonic clock). *)

open Bechamel
open Toolkit
open Ooser_core
open Ooser_oodb
open Ooser_workload
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng
module Btree = Ooser_btree.Btree
open Ooser_storage

let checker_test =
  let h = Paper_examples.example4_serial () in
  Test.make ~name:"checker/example4"
    (Staged.stage (fun () -> ignore (Serializability.check h)))

let extension_test =
  let h = Paper_examples.example3_history () in
  Test.make ~name:"extension/virtual-objects"
    (Staged.stage (fun () -> ignore (Extension.extend h)))

let conventional_test =
  let h = Paper_examples.example4_serial () in
  Test.make ~name:"checker/conventional"
    (Staged.stage (fun () -> ignore (Baselines.conventional_serializable h)))

let random_history_test =
  let p = Random_schedules.default_params in
  let counter = ref 0 in
  Test.make ~name:"workload/random-history"
    (Staged.stage (fun () ->
         incr counter;
         ignore (Random_schedules.history ~seed:!counter p)))

let btree_insert_test =
  Test.make ~name:"btree/100-inserts"
    (Staged.stage (fun () ->
         let disk = Disk.create ~page_size:4096 () in
         let pool = Buffer_pool.create ~capacity:64 disk in
         let t = Btree.create ~max_entries:8 pool in
         for i = 1 to 100 do
           Btree.insert t (Printf.sprintf "k%03d" (i * 7 mod 100)) "v"
         done))

let btree_search_test =
  let disk = Disk.create ~page_size:4096 () in
  let pool = Buffer_pool.create ~capacity:64 disk in
  let t = Btree.create ~max_entries:8 pool in
  let () =
    for i = 1 to 500 do
      Btree.insert t (Printf.sprintf "k%03d" i) "v"
    done
  in
  let counter = ref 0 in
  Test.make ~name:"btree/search"
    (Staged.stage (fun () ->
         incr counter;
         ignore (Btree.search t (Printf.sprintf "k%03d" (!counter mod 500)))))

let engine_test =
  Test.make ~name:"engine/2-txns-open-nested"
    (Staged.stage (fun () ->
         let db = Database.create () in
         let state = ref 0 in
         let write ctx args =
           match args with
           | [ Value.Int v ] ->
               let old = !state in
               Runtime.on_undo ctx (fun () -> state := old);
               state := v;
               Value.unit
           | _ -> invalid_arg "write"
         in
         Database.register db (Obj_id.v "R")
           ~spec:(Commutativity.rw ~reads:[] ~writes:[ "write" ])
           [ ("write", Database.primitive write) ];
         let body i ctx =
           ignore (Runtime.call ctx (Obj_id.v "R") "write" [ Value.int i ]);
           Value.unit
         in
         let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
         ignore (Engine.run db ~protocol [ (1, "a", body 1); (2, "b", body 2) ])))

let page_test =
  Test.make ~name:"storage/page-insert-delete"
    (Staged.stage (fun () ->
         let p = Page.create ~size:512 () in
         let s0 = Option.get (Page.insert p "hello world") in
         ignore (Page.delete p s0)))

let explain_test =
  let h = Paper_examples.example1_same_key () in
  Test.make ~name:"report/explain"
    (Staged.stage (fun () -> ignore (Report.explain h)))

(* One memoised commutativity decision — the per-request cost the
   one-probe class skip pays at every lock request. *)
let commut_probe_test =
  let mk top obj meth =
    Action.v
      ~id:(Ids.Action_id.v ~top ~path:[ 1 ])
      ~obj ~meth ~args:[ Value.int 0 ]
      ~process:(Ids.Process_id.main top)
      ()
  in
  let pairs =
    List.concat_map
      (fun name ->
        let obj = Obj_id.v name in
        [
          (mk 1 obj "read", mk 2 obj "write");
          (mk 1 obj "write", mk 2 obj "write");
          (mk 1 obj "read", mk 2 obj "read");
        ])
      [ "HOT"; "W1"; "W2"; "W3" ]
  in
  let test name cache =
    (* warm outside the staged thunk so steady-state lookups are timed *)
    List.iter (fun (a, b) -> ignore (Commutativity.cached_test cache a b)) pairs;
    Test.make ~name
      (Staged.stage (fun () ->
           List.iter
             (fun (a, b) -> ignore (Commutativity.cached_test cache a b))
             pairs))
  in
  test "commutativity/12-probe-lookups"
    (Commutativity.cached Cert_bench.registry)

(* The same decision on set/directory probes answered by the hand specs
   of the adts target (keyed predicate dispatch). *)
let hand_probe_test =
  let mk top obj meth args =
    Action.v
      ~id:(Ids.Action_id.v ~top ~path:[ 1 ])
      ~obj:(Obj_id.v obj) ~meth ~args
      ~process:(Ids.Process_id.main top)
      ()
  in
  let a = Value.str "a" and b = Value.str "b" in
  let pairs =
    [
      (mk 1 "set" "insert" [ a ], mk 2 "set" "insert" [ b ]);
      (mk 1 "set" "contains" [ a ], mk 2 "set" "cardinal" []);
      (mk 1 "set" "insert" [ a ], mk 2 "set" "cardinal" []);
      (mk 1 "dir" "lookup" [ a ], mk 2 "dir" "lookup" [ b ]);
      (mk 1 "dir" "list" [], mk 2 "dir" "bind" [ a; Value.int 1 ]);
      (mk 1 "dir" "list" [], mk 2 "dir" "lookup" [ a ]);
    ]
  in
  let test name cache =
    List.iter (fun (p, q) -> ignore (Commutativity.cached_test cache p q)) pairs;
    Test.make ~name
      (Staged.stage (fun () ->
           List.iter
             (fun (p, q) -> ignore (Commutativity.cached_test cache p q))
             pairs))
  in
  test "commutativity/6-hand-spec-probes"
    (Commutativity.cached (Lint_targets.adts ()).Ooser_analysis.Lint.registry)

let tests =
  Test.make_grouped ~name:"ooser"
    [
      checker_test; extension_test; conventional_test; random_history_test;
      btree_insert_test; btree_search_test; engine_test; page_test;
      explain_test; commut_probe_test; hand_probe_test;
    ]

let run ?(quota = 0.5) () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> Printf.sprintf "%.0f" x
          | _ -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        [ name; ns; r2 ] :: acc)
      results []
    |> List.sort compare
  in
  Tables.print ~title:"micro-benchmarks (bechamel, ns/run)"
    ~header:[ "benchmark"; "ns/run"; "r²" ]
    rows
