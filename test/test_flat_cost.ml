(* Per-commit cost must not grow with history length.  A commit hands
   validation, certification and the trace sink only its own attempt's
   primitives, and a lock probe only meets the classes held now, so the
   work one transaction does is the same at the 3,000th commit as at the
   first.  Time is too noisy to assert on, so the tests count instead:
   minor-heap words allocated per commit, and on the encyclopedia the
   lock classes each Enc probe visits.  Over the last 500 commits both
   must stay within 1.5x of the first 500. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Lock_table = Ooser_cc.Lock_table
module Store = Ooser_occ.Store
module Workloads = Ooser_occ.Workloads
module Enc_workload = Ooser_workload.Enc_workload
module Rng = Ooser_sim.Rng

let commits = 3000
let window = 500

(* Run [commits] transactions one after another, each submitted, pumped
   to its commit and retired; every meter is a cumulative count, read
   after each commit, whose growth per commit must not rise between the
   first and the last [window] commits. *)
let check_flat name eng ~meters body =
  let marks = List.map (fun (_, read) -> (read, Array.make (commits + 1) 0.)) meters in
  List.iter (fun (read, a) -> a.(0) <- read ()) marks;
  for top = 1 to commits do
    Engine.submit eng ~top ~name (body top);
    ignore (Engine.pump eng);
    (match Engine.txn_state eng top with
    | `Committed _ -> ()
    | _ -> Alcotest.failf "%s: transaction %d did not commit" name top);
    ignore (Engine.retire eng ~top);
    List.iter (fun (read, a) -> a.(top) <- read ()) marks
  done;
  List.iter2
    (fun (what, _) (_, a) ->
      let per lo hi = (a.(hi) -. a.(lo)) /. float_of_int (hi - lo) in
      let first = per 0 window and last = per (commits - window) commits in
      if last > 1.5 *. first then
        Alcotest.failf "%s: %.1f %s per commit over the last %d commits, %.1f over the first"
          name last what window first)
    meters marks

let test_occ_banking () =
  let accounts = 8 in
  let db, store =
    Workloads.setup_banking ~mode:Store.Commute ~accounts ~balance:500_000 ()
  in
  let eng = Engine.create db ~protocol:(Store.protocol store) [] in
  let rng = Rng.create ~seed:11 in
  check_flat "occ banking" eng
    ~meters:[ ("minor words", Gc.minor_words) ]
    (fun _ ctx ->
      for _ = 1 to 4 do
        let meth = if Rng.bool rng then "deposit" else "withdraw" in
        ignore
          (Runtime.call ctx
             (Workloads.account_obj (Rng.int rng accounts))
             meth
             [ Value.int (1 + Rng.int rng 5) ])
      done;
      Value.unit)

let test_open_encyclopedia () =
  let rng = Rng.create ~seed:12 in
  let params =
    { Enc_workload.default_params with Enc_workload.n_txns = 0; preload = 1000 }
  in
  (* a wide fanout keeps the B-tree's depth, and with it the page work
     per call, nearly constant while 3,000 keys are added *)
  let db, enc, _ = Enc_workload.setup ~fanout:16 ~rng params in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let table = Option.get (Protocol.table protocol) in
  let eng = Engine.create db ~protocol [] in
  (* the trace recorder is on the commit path of a traced server *)
  Engine.set_trace_sink eng (Some (fun ~top:_ ~tree:_ ~prims:_ -> ()));
  let obj = Encyclopedia.enc_object enc in
  let probed = ref 0 in
  let call ctx meth args =
    probed := !probed + Lock_table.classes table obj;
    ignore (Runtime.call ctx obj meth args)
  in
  let key () = Enc_workload.key_of (Rng.int rng 1000) in
  check_flat "open encyclopedia" eng
    ~meters:
      [
        ("minor words", Gc.minor_words);
        ("lock classes probed on Enc", fun () -> float_of_int !probed);
      ]
    (fun top ctx ->
      (* every transaction inserts a fresh key: a lock class on Enc that
         no later transaction asks for again *)
      call ctx "insert"
        [ Value.str (Printf.sprintf "%s.%d" (key ()) top); Value.str "fresh" ];
      call ctx "search" [ Value.str (key ()) ];
      call ctx "update" [ Value.str (key ()); Value.str "updated" ];
      Value.unit)

let suites =
  [
    ( "flat-cost",
      [
        Alcotest.test_case "occ banking: words per commit stay flat" `Quick
          test_occ_banking;
        Alcotest.test_case "open encyclopedia: words and probes stay flat"
          `Quick test_open_encyclopedia;
      ] );
  ]
