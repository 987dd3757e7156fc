(* The crash-injection harness for the durable engine.

   A journaled encyclopedia run is killed at every log site
   (before-append / after-append-unforced / after-force, and mid-undo
   during recovery itself); the stable log image is then recovered into
   a fresh database and the harness asserts the contract:

     - the recovered durable state equals the effects of exactly the
       stably-committed tops (oracle: the same transaction scripts run
       serially, in commit order, on a fresh database);
     - the rebuilt lock table is empty of loser entries (quiescent);
     - the recovered history re-certifies oo-serializable.

   The qcheck property generalises the matrix: crash after EVERY log
   prefix of a random run, 100 seeds. *)

open Ooser_core
open Ooser_oodb
open Ooser_workload
module Protocol = Ooser_cc.Protocol
module Lock_table = Ooser_cc.Lock_table
module Rng = Ooser_sim.Rng
module Oplog = Ooser_recovery.Oplog
module Snapshot = Ooser_recovery.Snapshot
module Recovery = Ooser_recovery.Recovery
module Crash = Ooser_recovery.Crash

let check_bool = Alcotest.(check bool)

(* Small but non-trivial: inserts, updates and scans over a preloaded
   encyclopedia. *)
let params =
  {
    Enc_workload.default_params with
    Enc_workload.n_txns = 3;
    ops_per_txn = 2;
    preload = 6;
  }

let setup ~seed p = Enc_workload.setup ~rng:(Rng.create ~seed) p

(* Deterministic key universe the state comparison scans: the preloaded
   keys plus everything the scripts could have inserted. *)
let key_universe p =
  List.init
    (p.Enc_workload.preload + (4 * p.Enc_workload.n_txns * p.Enc_workload.ops_per_txn))
    Enc_workload.key_of

(* Durable state, observed through the object methods themselves: every
   key's text plus the sequential read of the linked list.  The list is
   compared as a multiset: appends of distinct items commute by
   specification (Fig. 8 — no dependency between inserts), so their
   physical order is not semantic state and legitimately differs between
   equivalent executions. *)
let state_of db enc keys =
  let result = ref [] in
  let seq = ref [] in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let body ctx =
    result := List.map (fun k -> (k, Encyclopedia.search enc ctx ~key:k)) keys;
    seq := List.sort String.compare (Encyclopedia.read_seq enc ctx);
    Value.unit
  in
  let out = Engine.run db ~protocol [ (99001, "read-state", body) ] in
  check_bool "state reader committed" true (out.Engine.committed = [ 99001 ]);
  (!result, !seq)

(* The oracle: the stably-committed tops' scripts, run serially in
   commit order on a fresh database (same seed => same preload and same
   scripts). *)
let serial_state ~seed p winner_tops =
  let db, enc, txns = setup ~seed p in
  List.iter
    (fun top ->
      match List.find_opt (fun (t, _, _) -> t = top) txns with
      | Some (t, name, body) ->
          let protocol =
            Protocol.open_nested ~reg:(Database.spec_registry db) ()
          in
          let out = Engine.run db ~protocol [ (t, name, body) ] in
          check_bool
            (Printf.sprintf "oracle txn %d committed" t)
            true
            (out.Engine.committed = [ t ])
      | None -> Alcotest.failf "oracle: unknown top %d" top)
    winner_tops;
  state_of db enc (key_universe p)

(* Winners of a log prefix: tops with a stable COMMIT, in commit order
   (a top commits at most once — retries reuse the top id). *)
let winners_of records =
  List.filter_map
    (function Oplog.Commit { top; _ } -> Some top | _ -> None)
    records

(* A journaled run of the workload under the open-nested protocol.
   Returns the journal (which, with an armed injector, holds everything
   appended up to the crash point). *)
let journaled_run ~seed ?injector p =
  let db, _enc, txns = setup ~seed p in
  let journal = Oplog.create () in
  Oplog.set_injector journal injector;
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:(seed * 7));
    }
  in
  match Engine.run ~config ~journal db ~protocol txns with
  | _ -> (`Completed, journal)
  | exception Crash.Crashed site -> (`Crashed site, journal)

(* Recover a stable record list into a fresh database and check the full
   contract.  Returns the recovered engine's protocol for extra
   asserts. *)
let recover_and_check ~label ~seed ?snapshot ?crash p records =
  let db, enc, _ = setup ~seed p in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let eng, report =
    Engine.recover ?snapshot ?crash db ~protocol (Oplog.of_records records)
  in
  check_bool (label ^ ": no replay failures") true (report.Engine.replay_failures = 0);
  check_bool (label ^ ": recovered history re-certifies") true
    report.Engine.recertified;
  (* the rebuilt lock table holds no loser (or any other) entries *)
  check_bool (label ^ ": lock table quiescent") true (Protocol.quiescent protocol);
  (match Protocol.table protocol with
  | Some lt ->
      List.iter
        (fun (top, _) ->
          check_bool
            (Printf.sprintf "%s: no loser entries for T%d" label top)
            true
            (Lock_table.live_for_top lt top = []))
        report.Engine.undone
  | None -> ());
  let got = state_of db enc (key_universe p) in
  let expected = serial_state ~seed p (winners_of records) in
  check_bool (label ^ ": state = committed-prefix effects") true (got = expected);
  (eng, report)

(* -- basic round trip --------------------------------------------------------- *)

let test_round_trip () =
  let seed = 11 in
  let status, journal = journaled_run ~seed params in
  check_bool "run completed" true (status = `Completed);
  let records = Oplog.stable journal in
  check_bool "commits forced" true (List.length records > 0);
  let _, report = recover_and_check ~label:"round-trip" ~seed params records in
  check_bool "all winners recovered" true
    (List.length report.Engine.rec_winners = List.length (winners_of records))

(* Snapshot + (top, attempt) dedup: recovering a log whose winners are
   already covered by a snapshot replays the snapshot entries and skips
   every logged winner — and lands in the same state. *)
let test_recover_idempotent () =
  let seed = 12 in
  let _, journal = journaled_run ~seed params in
  let records = Oplog.stable journal in
  let plan = Recovery.analyze records in
  let snap = Recovery.snapshot_of plan in
  check_bool "snapshot covers the winners" true
    (Snapshot.keys snap = plan.Recovery.winners);
  let db, enc, _ = setup ~seed params in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let _, report =
    Engine.recover ~snapshot:snap db ~protocol (Oplog.of_records records)
  in
  check_bool "all logged winners deduped" true
    (report.Engine.skipped_attempts = List.length plan.Recovery.winners);
  check_bool "dedup recertifies" true report.Engine.recertified;
  let got = state_of db enc (key_universe params) in
  let expected = serial_state ~seed params (winners_of records) in
  check_bool "dedup state = committed effects" true (got = expected)

(* -- the crash-injection matrix ----------------------------------------------

   Kill the process model at every before-append / after-append /
   after-force site of a fixed run, recover each stable image into a
   fresh database, and require the full contract every time. *)

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let test_injection_matrix () =
  let seed = 42 in
  let status, clean = journaled_run ~seed params in
  check_bool "clean run completes" true (status = `Completed);
  let n_appends = Oplog.appends clean in
  let n_forces = Oplog.forces clean in
  check_bool "log sites exist" true (n_appends > 6 && n_forces >= 1);
  let cases =
    List.concat_map
      (fun site ->
        let hits =
          match site with Crash.After_force -> n_forces | _ -> n_appends
        in
        List.init hits (fun after -> (site, after)))
      [ Crash.Before_append; Crash.After_append; Crash.After_force ]
  in
  List.iter
    (fun (site, after) ->
      let injector = Crash.arm site ~after in
      let status, journal = journaled_run ~seed ~injector params in
      check_bool
        (Printf.sprintf "%s/%d crashed" (Crash.site_name site) after)
        true
        (status = `Crashed site);
      let image = Oplog.crash journal in
      let label =
        Printf.sprintf "matrix %s/%d" (Crash.site_name site) after
      in
      ignore (recover_and_check ~label ~seed params (Oplog.stable image)))
    cases

(* A crash during recovery's own undo pass: the durable log is untouched
   (recovery writes nothing until it completes), so recovering again
   from the same image must satisfy the same contract. *)
let test_mid_undo_double_crash () =
  let seed = 42 in
  (* crash the run early enough that some transaction is still in
     flight: its logged calls make it a loser with compensations to
     run *)
  let rec find_loser after =
    if after > 64 then Alcotest.fail "no crash image with losers found"
    else begin
      let injector = Crash.arm Crash.After_append ~after in
      let status, journal = journaled_run ~seed ~injector params in
      if status <> `Crashed Crash.After_append then find_loser (after + 1)
      else begin
        let records = Oplog.stable (Oplog.crash journal) in
        let plan = Recovery.analyze records in
        if plan.Recovery.losers = [] then find_loser (after + 1)
        else records
      end
    end
  in
  let records = find_loser 6 in
  (* first recovery dies mid-undo *)
  let db1, _, _ = setup ~seed params in
  let protocol1 = Protocol.open_nested ~reg:(Database.spec_registry db1) () in
  (match
     Engine.recover ~crash:(Crash.arm Crash.Mid_undo ~after:0) db1
       ~protocol:protocol1 (Oplog.of_records records)
   with
  | _ -> Alcotest.fail "mid-undo injector did not fire"
  | exception Crash.Crashed site ->
      check_bool "crashed mid-undo" true (site = Crash.Mid_undo));
  (* the second recovery, over the same stable records, must restore the
     committed-prefix effects in full *)
  ignore (recover_and_check ~label:"double-crash" ~seed params records)

(* -- a stably-aborted attempt ---------------------------------------------------

   T1 increments a counter, a composite subtransaction that commits and
   releases the register's locks, and then aborts, so the compensation
   the increment registered (decr) runs.  T2 increments and commits.
   Once the log is forced T1's ABORT is stable: recovery must replay
   T1's call and re-abort it at its original decision point, running
   the compensation exactly once.  Twice would leave the register below
   the winners' serial state; never would leave it above. *)

let counter_db () =
  let db = Database.create () in
  let cell = ref 0 and decrs = ref 0 in
  let read _ _ = Value.int !cell in
  let write ctx = function
    | [ Value.Int v ] ->
        let old = !cell in
        Runtime.on_undo ctx (fun () -> cell := old);
        cell := v;
        Value.unit
    | _ -> invalid_arg "write"
  in
  Database.register db (Obj_id.v "R")
    ~spec:(Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ])
    [ ("read", Database.primitive read); ("write", Database.primitive write) ];
  let add d ctx _ =
    let v = Value.to_int_exn (Runtime.call ctx (Obj_id.v "R") "read" []) in
    ignore (Runtime.call ctx (Obj_id.v "R") "write" [ Value.int (v + d) ]);
    Value.unit
  in
  let decr ctx args =
    incr decrs;
    add (-1) ctx args
  in
  let compensate _ _ =
    Database.Inverse
      { Runtime.target = Obj_id.v "C"; meth_name = "decr"; args = [] }
  in
  Database.register db (Obj_id.v "C")
    ~spec:(Commutativity.of_commute_matrix ~name:"counter" [ ("incr", "incr") ])
    [
      ("incr", Database.composite ~compensate (add 1));
      ("decr", Database.composite decr);
    ];
  (db, cell, decrs)

let counter_txns =
  let incr_c ctx = ignore (Runtime.call ctx (Obj_id.v "C") "incr" []) in
  [
    (1, "aborts", fun ctx -> incr_c ctx; Runtime.abort "after subcommit");
    (2, "commits", fun ctx -> incr_c ctx; Value.unit);
  ]

let test_stable_abort () =
  let db, cell, decrs = counter_db () in
  let journal = Oplog.create () in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let out = Engine.run ~journal db ~protocol counter_txns in
  check_bool "T2 committed" true (out.Engine.committed = [ 2 ]);
  check_bool "T1 aborted" true (List.map fst out.Engine.aborted = [ 1 ]);
  check_bool "live abort compensated once" true (!cell = 1 && !decrs = 1);
  Oplog.force journal;
  let records = Oplog.stable (Oplog.crash journal) in
  let db, cell, decrs = counter_db () in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let _, report = Engine.recover db ~protocol (Oplog.of_records records) in
  check_bool "plan.aborted holds T1" true
    (List.mem (1, 0) report.Engine.plan.Recovery.aborted);
  check_bool "T1 is no loser" true (report.Engine.undone = []);
  check_bool "no replay failures" true (report.Engine.replay_failures = 0);
  check_bool "lock table quiescent" true (Protocol.quiescent protocol);
  check_bool "recovered history re-certifies" true report.Engine.recertified;
  check_bool "compensation ran once in recovery" true (!decrs = 1);
  (* the serial oracle: each winner alone, in commit order *)
  let odb, ocell, _ = counter_db () in
  List.iter
    (fun top ->
      let txn = List.find (fun (t, _, _) -> t = top) counter_txns in
      let protocol = Protocol.open_nested ~reg:(Database.spec_registry odb) () in
      let oout = Engine.run odb ~protocol [ txn ] in
      check_bool "oracle txn committed" true (oout.Engine.committed = [ top ]))
    (winners_of records);
  check_bool "state = winners' serial state" true (!cell = !ocell)

(* -- qcheck: crash after every log prefix, 100 seeds --------------------------

   For a random encyclopedia run, cut the operation log after EVERY
   record (subsuming every crash image any site can produce) and
   recover: the durable state must equal the effects of exactly the
   tops with a COMMIT in the prefix, the lock table must be quiescent,
   and the recovered history must re-certify.  The oracle state is
   maintained incrementally — the winner set of a growing prefix only
   ever grows. *)

let prefix_params =
  {
    Enc_workload.default_params with
    Enc_workload.n_txns = 3;
    ops_per_txn = 2;
    preload = 5;
  }

let prefix_property seed =
  let p = prefix_params in
  let _, journal = journaled_run ~seed p in
  let records = Oplog.all journal in
  let keys = key_universe p in
  (* incremental serial oracle *)
  let odb, oenc, otxns = setup ~seed p in
  let applied = ref [] in
  let oracle = ref (state_of odb oenc keys) in
  let apply_winner top =
    match List.find_opt (fun (t, _, _) -> t = top) otxns with
    | Some (t, name, body) ->
        let protocol =
          Protocol.open_nested ~reg:(Database.spec_registry odb) ()
        in
        let out = Engine.run odb ~protocol [ (t, name, body) ] in
        if out.Engine.committed <> [ t ] then
          Alcotest.failf "oracle txn %d did not commit" t;
        oracle := state_of odb oenc keys
    | None -> Alcotest.failf "oracle: unknown top %d" top
  in
  let ok = ref true in
  for k = 0 to List.length records do
    let prefix = take k records in
    List.iter
      (fun t ->
        if not (List.mem t !applied) then begin
          applied := !applied @ [ t ];
          apply_winner t
        end)
      (winners_of prefix);
    let db, enc, _ = setup ~seed p in
    let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
    let _, report = Engine.recover db ~protocol (Oplog.of_records prefix) in
    if
      (not report.Engine.recertified)
      || report.Engine.replay_failures > 0
      || not (Protocol.quiescent protocol)
      || state_of db enc keys <> !oracle
    then begin
      Fmt.epr "prefix property failed: seed=%d k=%d@." seed k;
      ok := false
    end
  done;
  !ok

let prefix_qcheck =
  QCheck2.Test.make ~count:100 ~name:"crash after every log prefix"
    QCheck2.Gen.(int_range 1 10_000)
    prefix_property

(* A crash mid-append leaves a torn final frame on disk; both durable
   logs must load the stable prefix and drop the tail. *)

let truncate_tail path bytes =
  let whole = In_channel.with_open_bin path In_channel.input_all in
  let keep = String.sub whole 0 (String.length whole - bytes) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc keep)

let test_oplog_torn_tail () =
  let dir = Filename.temp_file "ooser_oplog" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let j = Oplog.open_dir ~dir in
  ignore (Oplog.append j (Oplog.Begin { top = 1; attempt = 0; name = "a" }));
  ignore (Oplog.append j (Oplog.Commit { top = 1; attempt = 0 }));
  ignore (Oplog.append j (Oplog.Begin { top = 2; attempt = 0; name = "b" }));
  Oplog.force j;
  Oplog.close j;
  truncate_tail (Oplog.log_file ~dir) 3;
  let records = Oplog.load ~dir in
  check_bool "torn oplog tail dropped" true
    (records
    = [
        Oplog.Begin { top = 1; attempt = 0; name = "a" };
        Oplog.Commit { top = 1; attempt = 0 };
      ])

let test_decision_log_torn_tail () =
  let module Decision_log = Ooser_recovery.Decision_log in
  let dir = Filename.temp_file "ooser_dlog" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let d = Decision_log.open_dir ~dir in
  Decision_log.append d
    { Decision_log.top = 7; commit = true; participants = [ 0; 1 ] };
  Decision_log.append d
    { Decision_log.top = 8; commit = false; participants = [ 1 ] };
  Decision_log.force d;
  Decision_log.close d;
  truncate_tail (Decision_log.log_file ~dir) 2;
  let ds = Decision_log.load ~dir in
  check_bool "torn decision tail dropped" true
    (ds = [ { Decision_log.top = 7; commit = true; participants = [ 0; 1 ] } ])

let suites =
  [
    ( "crash",
      [
        Alcotest.test_case "journal round trip" `Quick test_round_trip;
        Alcotest.test_case "snapshot dedup idempotent" `Quick
          test_recover_idempotent;
        Alcotest.test_case "crash-injection matrix" `Quick
          test_injection_matrix;
        Alcotest.test_case "mid-undo double crash" `Quick
          test_mid_undo_double_crash;
        Alcotest.test_case "stably-aborted attempt" `Quick test_stable_abort;
        Alcotest.test_case "oplog torn tail" `Quick test_oplog_torn_tail;
        Alcotest.test_case "decision log torn tail" `Quick
          test_decision_log_torn_tail;
        QCheck_alcotest.to_alcotest prefix_qcheck;
      ] );
  ]
