(* Tests for the write-ahead log and crash recovery. *)

open Ooser_storage

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_slot = Alcotest.(check (option string))

let test_wal_basics () =
  let w = Wal.create () in
  let l0 = Wal.append w (Wal.Begin 1) in
  let l1 = Wal.append w (Wal.Commit 1) in
  check_int "lsn sequence" (l0 + 1) l1;
  check_int "nothing stable yet" 0 (List.length (Wal.stable w));
  Wal.force w;
  check_int "stable after force" 2 (List.length (Wal.stable w));
  let l2 = Wal.append w (Wal.Begin 2) in
  ignore l2;
  let crashed = Wal.crash w in
  check_int "unforced record lost" 2 (List.length (Wal.all crashed))

let test_committed_survives_crash () =
  let s = Logged_store.create () in
  let p = Logged_store.alloc_page s in
  Logged_store.begin_txn s 1;
  Logged_store.write s ~txn:1 ~page:p ~slot:0 (Some "hello");
  Logged_store.commit s 1;
  (* pages never flushed: the data lives only in log + cache *)
  let s' = Logged_store.crash s in
  check_slot "lost before recovery" None (Logged_store.read_durable s' p 0);
  let report = Logged_store.recover s' in
  Alcotest.(check (list int)) "winner" [ 1 ] report.Logged_store.winners;
  check_slot "recovered" (Some "hello") (Logged_store.read_durable s' p 0)

let test_uncommitted_rolled_back () =
  let s = Logged_store.create () in
  let p = Logged_store.alloc_page s in
  Logged_store.begin_txn s 1;
  Logged_store.write s ~txn:1 ~page:p ~slot:0 (Some "durable");
  Logged_store.commit s 1;
  Logged_store.begin_txn s 2;
  Logged_store.write s ~txn:2 ~page:p ~slot:0 (Some "dirty");
  Logged_store.write s ~txn:2 ~page:p ~slot:1 (Some "extra");
  (* STEAL: flush the page carrying uncommitted data, then force the log
     far enough to contain T2's updates but not a commit *)
  Wal.force (Logged_store.wal s);
  Logged_store.flush_page s p;
  let s' = Logged_store.crash s in
  check_slot "dirty data hit the disk" (Some "dirty")
    (Logged_store.read_durable s' p 0);
  let report = Logged_store.recover s' in
  Alcotest.(check (list int)) "loser" [ 2 ] report.Logged_store.losers;
  check_slot "undone to committed value" (Some "durable")
    (Logged_store.read_durable s' p 0);
  check_slot "inserted slot removed" None (Logged_store.read_durable s' p 1)

let test_abort_before_crash () =
  let s = Logged_store.create () in
  let p = Logged_store.alloc_page s in
  Logged_store.begin_txn s 1;
  Logged_store.write s ~txn:1 ~page:p ~slot:0 (Some "oops");
  Logged_store.abort s 1;
  check_slot "rolled back live" None (Logged_store.read s p 0);
  Wal.force (Logged_store.wal s);
  let s' = Logged_store.crash s in
  let report = Logged_store.recover s' in
  check_int "no losers (already aborted)" 0
    (List.length report.Logged_store.losers);
  check_slot "still absent" None (Logged_store.read_durable s' p 0)

let test_recovery_idempotent () =
  let s = Logged_store.create () in
  let p = Logged_store.alloc_page s in
  Logged_store.begin_txn s 1;
  Logged_store.write s ~txn:1 ~page:p ~slot:0 (Some "v1");
  Logged_store.commit s 1;
  Logged_store.begin_txn s 2;
  Logged_store.write s ~txn:2 ~page:p ~slot:0 (Some "v2");
  Wal.force (Logged_store.wal s);
  let s' = Logged_store.crash s in
  ignore (Logged_store.recover s');
  let first = Logged_store.read_durable s' p 0 in
  ignore (Logged_store.recover s');
  check_slot "second recovery is a no-op" first (Logged_store.read_durable s' p 0);
  check_slot "committed value" (Some "v1") first

let test_multi_txn_interleaved () =
  let s = Logged_store.create () in
  let p = Logged_store.alloc_page s in
  let q = Logged_store.alloc_page s in
  Logged_store.begin_txn s 1;
  Logged_store.begin_txn s 2;
  Logged_store.write s ~txn:1 ~page:p ~slot:0 (Some "a1");
  Logged_store.write s ~txn:2 ~page:q ~slot:0 (Some "b1");
  Logged_store.write s ~txn:1 ~page:q ~slot:1 (Some "a2");
  Logged_store.commit s 1;
  Logged_store.write s ~txn:2 ~page:p ~slot:1 (Some "b2");
  (* T2 never commits; crash with partial flushes *)
  Logged_store.flush_page s q;
  let s' = Logged_store.crash s in
  let report = Logged_store.recover s' in
  Alcotest.(check (list int)) "winners" [ 1 ] report.Logged_store.winners;
  Alcotest.(check (list int)) "losers" [ 2 ] report.Logged_store.losers;
  check_slot "T1 on p" (Some "a1") (Logged_store.read_durable s' p 0);
  check_slot "T1 on q" (Some "a2") (Logged_store.read_durable s' q 1);
  check_slot "T2 on q gone" None (Logged_store.read_durable s' q 0);
  check_slot "T2 on p gone" None (Logged_store.read_durable s' p 1)

(* Property: for a random batch of single-slot transactions with a random
   crash point, recovery leaves exactly the committed values. *)
let prop_recovery_atomic =
  let open QCheck2 in
  let gen =
    Gen.(
      pair (int_range 1 8) (* transactions *) (int_range 0 100 (* crash seed *)))
  in
  QCheck2.Test.make ~name:"recovery keeps exactly the committed effects"
    ~count:100 gen (fun (n, seed) ->
      let s = Logged_store.create () in
      let p = Logged_store.alloc_page s in
      let rng = Ooser_sim.Rng.create ~seed:(seed + 1) in
      let committed = ref [] in
      for txn = 1 to n do
        Logged_store.begin_txn s txn;
        Logged_store.write s ~txn ~page:p ~slot:txn
          (Some (Printf.sprintf "t%d" txn));
        if Ooser_sim.Rng.bool rng then begin
          Logged_store.commit s txn;
          committed := txn :: !committed
        end
        else if Ooser_sim.Rng.bool rng then Logged_store.abort s txn
        (* else: left in flight *)
      done;
      if Ooser_sim.Rng.bool rng then Logged_store.flush_all s;
      let s' = Logged_store.crash s in
      ignore (Logged_store.recover s');
      List.for_all
        (fun txn ->
          let expected =
            if List.mem txn !committed then Some (Printf.sprintf "t%d" txn)
            else None
          in
          Logged_store.read_durable s' p txn = expected)
        (List.init n (fun i -> i + 1)))

let test_checkpoint_bounds_redo () =
  let s = Logged_store.create () in
  let p = Logged_store.alloc_page s in
  (* a committed prefix, then a quiescent checkpoint *)
  Logged_store.begin_txn s 1;
  Logged_store.write s ~txn:1 ~page:p ~slot:0 (Some "old");
  Logged_store.commit s 1;
  ignore (Logged_store.checkpoint s);
  check_bool "log truncated" true (List.length (Wal.all (Logged_store.wal s)) <= 1);
  (* post-checkpoint work *)
  Logged_store.begin_txn s 2;
  Logged_store.write s ~txn:2 ~page:p ~slot:1 (Some "new");
  Logged_store.commit s 2;
  let s' = Logged_store.crash s in
  let report = Logged_store.recover s' in
  check_bool "few redo records" true (report.Logged_store.redone <= 1);
  check_slot "pre-checkpoint data durable" (Some "old")
    (Logged_store.read_durable s' p 0);
  check_slot "post-checkpoint commit recovered" (Some "new")
    (Logged_store.read_durable s' p 1)

let test_checkpoint_active_loser_undone () =
  (* a transaction straddles the checkpoint: its pre-checkpoint update is
     on disk (flushed at checkpoint) and must STILL be undone because it
     never committed *)
  let s = Logged_store.create () in
  let p = Logged_store.alloc_page s in
  Logged_store.begin_txn s 1;
  Logged_store.write s ~txn:1 ~page:p ~slot:0 (Some "uncommitted");
  ignore (Logged_store.checkpoint s);
  check_bool "log NOT truncated (active txn)" true
    (List.length (Wal.all (Logged_store.wal s)) > 1);
  Logged_store.write s ~txn:1 ~page:p ~slot:1 (Some "more");
  Wal.force (Logged_store.wal s);
  let s' = Logged_store.crash s in
  check_slot "flushed dirty data visible pre-recovery" (Some "uncommitted")
    (Logged_store.read_durable s' p 0);
  let report = Logged_store.recover s' in
  Alcotest.(check (list int)) "loser found via checkpoint" [ 1 ]
    report.Logged_store.losers;
  check_slot "pre-checkpoint update undone" None
    (Logged_store.read_durable s' p 0);
  check_slot "post-checkpoint update undone" None
    (Logged_store.read_durable s' p 1)

(* A crash in the middle of recovery's own undo pass.  Every undo writes
   a forced CLR before its page write, so the second recovery starts its
   undo below the floor left by the first: across both runs each of the
   loser's updates is compensated exactly once, and the durable state
   still ends with exactly the committed effects. *)
let test_clr_double_crash () =
  let exception Power_cut in
  let s = Logged_store.create () in
  let p = Logged_store.alloc_page s in
  Logged_store.begin_txn s 1;
  Logged_store.write s ~txn:1 ~page:p ~slot:0 (Some "committed");
  Logged_store.commit s 1;
  Logged_store.begin_txn s 2;
  for slot = 1 to 4 do
    Logged_store.write s ~txn:2 ~page:p ~slot (Some (Printf.sprintf "dirty%d" slot))
  done;
  (* steal the dirty page, keep T2's updates stable but uncommitted *)
  Wal.force (Logged_store.wal s);
  Logged_store.flush_all s;
  let s1 = Logged_store.crash s in
  let undone1 = ref [] in
  (match
     Logged_store.recover s1 ~on_undo:(fun lsn ->
         undone1 := lsn :: !undone1;
         if List.length !undone1 = 2 then raise Power_cut)
   with
  | _ -> Alcotest.fail "expected a crash mid-undo"
  | exception Power_cut -> ());
  check_int "first recovery died after 2 compensations" 2
    (List.length !undone1);
  (* crash again: only forced records survive — which includes the CLRs *)
  let s2 = Logged_store.crash s1 in
  let undone2 = ref [] in
  let report =
    Logged_store.recover s2 ~on_undo:(fun lsn -> undone2 := lsn :: !undone2)
  in
  Alcotest.(check (list int)) "loser still found" [ 2 ]
    report.Logged_store.losers;
  let both = !undone1 @ !undone2 in
  check_int "every update compensated across the two runs" 4
    (List.length both);
  check_bool "no update compensated twice" true
    (List.length (List.sort_uniq Int.compare both) = 4);
  check_slot "committed value intact" (Some "committed")
    (Logged_store.read_durable s2 p 0);
  for slot = 1 to 4 do
    check_slot
      (Printf.sprintf "dirty slot %d gone" slot)
      None
      (Logged_store.read_durable s2 p slot)
  done;
  (* a third recovery is a clean no-op *)
  let r3 = Logged_store.recover s2 in
  check_int "third recovery undoes nothing" 0 r3.Logged_store.undone

(* Live abort leaves CLRs; a crash right after must not re-undo. *)
let test_abort_clrs_bound_undo () =
  let s = Logged_store.create () in
  let p = Logged_store.alloc_page s in
  Logged_store.begin_txn s 1;
  Logged_store.write s ~txn:1 ~page:p ~slot:0 (Some "temp");
  Logged_store.abort s 1;
  Wal.force (Logged_store.wal s);
  let s' = Logged_store.crash s in
  let undone = ref 0 in
  let report = Logged_store.recover s' ~on_undo:(fun _ -> incr undone) in
  check_int "aborted txn is not a loser" 0
    (List.length report.Logged_store.losers);
  check_int "nothing re-undone" 0 !undone;
  check_slot "abort's effect durable" None (Logged_store.read_durable s' p 0)

let suites =
  [
    ( "recovery",
      [
        Alcotest.test_case "wal basics" `Quick test_wal_basics;
        Alcotest.test_case "committed survives crash (no-force)" `Quick
          test_committed_survives_crash;
        Alcotest.test_case "uncommitted rolled back (steal)" `Quick
          test_uncommitted_rolled_back;
        Alcotest.test_case "abort before crash" `Quick test_abort_before_crash;
        Alcotest.test_case "recovery idempotent" `Quick test_recovery_idempotent;
        Alcotest.test_case "interleaved transactions" `Quick
          test_multi_txn_interleaved;
        Alcotest.test_case "checkpoint bounds redo + truncates" `Quick
          test_checkpoint_bounds_redo;
        Alcotest.test_case "checkpoint-straddling loser undone" `Quick
          test_checkpoint_active_loser_undone;
        Alcotest.test_case "CLRs make double crash recoverable" `Quick
          test_clr_double_crash;
        Alcotest.test_case "abort CLRs bound recovery undo" `Quick
          test_abort_clrs_bound_undo;
        QCheck_alcotest.to_alcotest prop_recovery_atomic;
      ] );
  ]
