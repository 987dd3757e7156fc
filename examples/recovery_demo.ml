(* Crash recovery from the logical operation log (DESIGN §15):

     dune exec examples/recovery_demo.exe

   T1 inserts "alice" and commits.  T2 inserts "mallory" and is still in
   flight at the crash, but its insert is a subtransaction that committed
   and released its B-tree and page locks, so no page before-image can
   soundly undo it.  Recovery replays every logged call through real
   dispatch, undoes T2 by running the compensation its insert registered
   (a delete) and re-certifies the history.  Exits 1 on any other outcome. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Oplog = Ooser_recovery.Oplog

(* Recovery replays into a database built the way the run's began. *)
let fresh () =
  let db = Database.create () in
  let reg = Database.spec_registry db in
  (db, Encyclopedia.create db, Protocol.open_nested ~reg ())

let insert enc key ctx =
  Encyclopedia.insert enc ctx ~key ~text:"100";
  Value.unit

let () =
  let db, enc, protocol = fresh () in
  let journal = Oplog.create () in
  let in_flight ctx =
    ignore (insert enc "mallory" ctx);
    Runtime.await ctx (* nothing pokes a batch run: T2 never commits *);
    Value.unit
  in
  let txns = [ (1, "T1", insert enc "alice"); (2, "T2", in_flight) ] in
  ignore (Engine.run ~journal db ~protocol txns);
  (* a later force makes T2's logged insert stable, then the crash *)
  Oplog.force journal;
  Fmt.pr "=== CRASH ===@.";
  let db, enc, protocol = fresh () in
  let _, r = Engine.recover db ~protocol (Oplog.crash journal) in
  let winners = List.map fst r.Engine.rec_winners in
  let undone = List.map fst r.Engine.undone in
  let ints = Fmt.(list ~sep:sp int) in
  Fmt.pr "replayed: %d calls@.winners: %a@." r.Engine.replayed_calls ints winners;
  Fmt.pr "undone: %a@.recertified: %b@." ints undone r.Engine.recertified;
  let found = ref [] in
  let read ctx =
    let search key = (key, Encyclopedia.search enc ctx ~key) in
    found := List.map search [ "alice"; "mallory" ];
    Value.unit
  in
  ignore (Engine.run db ~protocol [ (3, "read", read) ]);
  List.iter
    (fun (k, v) -> Fmt.pr "  %-8s %s@." k (Option.value v ~default:"(absent)"))
    !found;
  let expected = [ ("alice", Some "100"); ("mallory", None) ] in
  if r.Engine.replayed_calls <> 2 || winners <> [ 1 ] || undone <> [ 2 ]
     || (not r.Engine.recertified) || !found <> expected
  then (Fmt.epr "recovery_demo: wrong recovered state@."; exit 1)
