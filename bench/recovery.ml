(* Recovery benchmark (self-contained: no bechamel, so it also runs in
   CI).  Three questions, one JSON report (BENCH_recovery.json):

   1. What does journaling cost on the commit path?  The same seeded
      encyclopedia workload runs on a plain engine, an engine with an
      in-memory operation log, and an engine journaling to a real file
      (fsync at every top commit).  The gate is on the in-memory
      variant — the log-append machinery itself — because the file
      variant's cost is the fsync, which is the price of durability,
      not of the logging design.

   2. How does recovery time scale with log length?  Journaled runs of
      8..64 transactions are replayed through [Engine.recover]
      (re-certification off: it is the acceptance oracle, not part of
      the recovery path).

   3. What does a snapshot buy?  The longest log, recovered from a
      snapshot covering every winner (analysis + (top, attempt) dedup
      only) versus full replay.

   Exits non-zero if the in-memory commit-path overhead exceeds the
   gate (25%). *)

open Ooser_core
open Ooser_oodb
open Ooser_workload
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng
module Json = Ooser_sim.Json
module Oplog = Ooser_recovery.Oplog
module Recovery = Ooser_recovery.Recovery

let gate_pct = 25.0

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let params n =
  {
    Enc_workload.default_params with
    Enc_workload.n_txns = n;
    ops_per_txn = 4;
    preload = 50;
  }

let setup ~seed n = Enc_workload.setup ~rng:(Rng.create ~seed) (params n)

(* One engine run of the seeded workload; only [Engine.run] is timed. *)
let run_once ~seed ?journal n =
  let db, _, txns = setup ~seed n in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:(seed * 7));
    }
  in
  time (fun () -> Engine.run ~config ?journal db ~protocol txns)

(* -- 1. commit-path overhead -------------------------------------------------- *)

type commit_path = {
  plain_s : float;
  mem_s : float;
  file_s : float;
  mem_overhead_pct : float;
  file_overhead_pct : float;
}

let commit_n = 48
let reps = 7

(* Identical work every repetition (same seed); the minimum is the
   least-noise estimate. *)
let measure mk_journal =
  let best = ref infinity in
  for _ = 1 to reps do
    let j, cleanup = mk_journal () in
    let _, dt = run_once ~seed:5 ?journal:j commit_n in
    cleanup ();
    if dt < !best then best := dt
  done;
  !best

let commit_path () =
  let plain = measure (fun () -> (None, fun () -> ())) in
  let mem = measure (fun () -> (Some (Oplog.create ()), fun () -> ())) in
  let file =
    measure (fun () ->
        let path = Filename.temp_file "bench_oplog" ".bin" in
        let j = Oplog.create ~file:path () in
        ( Some j,
          fun () ->
            Oplog.close j;
            try Sys.remove path with Sys_error _ -> () ))
  in
  let pct base x = 100.0 *. (x -. base) /. base in
  {
    plain_s = plain;
    mem_s = mem;
    file_s = file;
    mem_overhead_pct = pct plain mem;
    file_overhead_pct = pct plain file;
  }

(* -- 2. recovery time vs log length ------------------------------------------- *)

type scale_point = {
  txns : int;
  records : int;
  replayed_calls : int;
  winners : int;
  recover_s : float;
}

let recover_records ?snapshot ~seed n records =
  let db, _, _ = setup ~seed n in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  time (fun () ->
      Engine.recover ?snapshot ~recertify:false db ~protocol
        (Oplog.of_records records))

let scaling_point ~seed n =
  let journal = Oplog.create () in
  let _ = run_once ~seed ~journal n in
  let records = Oplog.all journal in
  (* warm once, then take the best of three *)
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to 3 do
    let (_, report), dt = recover_records ~seed n records in
    last := Some report;
    if dt < !best then best := dt
  done;
  let report = Option.get !last in
  ( {
      txns = n;
      records = List.length records;
      replayed_calls = report.Engine.replayed_calls;
      winners = List.length report.Engine.rec_winners;
      recover_s = !best;
    },
    records )

(* -- 3. snapshot restore vs full replay ---------------------------------------- *)

type snapshot_cmp = {
  snap_txns : int;
  full_replay_s : float;
  snapshot_restore_s : float;
  speedup : float;
}

let snapshot_cmp ~seed n records full_s =
  let plan = Recovery.analyze records in
  let snap = Recovery.snapshot_of plan in
  let best = ref infinity in
  for _ = 1 to 3 do
    let _, dt = recover_records ~snapshot:snap ~seed n records in
    if dt < !best then best := dt
  done;
  {
    snap_txns = n;
    full_replay_s = full_s;
    snapshot_restore_s = !best;
    speedup = full_s /. !best;
  }

(* -- report -------------------------------------------------------------------- *)

let to_json cp points sc =
  let point p =
    Json.(
      Obj
        [ "txns", Int p.txns; "records", Int p.records;
          "replayed_calls", Int p.replayed_calls; "winners", Int p.winners;
          "recover_s", Float p.recover_s ])
  in
  Json.(
    Obj
      [ ( "workload",
          Obj
            [ "db", String "encyclopedia"; "protocol", String "open";
              "ops_per_txn", Int 4; "preload", Int 50 ] );
        ( "commit_path",
          Obj
            [ "txns", Int commit_n; "plain_s", Float cp.plain_s;
              "journal_mem_s", Float cp.mem_s;
              "journal_file_s", Float cp.file_s;
              "mem_overhead_pct", Float cp.mem_overhead_pct;
              "file_overhead_pct", Float cp.file_overhead_pct;
              "gate_pct", Float gate_pct;
              "gate_ok", Bool (cp.mem_overhead_pct <= gate_pct) ] );
        "recovery_scaling", List (List.map point points);
        ( "snapshot",
          Obj
            [ "txns", Int sc.snap_txns; "full_replay_s", Float sc.full_replay_s;
              "snapshot_restore_s", Float sc.snapshot_restore_s;
              "speedup", Float sc.speedup ] ) ])

let () =
  let out = ref "BENCH_recovery.json" in
  let rec parse = function
    | [] -> ()
    | "-o" :: path :: rest ->
        out := path;
        parse rest
    | a :: _ ->
        Fmt.epr "usage: recovery [-o FILE] (unknown arg %s)@." a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Fmt.pr "commit-path overhead (%d txns, min of %d runs):@." commit_n reps;
  let cp = commit_path () in
  Fmt.pr "  plain        %.3f ms@." (1000. *. cp.plain_s);
  Fmt.pr "  journal mem  %.3f ms  (+%.1f%%)@." (1000. *. cp.mem_s)
    cp.mem_overhead_pct;
  Fmt.pr "  journal file %.3f ms  (+%.1f%%, fsync per commit)@."
    (1000. *. cp.file_s) cp.file_overhead_pct;
  Fmt.pr "@.recovery time vs log length:@.";
  let points, longest =
    List.fold_left
      (fun (acc, _) n ->
        let p, records = scaling_point ~seed:11 n in
        Fmt.pr "  %3d txns  %4d records  %4d calls replayed  %.3f ms@." p.txns
          p.records p.replayed_calls (1000. *. p.recover_s);
        (acc @ [ p ], (n, records, p.recover_s)))
      ([], (0, [], 0.0))
      [ 8; 16; 32; 64 ]
  in
  let n, records, full_s = longest in
  let sc = snapshot_cmp ~seed:11 n records full_s in
  Fmt.pr "@.snapshot restore (%d txns): %.3f ms vs %.3f ms full replay \
          (%.2fx)@."
    n
    (1000. *. sc.snapshot_restore_s)
    (1000. *. sc.full_replay_s)
    sc.speedup;
  let json = to_json cp points sc in
  let oc = open_out !out in
  output_string oc (Json.indented json ^ "\n");
  close_out oc;
  Fmt.pr "@.wrote %s@." !out;
  if cp.mem_overhead_pct > gate_pct then begin
    Fmt.epr
      "GATE FAILED: in-memory journal overhead %.1f%% exceeds %.1f%%@."
      cp.mem_overhead_pct gate_pct;
    exit 1
  end
