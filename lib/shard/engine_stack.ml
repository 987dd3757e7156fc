open Ooser_core
open Ooser_oodb
open Ooser_recovery
module Protocol = Ooser_cc.Protocol

type db_kind = [ `Encyclopedia | `Banking | `Inventory ]
type lock_kind = [ `Open | `Flat | `Closed | `Certify ]

type config = {
  db_kind : db_kind;
  protocol_kind : lock_kind;
  preload : int;
  fanout : int;
  accounts : int;
  products : int;
}

let default =
  {
    db_kind = `Encyclopedia;
    protocol_kind = `Open;
    preload = 200;
    fanout = 4;
    accounts = 10;
    products = 4;
  }

let db_kind_name = function
  | `Encyclopedia -> "encyclopedia"
  | `Banking -> "banking"
  | `Inventory -> "inventory"

(* -- building ------------------------------------------------------------------ *)

let build_db ?keep c =
  let db = Database.create () in
  (match c.db_kind with
  | `Encyclopedia ->
      let enc = Encyclopedia.create ~fanout:c.fanout db in
      Ooser_workload.Enc_workload.preload ?keep db enc ~keys:c.preload
  | `Banking ->
      for i = 0 to c.accounts - 1 do
        ignore
          (Ooser_workload.Banking.register_account db ~semantics:`Escrow i
             ~balance:100 ~low:0 ~high:1_000_000)
      done
  | `Inventory ->
      ignore (Ooser_workload.Inventory.create ~products:c.products db));
  db

let protocol (kind : lock_kind) db =
  let reg = Database.spec_registry db in
  match kind with
  | `Open -> Protocol.open_nested ~reg ()
  | `Flat -> Protocol.flat_2pl ~reg ()
  | `Closed -> Protocol.closed_nested ~reg ()
  | `Certify -> Protocol.unlocked ()

let engine_config ?next_stamp kind protocol =
  {
    (Engine.default_config protocol) with
    Engine.deadlock = Engine.Wound_wait;
    certify = kind = `Certify;
    now = Unix.gettimeofday;
    next_stamp;
  }

type parts = {
  db : Database.t;
  protocol : Protocol.t;
  engine_config : Engine.config;
}

let build ?keep ?next_stamp c =
  let db = build_db ?keep c in
  let protocol = protocol c.protocol_kind db in
  { db; protocol; engine_config = engine_config ?next_stamp c.protocol_kind protocol }

(* -- durability ---------------------------------------------------------------- *)

let recover ?decisions ?snapshot p records =
  let resolve decisions = Decision_log.resolve ~decisions records in
  let records = Option.fold ~none:records ~some:resolve decisions in
  Engine.recover ~config:p.engine_config ?snapshot p.db ~protocol:p.protocol
    (Oplog.of_records records)

type replayed = {
  dir : string;
  engine : Engine.t;
  report : Engine.recovery_report;
  base : Snapshot.t;
  records : int;
}

let replay ?decisions ~dir p =
  let snapshot = Snapshot.load ~dir in
  let records = Oplog.load ~dir in
  let engine, report = recover ?decisions ?snapshot p records in
  {
    dir;
    engine;
    report;
    base = Option.value snapshot ~default:Snapshot.empty;
    records = List.length records;
  }

let ok (r : Engine.recovery_report) =
  r.Engine.recertified && r.Engine.replay_failures = 0

let pp_report ppf (r : Engine.recovery_report) =
  Fmt.pf ppf "%d winners (%d snapshot-deduped), %d undone, re-certified=%b"
    (List.length r.Engine.rec_winners)
    r.Engine.skipped_attempts (List.length r.Engine.undone)
    r.Engine.recertified

(* Snapshot rename first, log reset second; replay dedups against the
   snapshot's keys across the window between them. *)
let write_snapshot ~dir ~base plan =
  let snap = Recovery.snapshot_of ~base plan in
  Snapshot.checkpoint ~dir snap;
  snap

let fold r = write_snapshot ~dir:r.dir ~base:r.base r.report.Engine.plan

type durable = {
  dir : string;
  journal : Oplog.t;
  mutable snap : Snapshot.t;  (* covers everything not in the journal *)
  boot_report : Engine.recovery_report;
}

let boot ?decisions ~dir p =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let r = replay ?decisions ~dir p in
  let snap = fold r in
  let journal = Oplog.open_dir ~dir in
  Engine.set_journal r.engine (Some journal);
  (r.engine, { dir; journal; snap; boot_report = r.report })

let start ?decisions ?dir p =
  match dir with
  | None -> (Engine.create ~config:p.engine_config p.db ~protocol:p.protocol, None)
  | Some dir ->
      let eng, d = boot ?decisions ~dir p in
      (eng, Some d)

let checkpoint eng d =
  Oplog.force d.journal;
  d.snap <-
    write_snapshot ~dir:d.dir ~base:d.snap
      (Recovery.analyze (Oplog.all d.journal));
  Engine.set_journal eng None;
  Oplog.close d.journal

let boot_report d = d.boot_report
let next_top d = d.snap.Snapshot.next_top

(* -- sharded directories -------------------------------------------------------- *)

let shard_dir dir i = Filename.concat dir (Printf.sprintf "shard-%d" i)

let shard_keep router i key =
  Router.shard_of_call router ~obj:"Enc" ~args:[ Value.Str key ] = i

let replay_shards ~dir ~shards c =
  let router = Router.create ~shards in
  let decisions = Decision_log.load ~dir in
  ( decisions,
    List.init shards (fun i ->
        replay ~decisions ~dir:(shard_dir dir i)
          (build ~keep:(shard_keep router i) c)) )
