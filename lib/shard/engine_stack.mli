(** One engine stack for the whole system: the database, lock protocol
    and engine configuration that the single-engine server, every shard
    and [oosdb recover] are built from, and the durable replay, boot and
    quiescent checkpoint they share.

    Under open nesting a committed subtransaction has already released
    its locks, so every durable engine recovers the same way: replay the
    logged method calls through a fresh engine and compensate the losers
    ({!Ooser_oodb.Engine.recover}).  A shard differs only in the
    coordinator decisions that first resolve its in-doubt prepared
    transactions. *)

open Ooser_oodb
open Ooser_recovery

type db_kind = [ `Encyclopedia | `Banking | `Inventory ]

type lock_kind = [ `Open | `Flat | `Closed | `Certify ]
(** Open nested, flat 2PL, closed nested, and the unlocked protocol
    validated by commit-time certification. *)

type config = {
  db_kind : db_kind;
  protocol_kind : lock_kind;
  preload : int;  (** encyclopedia seed keys, named [k%05d] *)
  fanout : int;
  accounts : int;  (** banking accounts, objects [Account%d] *)
  products : int;  (** inventory products on object [Store] *)
}

val default : config
(** Encyclopedia, open nesting, 200 keys, fanout 4, 10 accounts, 4
    products. *)

val db_kind_name : db_kind -> string

(** {1 Building} *)

val build_db : ?keep:(string -> bool) -> config -> Database.t
(** Freshly built and preloaded — exactly the state recovery replays a
    log against.  [keep] filters the preload keys (a shard owns only
    the keys the router places on it). *)

val protocol : lock_kind -> Database.t -> Ooser_cc.Protocol.t

val engine_config :
  ?next_stamp:(unit -> int) -> [> `Certify ] -> Ooser_cc.Protocol.t ->
  Engine.config
(** Wound-wait, certification iff [`Certify], the real clock, and the
    shared execution-stamp counter when given. *)

type parts = {
  db : Database.t;
  protocol : Ooser_cc.Protocol.t;
  engine_config : Engine.config;
}

val build : ?keep:(string -> bool) -> ?next_stamp:(unit -> int) -> config -> parts

(** {1 Durability} *)

val recover :
  ?decisions:Decision_log.decision list -> ?snapshot:Snapshot.t -> parts ->
  Oplog.record list -> Engine.t * Engine.recovery_report
(** Resolve the records against the coordinator's [decisions] (presumed
    abort without a logged commit) and replay them, after [snapshot],
    through a fresh engine. *)

type replayed = {
  dir : string;
  engine : Engine.t;
  report : Engine.recovery_report;
  base : Snapshot.t;  (** the directory's snapshot, or empty *)
  records : int;  (** stable oplog records read *)
}

val replay : ?decisions:Decision_log.decision list -> dir:string -> parts -> replayed
(** {!recover} [dir]'s snapshot and stable oplog.  Writes nothing. *)

val ok : Engine.recovery_report -> bool
(** No replayed call failed and the history re-certified. *)

val pp_report : Format.formatter -> Engine.recovery_report -> unit

val fold : replayed -> Snapshot.t
(** Fold a replay's winners into its directory's snapshot and start an
    empty log; returns the new snapshot. *)

type durable
(** A booted engine's journal and the snapshot beneath it. *)

val boot : ?decisions:Decision_log.decision list -> dir:string -> parts -> Engine.t * durable
(** {!replay}, {!fold}, then a fresh journal attached to the engine;
    creates [dir] if missing.  A crash before the snapshot rename keeps
    the old pair; one between the rename and the log reset is benign,
    since replay dedups against the snapshot's (top, attempt) keys. *)

val start :
  ?decisions:Decision_log.decision list -> ?dir:string -> parts ->
  Engine.t * durable option
(** A fresh engine; with [dir], a {!boot}ed one. *)

val checkpoint : Engine.t -> durable -> unit
(** Quiescent checkpoint, every submitted transaction decided: force the
    journal, fold its winners into the snapshot, detach and close it. *)

val boot_report : durable -> Engine.recovery_report

val next_top : durable -> int
(** Floor for new tops: every top the snapshot and replayed log hold. *)

(** {1 Sharded directories} *)

val shard_dir : string -> int -> string
(** Shard [i]'s oplog/snapshot directory; the decision log sits in the
    parent. *)

val shard_keep : Router.t -> int -> string -> bool
(** The router places encyclopedia key [k] on shard [i]. *)

val replay_shards :
  dir:string -> shards:int -> config -> Decision_log.decision list * replayed list
(** {!replay} every shard against the directory's decision log.  Writes
    nothing. *)
