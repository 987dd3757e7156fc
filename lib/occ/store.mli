(** The multiversion optimistic store: per-object version chains
    snapshotted at BEGIN, buffered redo intentions, commit-time
    validation through commutativity-aware conflict probes and the
    Pearce–Kelly incremental certifier.  See DESIGN §20. *)

open Ooser_core
module Protocol = Ooser_cc.Protocol
module Stats = Ooser_sim.Stats
module Database = Ooser_oodb.Database

(** Validation mode: [Commute] probes the registered commutativity
    specs (escrow deposits never abort each other); [Rw] validates
    against the models' read/write projection — the plain-SSI baseline;
    [Unvalidated] is the naive snapshot-isolation mutant for the model
    checker: no validation, stale snapshot-computed writes applied. *)
type mode = Commute | Rw | Unvalidated

type t

val create : mode:mode -> unit -> t
val mode : t -> mode

val counters : t -> Stats.Counter.t
(** ["validations"], ["aborts"], ["commute-saves"] (plus the protocol's
    ["requests"]/["grants"]) — surfaced by the engine under the ["occ."]
    metrics prefix. *)

val commit_ts : t -> int
(** The newest committed version timestamp. *)

val register : t -> Database.t -> Obj_id.t -> Model.t -> unit
(** Register the object in both the store (version chain at ts 0) and
    the database: store-backed methods, and the model's commutativity
    spec ([Rw] mode registers the read/write projection instead, so the
    database's spec registry IS what rw validation and certification
    see). *)

val protocol : t -> Protocol.t
(** The optimistic protocol over this store: requests always granted,
    snapshot at every attempt start, validation at commit point,
    buffers dropped on top-level commit/abort. *)

val committed_state : t -> Obj_id.t -> Value.t
(** Newest committed state of the object. *)

val versions : t -> Obj_id.t -> (int * Value.t) list
(** The object's version chain, newest first, as [(commit_ts, state)]. *)

val validate :
  t ->
  top:int ->
  tree:Call_tree.t ->
  prims:(Ids.Action_id.t * int) list ->
  (unit, string) result
(** The commit-time validator (exposed for tests; the engine calls it
    through {!protocol}).  [Ok] installs the transaction's versions and
    advances the commit timestamp. *)

val history : t -> History.t
(** The committed history in its multiversion serialization: reads
    ordered in their snapshot band, updates in their commit band.  This
    is the history occ admission certifies — [Serializability.check]
    accepts it for every occ-committed run — unlike the engine's raw
    interleaved execution order, which can place a snapshot read after
    a concurrent commit it did not observe. *)
