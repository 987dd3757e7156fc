(** The sharded engine's front door: an engine-like facade the server
    drives from its select loop.

    Calls are routed to shards by the {!Router}; a transaction touching
    one shard commits entirely inside it (the hot path — no coordinator
    involvement), while a multi-shard transaction goes through the 2PC
    {!Coordinator}: every participant forces its oplog, pins its branch
    and votes with its Def. 15 dependency edges; the coordinator inserts
    the union into one incremental topological order, logs the decision
    (durably, when configured) and only then lets any shard commit.

    All dispatcher state lives in the caller's thread; shards signal
    readiness through {!wake_fd}, which the server adds to its select
    set, and {!poll} drains their events. *)

open Ooser_core
open Ooser_oodb

type config = {
  shards : int;
  stack : Engine_stack.config;
  durable_dir : string option;
      (** per-shard state lives in [DIR/shard-<i>]; the coordinator's
          decision log in [DIR] itself *)
}

type t

val create : ?in_process:bool -> config -> t
(** [in_process] (default false) builds every shard in core mode — no
    domains: the caller steps shards itself via {!step_shard} (and
    {!await}/the synchronous collectors step them automatically).  The
    whole sharded system then runs single-threaded, which is what makes
    a model-checked run a pure function of its scheduling choices. *)

val router : t -> Router.t
val shards : t -> int

val next_top_floor : t -> int
(** 1 + the highest transaction top recovered from any shard — the
    server must allocate tops above this after a durable boot. *)

val begin_txn : t -> top:int -> name:string -> deadline:float option -> unit
val call : t -> top:int -> obj:string -> meth:string -> args:Value.t list -> unit
val commit : t -> top:int -> unit
val abort : t -> top:int -> reason:string -> unit
val set_deadline : t -> top:int -> float option -> unit

val txn_state :
  t -> int -> [ `Running | `Committed of Value.t | `Aborted of string | `Unknown ]

val result : t -> top:int -> seq:int -> (Value.t, string) result option
(** The (possibly provisional) result of the transaction's [seq]-th
    call, in global call order. *)

val retire : t -> top:int -> unit

val wake_fd : t -> Unix.file_descr
val poll : t -> unit
(** Drain shard events in arrival order and run the 2PC state machines.
    Never blocks. *)

(** {2 In-process driving (model checking)}

    On a dispatcher created with [~in_process:true] the caller decides
    both when each shard runs ({!step_shard}) and in which order queued
    events reach the 2PC state machines ({!pending_events}, {!deliver}).
    {!deliver} is the one way to control delivery order: per-event
    delivery subsumes every vote-arrival permutation. *)

val step_shard : t -> int -> unit
(** One scheduling turn of shard [i] (see {!Shard.step}) — core-mode
    dispatchers only. *)

val shard_has_work : t -> int -> bool

val set_vote_full : t -> bool -> unit
(** Audit override on every shard: full-history votes instead of the
    §17 vote window (see {!Shard.set_vote_full}). *)

val pending_events : t -> Shard.event list
(** The queued, not yet handled shard events, in arrival order. *)

val deliver : t -> int -> bool
(** Handle exactly the [n]-th queued event, leaving the others queued —
    the model checker's per-event delivery choice, which subsumes every
    vote-arrival permutation.  False when no such event. *)

val check_deadlines : t -> unit
(** Coordinator-side deadline enforcement for transactions the shards
    cannot abort themselves: zero-call transactions and pinned
    (prepared) participants. *)

val nearest_deadline : t -> float option

type shard_stats = {
  shard : int;
  engine : (string * int) list;
  lock : (string * int) list;
  cert_depth : int;
}

val stats : t -> ?timeout:float -> unit -> shard_stats list
(** Synchronous per-shard counter snapshot (blocks up to [timeout],
    default 5s; missing shards are simply absent from the result). *)

val counters : t -> (string * int) list
(** Dispatcher + coordinator counters: routed calls, single-/cross-shard
    commit counts, 2PC statistics, wound escalations, mixed outcomes. *)

val certified : t -> ?timeout:float -> unit -> bool
(** Every shard's final history passes [Serializability.oo_serializable]
    and the coordinator saw no cross-shard violation.  Sound because
    Def. 15 records every dependency at both objects: the global
    transaction-dependency relation is the union of the per-shard
    relations, all of which the coordinator keeps acyclic. *)

val shard_obj : shards:int -> string -> (int * Obj_id.t) option
(** The shard and shard-local object an ["s<i>:<name>"] object name of
    {!merged_history} denotes; [None] for other names and for shards
    outside [0, shards). *)

val shard_spec : t -> shard:int -> Obj_id.t -> Commutativity.spec option
(** The spec shard [shard]'s own database registers for a shard-local
    object.  Only on a dispatcher created [~in_process:true], whose
    shards run on the caller's thread.
    @raise Invalid_argument on a dispatcher whose shards run in their
    own domains. *)

val merged_history : t -> ?timeout:float -> unit -> History.t
(** The stitched global history: per-shard committed call trees of each
    transaction merged under one root, renumbered to global call order,
    objects renamed with a per-shard prefix (two shards' ["Page0"] are
    different physical pages), orders interleaved by shared execution
    stamp.  Its registry answers from the specs each shard put in its
    snapshot, for the objects of its committed trees.  Only meaningful
    at quiescence; used by tests and as the from-scratch oracle. *)

val shutdown : t -> unit
(** Checkpoint (durable), stop and join every shard, close the
    coordinator. *)
