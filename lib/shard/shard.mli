(** One shard: a complete engine stack (database, lock table,
    incremental certifier, oplog) running its own event loop on a
    dedicated OCaml 5 domain.

    The dispatcher talks to a shard through a mutex-protected command
    mailbox (woken by a self-pipe) and receives {!event}s on a shared
    reply queue.  Single-shard transactions are opened, called and
    committed entirely inside one shard — no cross-domain
    synchronisation beyond the mailbox hand-off.  Cross-shard
    transactions go through {!cmd.Prepare}/{!cmd.Decide}: prepare
    forces the shard's oplog, pins the branch (wound-wait and deadline
    expiry may no longer abort it) and votes with the shard's full
    current transaction-dependency relation for the coordinator's
    Def. 15 edge-exchange certification. *)

open Ooser_core
open Ooser_oodb

type profile = {
  stack : Engine_stack.config;
  keep : string -> bool;
      (** placement filter: which preload keys this shard owns *)
  next_stamp : unit -> int;
      (** shared execution-stamp counter (see [Engine.config.next_stamp]) *)
  durable_dir : string option;
      (** this shard's own oplog/snapshot directory *)
  decisions : Ooser_recovery.Decision_log.decision list;
      (** coordinator decisions from the previous incarnation, used to
          resolve in-doubt prepared transactions during boot *)
}

type cmd =
  | Open_branch of { top : int; name : string; deadline : float option }
  | Branch_call of {
      top : int;
      seq : int;
      obj : string;
      meth : string;
      args : Value.t list;
    }
  | Branch_commit of { top : int }  (** single-shard fast path *)
  | Prepare of { top : int }
  | Decide of { top : int; commit : bool; reason : string }
  | Set_deadline of { top : int; deadline : float option }
  | Stats_req of { token : int }
  | Snapshot_req of { token : int }
  | Checkpoint_req of { token : int }
  | Stop

type event =
  | Ev_result of {
      shard : int;
      top : int;
      seq : int;
      r : (Value.t, string) result;
    }
  | Ev_vote of {
      shard : int;
      top : int;
      edges : (int * int) list option;
          (** [Some edges]: yes-vote carrying the stable part of the
              shard's current transaction-dependency relation — edges
              whose endpoints are committed or pinned, i.e. facts the
              coordinator may keep; [None]: no *)
      tentative : (int * int) list;
          (** edges with a running unpinned endpoint: a wound-wait
              retry may still flip them, so the coordinator uses them
              only to refuse this one prepare and then withdraws them *)
      reason : string;
    }
  | Ev_decided of {
      shard : int;
      top : int;
      outcome : (Value.t, string) result;
          (** [Ok v] committed with value [v]; [Error r] aborted *)
    }
  | Ev_wound of { shard : int; top : int }
      (** an older requester tried to wound this pinned (prepared)
          branch — the coordinator must abort the global transaction to
          break a possible cross-shard deadlock *)
  | Ev_stats of {
      shard : int;
      token : int;
      engine : (string * int) list;
      lock : (string * int) list;
      cert_depth : int;  (** committed transactions in this shard *)
    }
  | Ev_snapshot of {
      shard : int;
      token : int;
      serializable : bool;  (** this shard's final history, checked *)
      trees : (int * Call_tree.t) list;
      order : (Ids.Action_id.t * int) list;  (** stamped *)
      specs : (Obj_id.t * Commutativity.spec) list;
          (** the registered spec of every object in [trees], read in the
              shard's own domain *)
    }
  | Ev_checkpointed of { shard : int; token : int }
  | Ev_stopped of { shard : int }

type t

val create : idx:int -> profile -> emit:(event -> unit) -> t
(** Build the shard's database/protocol/engine (recovering
    [durable_dir] if set) and start its domain. *)

val create_core : idx:int -> profile -> emit:(event -> unit) -> t
(** Like {!create} but without spawning a domain: the caller drives the
    shard itself through {!step}.  With every shard of a dispatcher in
    core mode, the whole sharded system runs single-threaded on the
    caller's thread — the deterministic configuration the model checker
    explores.  {!join} on a core shard only closes its pipe. *)

val send : t -> cmd -> unit
(** Enqueue and wake — callable from any domain. *)

val step : t -> unit
(** One scheduling turn (core mode): drain and apply queued commands,
    pump the engine to quiescence, emit results/votes/decisions.  The
    domain loop performs exactly this between selects. *)

val has_work : t -> bool
(** Commands queued (or a stop pending): a {!step} would make
    progress. *)

val set_vote_full : t -> bool -> unit
(** Audit override: make every vote carry the dependency edges of the
    full observed history instead of the DESIGN §17 vote window — under
    the lock protocols the pending-retirement window, under [`Certify]
    the validation-frontier watermark window.  The engine counters
    ["vote-windowed"] and ["vote-full-history"] record which mode each
    vote ran in. *)

val idx : t -> int
val next_top_floor : t -> int
(** Smallest safe top for new transactions: the boot snapshot's
    [next_top], covering every top of the replayed log and of earlier
    checkpoints. *)

val spec : t -> Obj_id.t -> Commutativity.spec option
(** The shard database's registered spec.  The database is mutable
    single-domain state: only the caller that steps a core-mode shard
    may call this (other domains read specs from {!Ev_snapshot}). *)

val drain_pipe : Unix.file_descr -> unit
(** Empty a non-blocking wake pipe (a shard's or the dispatcher's). *)

val join : t -> unit
(** Wait for the domain to exit (after {!cmd.Stop}). *)
