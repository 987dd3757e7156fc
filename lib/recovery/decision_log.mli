(** The 2PC coordinator's decision record.

    A sharded server commits a cross-shard transaction in two phases:
    every participating shard forces its own {!Oplog} up to the prepared
    transaction and votes, then the coordinator appends the decision
    here and forces it {e before} telling any shard to commit.  The
    decision record is therefore the commit point: after a crash, a
    shard log holding a BEGIN (and the prepared calls) but no COMMIT is
    resolved by this log — a logged commit decision means the shard's
    COMMIT is synthesised during boot ({!resolve}), anything else is a
    loser and is compensated by normal recovery (presumed abort). *)

type decision = {
  top : int;
  commit : bool;
  participants : int list;  (** shard indices *)
}

type t

val open_dir : dir:string -> t
(** Append to [dir/decisions.bin], created if missing. *)

val append : t -> decision -> unit

val force : t -> unit
(** @raise Unix.Unix_error when fsync fails: the decision is not
    durable and no shard may be told to commit. *)

val close : t -> unit
(** Idempotent; later appends and forces do nothing. *)

val appends : t -> int

val load : dir:string -> decision list
(** Stable decisions, oldest first, under the {!Record_log} torn-tail
    and corruption rules.  [[]] when the file is absent.
    @raise Failure on mid-log corruption. *)

val reset : dir:string -> unit
(** Delete the decision file — called after a quiescent checkpoint has
    folded every decided transaction into the shard snapshots. *)

val log_file : dir:string -> string

val resolve :
  decisions:decision list ->
  Oplog.record list ->
  Oplog.record list
(** Resolve in-doubt transactions in one shard's log: for every attempt
    with a [Begin] but neither [Commit] nor [Abort] whose top has a
    logged commit decision, append a synthetic [Oplog.Commit] so the
    replay treats it as a winner.  Tops without a commit decision are
    left alone (presumed abort). *)
