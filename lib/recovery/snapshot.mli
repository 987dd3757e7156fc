(** Logical snapshot: the committed history compacted to one entry per
    winner, in commit order.

    Valid only when taken at a quiescent point (drained server, or right
    after a completed recovery): the committed projection is then
    certified oo-serializable, i.e. equivalent to the serial execution
    of the winners in commit order — which is exactly how a snapshot is
    restored.  Saved atomically ({!Record_log.replace}: temp file,
    fsync, rename, directory fsync). *)

type entry = {
  top : int;
  attempt : int;  (** final attempt in the source log (dedup key) *)
  name : string;
  calls : Oplog.invocation list;  (** root-level calls, execution order *)
}

type t = { next_top : int; entries : entry list (** commit order *) }

val empty : t

val keys : t -> (int * int) list
(** [(top, attempt)] of every entry — the already-applied set to skip
    during log replay. *)

val checkpoint : dir:string -> t -> unit
(** Make [t] the directory's snapshot and start an empty log: save the
    snapshot atomically, fsync the directory, then unlink the
    {!Oplog} file.  A crash between the steps is benign — replay dedups
    the surviving log against the snapshot's {!keys}.
    @raise Unix.Unix_error when an fsync fails (the log is kept). *)

val load : dir:string -> t option
(** [None] when absent.
    @raise Failure ["<file>: undecodable snapshot (...)"] when the file
    exists but does not decode — booting empty instead would lose every
    winner it holds, since {!checkpoint} already unlinked their log. *)

val file : dir:string -> string
