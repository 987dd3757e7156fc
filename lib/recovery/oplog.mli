(** Logical, method-level operation log.

    Records the semantic history of the engine — BEGIN, root-level
    method CALL with the registered compensation, subtransaction COMMIT
    markers, top COMMIT (forced) and ABORT.  Open nesting's recovery
    discipline needs the log at this level: a committed subtransaction
    released its locks, so redo replays the call through the real engine
    dispatch and undo invokes the compensation.  It is the engine's only
    log: nothing below a root-level call is logged.

    Exactly the forced prefix survives {!crash}.  The file backend is a
    {!Record_log} sink: {!force} flushes and fsyncs, and {!load} keeps
    the stable prefix under the record log's torn-tail and corruption
    rules. *)

open Ooser_core

type lsn = int

type invocation = { obj : Obj_id.t; meth : string; args : Value.t list }

type record =
  | Begin of { top : int; attempt : int; name : string }
  | Call of {
      top : int;
      attempt : int;
      seq : int;  (** child index under the transaction root *)
      inv : invocation;
      comp : invocation option;
          (** the compensation the method registered (an [Inverse]) *)
    }
  | Subcommit of {
      top : int;
      attempt : int;
      path : int list;  (** hierarchical action number (Def. 2) *)
      comp : invocation option;
    }
  | Commit of { top : int; attempt : int }
  | Abort of { top : int; attempt : int; reason : string }

type t

val create : ?file:string -> unit -> t
(** In-memory log; [file] attaches an append-only file backend. *)

val open_dir : dir:string -> t
(** The standard per-directory log file, created if missing. *)

val of_records : record list -> t
(** An in-memory log holding the given records, all stable. *)

val append : t -> record -> lsn
val force : t -> unit
(** Everything appended so far becomes stable (file backend: flush +
    fsync).
    @raise Unix.Unix_error when fsync fails; nothing new is stable then. *)

val close : t -> unit
(** Detach the file backend; the log lives on in memory. *)

val appends : t -> int
val forces : t -> int

val all : t -> record list
val stable : t -> record list
(** Oldest first. *)

val crash : t -> t
(** The log as seen after a crash: only the forced prefix remains. *)

val load : dir:string -> record list
(** Stable records from [dir]'s log file; a torn or zero-filled tail
    (an unforced append cut by a crash) ends the scan.  [[]] when
    absent.
    @raise Failure on mid-log corruption ({!Record_log.scan}). *)

val log_file : dir:string -> string

val set_injector : t -> Crash.t option -> unit
(** Arm (or clear) a fault injector consulted at the append/force
    sites. *)

val encode_invocation : invocation -> string
val decode_invocation : string -> invocation

val encode_record : record -> string
val decode_record : string -> record
(** @raise Failure on corrupt input. *)
