(** Write-ahead log.

    §1 of the paper assumes transactions execute "reliably — as if there
    were no failures"; this is the substrate: slot-level
    before/after-image logging with a {!force} operation modelling stable
    storage.  A simulated {!crash} keeps exactly the forced records. *)

type lsn = int

type record =
  | Begin of int
  | Update of {
      txn : int;
      page : Disk.page_id;
      slot : int;
      before : string option;  (** [None] — the slot was dead *)
      after : string option;  (** [None] — the slot becomes dead *)
    }
  | Commit of int
  | Abort of int
  | Checkpoint of int list
      (** transactions active at checkpoint time *)
  | Clr of {
      txn : int;
      page : Disk.page_id;
      slot : int;
      restore : string option;  (** the before-image being reinstalled *)
      undo_next : lsn;  (** lsn of the {!Update} this record compensates *)
    }
      (** Compensation log record: written (and forced) before each undo
          page write, so a crash during rollback or recovery never
          compensates the same update twice — the next recovery's undo
          floor for the transaction is the minimum [undo_next] of its
          stable CLRs. *)

type t

val create : unit -> t

val append : t -> record -> lsn
val force : t -> unit
(** Everything appended so far becomes stable. *)

val next_lsn : t -> lsn
val stable_lsn : t -> lsn

val all : t -> (lsn * record) list
(** Oldest first. *)

val stable : t -> (lsn * record) list
(** The records that would survive a crash, oldest first. *)

val truncate : t -> upto:lsn -> unit
(** Drop every record below [upto] (after a quiescent checkpoint). *)

val crash : t -> t
(** The log as seen after a crash: unforced records are gone. *)
