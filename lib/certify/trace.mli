(** The streaming binary history-trace format: the interchange between
    everything that executes transactions (engine, sharded server,
    recovery, load generators) and the offline certifier.

    A trace is a {!Ooser_recovery.Record_log} image, the format of the
    operation log: one header frame
    (magic, version, the name of the commutativity registry the history
    ran under), then one frame per committed top-level transaction
    carrying its call tree (every action with its execution-time pin,
    {!Ooser_core.Action.pin}, so state-dependent specs re-decide exactly
    as they did online) and its executed primitives with their global
    execution stamps.  Stamps are order-isomorphic to positions in the
    committed execution order — exactly what {!Ooser_core.Incremental}
    needs — so a trace is certifiable without replaying anything.

    Each record frame starts with a small fixed header (top, stamp span,
    tree depth, primitive count) so {!load} can index a multi-gigabyte
    trace without decoding any call tree; records are decoded lazily,
    per segment, by whichever worker certifies them.

    Readers follow the record log's rules: a torn or zero-filled tail
    (a crash between append and flush) truncates to the last complete
    record, and a corrupt record followed by good ones is an error. *)

open Ooser_core
open Ids

val magic : string
val version : int

type record = {
  top : int;
  tree : Call_tree.t;
  prims : (Action_id.t * int) list;
      (** executed primitives with global stamps, in log order; never
          empty (a zero-call transaction has nothing to certify) *)
}

(** {1 Writing} *)

type writer

val create_writer : ?registry:string -> string -> writer
(** Start a fresh trace at [path] (removing any existing file) and write
    the header frame.  [registry] (default ["unknown"]) names the
    commutativity registry certification must resolve. *)

val append : writer -> record -> unit
(** Thread-safe (shard engines on several domains may share one writer).
    @raise Invalid_argument on empty [prims]. *)

val flush : writer -> unit
val close : writer -> unit

val encode_record : record -> string
val decode_record : string -> record

val write_history : ?registry:string -> string -> History.t -> unit
(** One-shot export of an in-memory history: each top-level tree becomes
    a record, stamped by position in the execution order (leaf roots
    included).  Used by the sharded server's drain and by tests. *)

(** {1 Reading} *)

type entry = {
  off : int;  (** payload offset into the raw buffer *)
  len : int;
  e_top : int;
  n_prims : int;
  min_stamp : int;
  max_stamp : int;  (** the transaction's stamp span *)
  max_depth : int;  (** deepest action in the tree; 1 = flat *)
}

type t

val load : string -> t
(** Read [path] and index every complete frame; a torn or corrupt tail
    is truncated.
    @raise Failure if the file is missing, not a trace, or corrupt
    before its tail. *)

val of_string : ?name:string -> string -> t
(** Index an in-memory trace image; [name] labels corruption errors. *)

val registry_name : t -> string
val length : t -> int
(** Committed transactions in the trace. *)

val entries : t -> entry array
(** In file (commit) order. *)

val record : t -> int -> record
(** Decode the [i]-th record.  Safe to call concurrently from several
    domains — decoding only reads the shared buffer. *)

val to_history : t -> commut:Commutativity.registry -> History.t
(** The whole trace as one in-memory history (the from-scratch oracle's
    view).  Only for traces that fit: the offline certifier never calls
    this. *)
