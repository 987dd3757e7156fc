(** Wire protocol of the transaction server: length-prefixed binary
    frames (little-endian u32 length + payload) whose payloads are built
    from the {!Ooser_storage.Codec} primitives and the
    {!Ooser_recovery.Record_log} value codec.

    The session protocol is a strict request/response alternation:
    every request gets exactly one response and the server never pushes
    unsolicited frames.  A transaction that dies while no response is
    owed (a deadline firing between commands) has its abort parked and
    delivered as the answer to the next request.  Clients must treat
    [Aborted] answering any in-transaction request as the end of that
    transaction. *)

open Ooser_core

val max_frame : int
(** Largest accepted payload, in bytes; larger frames poison the
    connection before any allocation takes place. *)

type request =
  | Hello of string  (** client identification; must open every session *)
  | Begin of { name : string; timeout_ms : int }
      (** start a transaction; [timeout_ms = 0] means the server default.
          Queued (no response) while the server is at its in-flight
          admission limit — backpressure is a delayed [Begun]. *)
  | Call of { obj : string; meth : string; args : Value.t list }
      (** invoke a method as a subtransaction of the session's
          transaction; runs under {!Ooser_oodb.Runtime.try_call}, so a
          failure rolls back the call alone and answers [Failed] *)
  | Commit
  | Abort of string
  | Stats  (** observability snapshot as JSON *)
  | Shutdown  (** begin graceful shutdown: drain in-flight, then exit *)
  | Bye

type response =
  | Welcome of { server : string; db : string; protocol : string }
  | Begun of { top : int }
  | Result of Value.t
      (** the call committed at its level.  Results delivered before
          [Committed] are provisional: if the transaction is wounded and
          replayed, the commit reflects the replay. *)
  | Failed of string
  | Committed of Value.t  (** value returned by the last successful call *)
  | Aborted of string
  | Stats_json of string
  | Error of { code : string; msg : string }
  | Closing

val encode_request : request -> string
val decode_request : string -> request
(** @raise Failure on malformed or trailing bytes (both decoders). *)

val encode_response : response -> string
val decode_response : string -> response

val frame : string -> string
(** Wrap a payload in its length prefix. *)

(** Incremental frame extraction from a byte stream. *)
module Framer : sig
  type t

  val create : unit -> t

  val feed : t -> string -> unit
  (** Append bytes read from the socket. *)

  val pop : t -> (string option, string) result
  (** Next complete payload; [Ok None] when more bytes are needed;
      [Error _] once the stream is poisoned (oversized frame) — the
      connection must be dropped. *)
end

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
