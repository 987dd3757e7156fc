(** The one binary record log: the [Value.t] codec, the frame, the
    append-only file sink and the loader shared by every byte format in
    the tree — {!Oplog}, {!Decision_log}, {!Snapshot}, the certify trace
    and the server wire protocol.

    A log image is a sequence of frames, each a little-endian u32
    payload length followed by the payload.  Loading keeps the stable
    prefix:
    - a torn tail (a partial length prefix, or a prefix promising more
      bytes than the image holds) ends the scan;
    - a complete frame whose payload does not decode ends the scan only
      when no later frame decodes either — a zero-filled tail left by a
      crash is such an end;
    - an undecodable frame followed by a decodable one is mid-log
      corruption, and loading raises [Failure] naming the source and the
      byte offset of the bad frame rather than dropping forced records.

    {!force} and {!replace} let fsync errors propagate: a caller that
    acknowledges a commit after [force] returns never acknowledges one
    the disk refused. *)

open Ooser_core
module Codec = Ooser_storage.Codec

(** {1 Value codec} *)

val write_value : Codec.Writer.t -> Value.t -> unit
(** Tag byte ([0] unit, [1] bool, [2] int, [3] string, [4] pair,
    [5] list) followed by the constructor's fields. *)

val read_value : Codec.Reader.t -> Value.t
(** @raise Failure on a truncated value or an unknown tag. *)

(** {1 Framing} *)

val frame : string -> string
(** The payload behind its u32-LE length prefix. *)

val frame_at : string -> int -> (int * int) option
(** [(payload offset, payload length)] of the complete frame starting at
    byte [pos] of an image; [None] at a torn tail or the end. *)

(** {1 File sink} *)

type sink

val open_sink : string -> sink
(** Open [path] for append, creating it (and its parent directory) if
    missing. *)

val append : sink -> string -> unit
(** Buffer one framed payload. *)

val flush : sink -> unit
(** Hand buffered frames to the kernel (no fsync). *)

val force : sink -> unit
(** Flush and fsync: every appended frame is stable on return.
    @raise Unix.Unix_error when fsync fails. *)

val close : sink -> unit
(** Flush and close; a no-op on a closed sink. *)

val replace : string -> string -> unit
(** [replace path data] atomically replaces [path] with [data]: write
    [path ^ ".tmp"], fsync it, rename it over [path], then fsync the
    directory so the rename itself is stable.
    @raise Unix.Unix_error when an fsync fails. *)

(** {1 Loading} *)

val read_file : string -> string option
(** The whole file; [None] when absent. *)

val scan :
  ?from:int -> name:string -> string -> (int -> int -> 'a) -> 'a list
(** [scan ~name image decode] applies [decode off len] to the payload
    span of every frame from byte [from] (default 0) and returns the
    decoded stable prefix, in order.  [decode] signals an undecodable
    payload with [Failure].
    @raise Failure ["<name>: corrupt record at byte offset <n>"] on
    mid-log corruption. *)

val load : string -> (string -> 'a) -> 'a list
(** {!scan} over a file's payloads; [[]] when the file is absent. *)
