(** The one JSON data format: every machine-readable report (STATS,
    certification verdicts, the conflict atlas, inferred specs, model
    checker reports, BENCH_*.json) is built as a {!t} and printed here.

    Two layouts.  {!compact} prints one line, for line-delimited streams
    (JSON Lines).  {!indented} puts each top-level element on its own
    line and breaks a nested array or object the same way, two spaces
    per level, unless all its elements are scalars: such a flat
    container stays on one line.  Both separate members with
    [", "] and keys from values with [": "], so a scalar member reads
    the same in either layout ({!member}). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** [nan] and [±infinity] print as [null] *)
  | String of string
      (** raw bytes: only ['"'], ['\\'] and bytes below 0x20 are escaped *)
  | List of t list
  | Obj of (string * t) list  (** members in print order *)

val opt : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

val strings : string list -> t

val compact : t -> string
val indented : t -> string
(** Neither layout ends with a newline. *)

val quote : string -> string
(** The JSON string literal of a string, quotes included. *)

val member : string -> t -> string
(** The text of one object member, [{"k": v}] without the braces, as
    both layouts print it when [v] is a scalar — a needle for finding a
    known member in a printed document without parsing it. *)
