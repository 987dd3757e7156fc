(** A compound document with three levels of nesting (Fig. 1's
    "processing the layout of a document consists of processing the
    contents, the chapters, ...").

    Book → Chapter objects → Section objects → Page objects.  Edits in
    different chapters commute at book level; different sections commute
    at chapter level; the sections of one chapter share a page, so
    concurrent edits collide at the bottom — three levels of semantic
    inheritance.  The book-wide layout runs the chapter layouts as
    parallel branches (Def. 9). *)

open Ooser_oodb

type t

val create :
  ?name:string ->
  ?chapters:int ->
  ?sections_per_chapter:int ->
  ?page_size:int ->
  Database.t ->
  t
(** @raise Invalid_argument on non-positive dimensions. *)

val chapters : t -> int
val sections_per_chapter : t -> int

val edit : t -> Runtime.ctx -> chapter:int -> section:int -> text:string -> unit
val read : t -> Runtime.ctx -> chapter:int -> section:int -> string

val layout : t -> Runtime.ctx -> string list list
(** All chapters' sections, chapter layouts forked in parallel. *)
