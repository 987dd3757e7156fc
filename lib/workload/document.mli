(** Cooperative document editing: the publication-environment workload of
    §1 and Fig. 1.

    A document object over section objects over shared pages — several
    sections are co-located on one page, so edits of different sections by
    different authors collide at page level but commute at the document
    level; a layout pass reads every section and conflicts with all
    edits. *)

open Ooser_core
open Ooser_oodb

type t

val create :
  ?name:string ->
  ?sections:int ->
  ?sections_per_page:int ->
  ?page_size:int ->
  Database.t ->
  t
(** Register the document schema.
    @raise Invalid_argument when [sections <= 0]. *)

val sections : t -> int

val section_page : t -> int -> int
(** Page id hosting a section (to observe co-location). *)

val edit : t -> Runtime.ctx -> section:int -> text:string -> unit
val read : t -> Runtime.ctx -> section:int -> string

val layout : t -> Runtime.ctx -> string list
(** Sequential pass over all sections; conflicts with every edit. *)

val layout_par : t -> Runtime.ctx -> string list
(** The same pass with intra-transaction parallelism: all section reads
    fork as parallel branches (Def. 9). *)
