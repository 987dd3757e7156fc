(** A volume of pages addressed by page id.

    Page images live in memory (see DESIGN.md, substitutions) behind a
    disk-like read/write interface; reads are counted. *)

type page_id = int
type t

val create : ?page_size:int -> unit -> t

val alloc : t -> page_id
(** Allocate a fresh zeroed page. *)

val read : t -> page_id -> Bytes.t
(** A private copy of the page image.
    @raise Invalid_argument on unallocated ids. *)

val write : t -> page_id -> Bytes.t -> unit
(** @raise Invalid_argument on unallocated ids or wrong-sized images. *)

val page_count : t -> int
val reads : t -> int
