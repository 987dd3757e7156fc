(** A volume of pages addressed by page id.

    Page images live in memory (see DESIGN.md, substitutions) behind a
    disk-like read/write interface; reads are counted.  The volume keeps
    a private image of every page: no caller's buffer is ever shared
    with it. *)

type page_id = int
type t

val create : ?page_size:int -> unit -> t

val alloc : t -> page_id
(** Allocate a fresh zeroed page. *)

val read : ?into:Bytes.t -> t -> page_id -> Bytes.t
(** A private copy of the page image: a fresh one, or [into] (a
    page-sized buffer, returned) overwritten without allocating.
    @raise Invalid_argument on unallocated ids or a wrong-sized [into]. *)

val write : t -> page_id -> Bytes.t -> unit
(** Copy the image into the page's private image, allocating nothing.
    @raise Invalid_argument on unallocated ids or wrong-sized images. *)

val page_count : t -> int
val reads : t -> int
