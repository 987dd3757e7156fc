(** Buffer pool with pin counts and LRU eviction.

    Access methods pin a page, work on the in-frame image, and unpin it
    (marking it dirty when modified).  Eviction picks the least recently
    used unpinned frame and writes it back when dirty. *)

type t

exception Pool_full
(** Raised when every frame is pinned and a new page is requested. *)

val create : ?capacity:int -> Disk.t -> t
(** @raise Invalid_argument when [capacity <= 0]. *)

val disk : t -> Disk.t

val pin : t -> Disk.page_id -> Page.t
(** Fetch (or find) the page and pin it.  The returned page aliases the
    frame: mutations are visible to later pinners.  It is valid only
    until its unpin: an unpinned frame may be evicted and its bytes
    reused for another page.
    @raise Pool_full when no frame can be evicted. *)

val unpin : ?dirty:bool -> t -> Disk.page_id -> unit
(** @raise Invalid_argument when the page is not resident or not
    pinned. *)

val with_page : t -> Disk.page_id -> f:(Page.t -> 'a * bool) -> 'a
(** Pin, run [f] (returning a result and a dirty flag), unpin.  Unpins
    (clean) when [f] raises.  [f] must not let the page escape. *)

val alloc : t -> Disk.page_id
(** Allocate a fresh page on the underlying volume. *)

val evictions : t -> int

val resident : t -> Disk.page_id list
(** The pages held in frames, in ascending id order. *)
