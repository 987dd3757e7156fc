(** Slotted pages — the common primitive object type of the paper ("in
    database systems exists a common object type which methods call no
    other actions: the page", §2).

    A page stores variable-length records addressed by stable slot
    numbers.  The slot directory grows from the header; the record heap
    grows from the end of the page; deletion leaves a dead slot that can
    be reused; compaction defragments the heap. *)

type t

val create : ?size:int -> unit -> t
(** A fresh empty page (default 4096 bytes).
    @raise Invalid_argument for sizes outside [64, 65535]. *)

val of_bytes : Bytes.t -> t
(** View raw bytes as a page (no copy). *)

val to_bytes : t -> Bytes.t

val kind : t -> int
(** A small tag free for access methods (e.g. B+ tree node kinds). *)

val set_kind : t -> int -> unit

val insert : t -> string -> int option
(** Insert a record; [Some slot] on success, [None] when the page cannot
    fit it even after compaction.
    @raise Invalid_argument on the empty record. *)

val get : t -> int -> string option
val get_exn : t -> int -> string
val update : t -> int -> string -> bool
(** In-place when sizes match; otherwise reallocates within the page.
    [false] when the slot is dead or space is insufficient. *)

val delete : t -> int -> bool
val is_live : t -> int -> bool

val write_at : t -> int -> string -> bool
(** Force a record into a {e specific} slot, growing the directory and
    leaving intermediate slots dead if needed — used by the undo of a
    slot delete, which must restore the record under its old slot
    number.
    @raise Invalid_argument on negative slots. *)

val num_slots : t -> int
(** Directory size, dead slots included. *)

val record_count : t -> int
val free_space : t -> int
