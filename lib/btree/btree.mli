(** B+ tree with B-link pointers over the page store (the index manager
    of the paper's encyclopedia example, §2 / Fig. 2).

    Keys and values are strings; nodes are serialized into pages of the
    buffer pool; splits propagate upward through the recorded descent
    path, with B-link right-moves tolerating concurrent splits.  Deletion
    is lazy (no rebalancing), as in most production index managers. *)

open Ooser_storage

type t

val create : ?max_entries:int -> Buffer_pool.t -> t
(** A fresh empty tree; nodes split beyond [max_entries] entries
    (default 8 — the experiments sweep this fanout).
    @raise Invalid_argument when [max_entries < 2]. *)

val max_entries : t -> int

val insert : t -> string -> string -> unit
(** Upsert. *)

val search : t -> string -> string option
val mem : t -> string -> bool

val delete : t -> string -> bool
(** [false] when the key was absent.  Underfull leaves are rebalanced
    against their right sibling (merge or borrow through the B-link); an
    empty internal root collapses onto its only child; internal nodes are
    otherwise left underfull (lazy, as in most production index
    managers). *)

val range : t -> lo:string -> hi:string -> (string * string) list
(** Entries with [lo <= key < hi], in key order. *)

val fold : t -> ('a -> string -> string -> 'a) -> 'a -> 'a
(** Over all entries in key order (walks the leaf chain). *)

val to_list : t -> (string * string) list
val cardinal : t -> int

(** Structure statistics for the experiment reports. *)
type stats = {
  height : int;  (** 1 for a lone leaf *)
  internal_nodes : int;
  leaves : int;
  keys : int;
  avg_fill : float;  (** mean entries/max_entries over all nodes *)
}

val stats : t -> stats

val check_invariants : t -> (unit, string) result
(** Sortedness, equal leaf depth, high-key bounds, ordered leaf chain. *)

val node_reads : t -> int
val node_writes : t -> int
val splits : t -> int
val merges : t -> int
val borrows : t -> int
