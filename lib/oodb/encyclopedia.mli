(** The encyclopedia of §2 (Fig. 2) as an object database.

    {v
    Enc ──▶ BpTree ──▶ Node/Leaf objects ──▶ Page objects
      └───▶ LinkedList ──▶ Item objects ──▶ Page objects
    v}

    Every B+ tree node is one object backed by one page object; item texts
    are co-located in the free slots of leaf pages, so a leaf and an item
    can collide on one page exactly as Leaf11 and Item8 collide on
    Page4712 in Fig. 7.  Method-level commutativity follows Example 1:
    inserts of different keys commute at the node level even when their
    page accesses conflict; readSeq conflicts with inserts and updates
    (the phantom); route/rearrange commute thanks to the B-link
    discipline; a root split re-enters the BpTree object, exercising the
    virtual extension (Def. 5). *)

open Ooser_core
open Ooser_storage

type t

val create :
  ?name:string ->
  ?fanout:int ->
  ?page_size:int ->
  ?pool_capacity:int ->
  Database.t ->
  t
(** Register the encyclopedia schema (Enc, BpTree, LinkedList, initial
    root leaf and its page) into the database.  [fanout] is the maximal
    number of keys per node — the "keys per page" knob of experiments E1
    and E4 (default 4). *)

val enc_object : t -> Obj_id.t
val bptree_object : t -> Obj_id.t
val linkedlist_object : t -> Obj_id.t
val pool : t -> Buffer_pool.t

val page_obj : int -> Obj_id.t
(** ["Page<pid>"]. *)

val item_obj : string -> Obj_id.t
(** ["Item<name>"]. *)

(** {2 Transaction body helpers}

    Thin wrappers around {!Runtime.call} on the Enc object, to be used
    inside transaction bodies run by {!Engine.run}. *)

val insert : t -> Runtime.ctx -> key:string -> text:string -> unit
val search : t -> Runtime.ctx -> key:string -> string option
val update : t -> Runtime.ctx -> key:string -> text:string -> bool

val delete : t -> Runtime.ctx -> key:string -> bool
(** Remove the key from the index, destroy the item, unlink it from the
    list; [false] when absent. *)

val range : t -> Runtime.ctx -> lo:string -> hi:string -> (string * string) list
(** Entries with [lo <= key < hi] with their texts, in key order — a
    predicate read that conflicts with every writer at the Enc level. *)

val read_seq : t -> Runtime.ctx -> string list

(** {2 Structure statistics (Fig. 2)} *)

type structure = {
  height : int;
  internal_nodes : int;
  leaf_nodes : int;
  keys : int;
  items : int;
  pages : int;
}

val structure : t -> structure
val pp_structure : Format.formatter -> structure -> unit

val offline_spec : Ooser_core.Ids.Obj_id.t -> Ooser_core.Commutativity.spec option
(** Resolve dynamically-registered object families (pages, B+ tree
    nodes/leaves, items) by name, for certifying recorded traces
    against a rebuilt database that never allocated them.  [None] for
    names outside the encyclopedia's dynamic families. *)
