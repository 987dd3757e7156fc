(** Actions: executed messages on objects (Defs. 1–3).

    A message [O.m(params)] sent to object [O] becomes an action once it is
    numbered within a transaction's call tree.  Every action carries the
    process it belongs to (Def. 9): actions of the same process never
    conflict. *)

open Ids

type t = {
  id : Action_id.t;
  obj : Obj_id.t;  (** object the message is sent to *)
  meth : string;  (** method name *)
  args : Value.t list;  (** parameters *)
  process : Process_id.t;
  pin : Value.t option;
      (** execution-time pin: the object state the action executed in,
          as reported by the pin function the object was registered
          with ([None] for objects without one, and for actions that
          never executed, e.g. analyzer probes).  State-dependent
          commutativity specs (escrow, fifo) decide on pins instead of
          live state, which keeps every verdict a pure function of the
          recorded history. *)
}

val v :
  id:Action_id.t ->
  obj:Obj_id.t ->
  meth:string ->
  ?args:Value.t list ->
  ?pin:Value.t ->
  process:Process_id.t ->
  unit ->
  t

val id : t -> Action_id.t
val obj : t -> Obj_id.t
val meth : t -> string
val args : t -> Value.t list
val process : t -> Process_id.t
val pin : t -> Value.t option

val with_pin : t -> Value.t -> t
(** The same action pinned to an execution-time state. *)

val is_virtual : t -> bool
(** True for virtual duplicates created by the system extension (Def. 5). *)

val with_virtual : t -> rank:int -> obj:Obj_id.t -> t
(** Virtual duplicate of this action on the virtual object [obj]. *)

val compare : t -> t -> int
(** By identifier. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Binary relations over actions, keyed by {!Ids.Action_id}. *)
module Rel : Digraph.S with type vertex = Action_id.t

(** Maps keyed by ordered pairs of action identifiers (dependency
    edges). *)
module Pair_map : Map.S with type key = Action_id.t * Action_id.t
