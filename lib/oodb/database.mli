(** Object registry: the "homogeneous set of objects" of Def. 4.

    Every object is registered with its commutativity specification and
    its method table.  Methods are closures over the object's state —
    encapsulation is enforced by the engine, the only caller of method
    implementations. *)

open Ooser_core

(** What happens to this action's effects when the surrounding
    transaction aborts {e after} the action committed at its level (open
    nesting):
    - [Keep_undo] — replay the low-level undo closures of its subtree;
      only sound while the subtree's locks are still held;
    - [Forget] — the effects persist (structure modifications such as
      B-tree splits, which real systems never roll back);
    - [Inverse inv] — run a compensating invocation (the logical
      inverse), sound because the action's own semantic lock is still
      held by its caller. *)
type compensation =
  | Keep_undo
  | Forget
  | Inverse of Runtime.invocation

type meth = {
  kind : [ `Primitive | `Composite ];
      (** primitive methods call no other methods (Def. 3) and should
          register undo closures for the state they change *)
  run : Runtime.ctx -> Value.t list -> Value.t;
  compensate : (Value.t list -> Value.t -> compensation) option;
      (** [compensate args result] decides the abort policy once this
          action has committed at its level; [None] = [Keep_undo] *)
}

val primitive :
  ?compensate:(Value.t list -> Value.t -> compensation) ->
  (Runtime.ctx -> Value.t list -> Value.t) ->
  meth

val composite :
  ?compensate:(Value.t list -> Value.t -> compensation) ->
  (Runtime.ctx -> Value.t list -> Value.t) ->
  meth

type t

val create : unit -> t
(** A mutable registry, to be used from one domain at a time. *)

val register :
  t ->
  Obj_id.t ->
  spec:Commutativity.spec ->
  ?pin:(unit -> Value.t) ->
  (string * meth) list ->
  unit
(** [pin] reports the object state a state-dependent [spec] decides on
    (the escrow balance, the queue's emptiness); the engine records its
    value on every action when the action executes ({!Action.pin}).
    @raise Invalid_argument when the object already exists. *)

val register_or_replace :
  t ->
  Obj_id.t ->
  spec:Commutativity.spec ->
  ?pin:(unit -> Value.t) ->
  (string * meth) list ->
  unit

val mem : t -> Obj_id.t -> bool
val objects : t -> Obj_id.t list

val methods : t -> Obj_id.t -> string list
(** Names of the registered methods; [[]] for unknown objects.  The
    static analyzer uses this as the probing vocabulary for specs that
    declare none. *)

val spec : t -> Obj_id.t -> Commutativity.spec option

val pin : t -> Obj_id.t -> Value.t option
(** The object's pin at its current state; [None] when it registered
    none or is unknown. *)

val compensated_methods : t -> Obj_id.t -> string list
(** Names of registered methods that carry a compensation; the COMP001
    lint compares these against the methods reachable from open-nested
    abort paths. *)

val resolve :
  t -> Obj_id.t -> string -> (meth * (unit -> Value.t) option, string) result
(** The named method of the object together with the pin function the
    object was registered with ([None] when it registered none), from
    one lookup; [Error] names the unknown object or method. *)

val run_direct :
  t ->
  ?on_undo:((unit -> unit) -> unit) ->
  Runtime.ctx ->
  Runtime.invocation ->
  Value.t
(** Run a registered method to completion outside the scheduler: nested
    calls run at once, [try_call] maps a callee's [Runtime.Abort] to
    [Error], and every undo closure registered goes to [on_undo]
    (default: dropped), oldest first.
    @raise Failure ["compensation failed: …"] on an unknown object or
    method. *)

val spec_registry : ?default:Commutativity.spec -> t -> Commutativity.registry
(** Commutativity registry over the registered objects, for the protocols
    and the checker. *)
