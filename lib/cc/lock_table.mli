(** Semantic lock table.

    A lock entry records the action that acquired it and the scope action
    whose completion releases it.  In multi-level (open nested) locking
    the scope is the immediate caller: a lock taken for an operation on O
    is held until the calling subtransaction commits — precisely the span
    over which the paper's transaction dependencies at O matter.  In flat
    2PL the scope is the top-level transaction.

    Entries are grouped per object by (method, args, pin) class, with
    secondary indexes on scope, retainer and top-level transaction: a
    conflict probe touches only the classes held on one object (and can
    dismiss an entire class with a single raw commutativity test when
    the object's spec is {!Commutativity.stable}), and the release paths
    are index lookups rather than whole-table scans. *)

open Ooser_core

type entry = {
  action : Action.t;
  scope : Action_id.t;  (** released when this action completes *)
  mutable retainer : Action_id.t;
      (** Moss's rule: the acquirer while it runs, then escalated to its
          caller on completion; never conflicts with the retainer's
          descendants *)
  mutable live : bool;
      (** cleared on release; dead entries are purged from their class
          lazily, on the next scan that meets them *)
  clazz : clazz;  (** the (method, args, pin) class the entry is held in *)
}

and clazz

type t

val create : unit -> t

val add : t -> action:Action.t -> scope:Action_id.t -> unit

val conflicting : Commutativity.registry -> t -> Action.t -> entry list
(** Held entries on the action's object that conflict with it per the
    registry; entries on the requester's own call path are compatible. *)

val grants : entry -> int
(** Locks granted so far on the entry's object. *)

val changed_since : grants:int -> Action_id.t -> entry list -> bool
(** [changed_since ~grants requester blockers]: whether the {!conflicting}
    answer [blockers] (got when their object had granted [grants] locks)
    can differ now for the same action: a blocker was released or is
    retained on the requester's call path, or the object granted a lock,
    which may add a holder to wound or die for. *)

val release_scope : t -> Action_id.t -> unit
(** Drop every entry whose scope is the given action. *)

val escalate : t -> Action_id.t -> unit
(** The action completed: locks it retains move up to its caller. *)

val release_top : t -> int -> unit
(** Drop every entry belonging to a top-level transaction. *)

val live_for_top : t -> int -> entry list
(** Live entries held on behalf of one top-level transaction — after a
    session abort this must be empty. *)

val classes : t -> Obj_id.t -> int
(** The (method, args, pin) classes holding live entries on the object —
    the buckets a {!conflicting} probe on it visits.  A class leaves with
    its last live entry. *)

val total : t -> int
