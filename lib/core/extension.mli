(** System extension with virtual objects (Def. 5, Example 3 / Fig. 6).

    When a transaction calls an action (directly or indirectly) and both
    access the same object, the extension breaks the call cycle: the inner
    action moves to a virtual object; all other actions on the object are
    virtually duplicated onto the virtual object and linked to their
    originals by call edges, so dependencies arising at the virtual object
    are inherited to the original one.

    The extension also precomputes the indexes the checker needs: the
    direct-call relation, the per-object action sets [ACT_O], the
    execution spans, and the program-order relation n₃ (Def. 7). *)

open Ids

type t

val extend : History.t -> t
(** Extend a history per Def. 5.  Idempotent on histories without call
    cycles (no virtual objects are created). *)

val history : t -> History.t

val action : t -> Action_id.t -> Action.t
(** @raise Invalid_argument on unknown identifiers. *)

val caller_of : t -> Action_id.t -> Action_id.t option
(** Direct caller ([t → a]); virtual duplicates are called by their
    original.  [None] only for top-level transactions. *)

val acts_of : t -> Obj_id.t -> Action_id.Set.t
(** [ACT_O]: the actions on an object, after extension. *)

val objects : t -> Obj_id.t list
(** All objects with at least one action, virtual ones included. *)

val virtual_objects : t -> Obj_id.t list

val is_leaf : t -> Action_id.t -> bool
(** Primitive actions (Def. 3) and virtual duplicates: the actions whose
    conflicting executions are ordered directly (Axiom 1). *)

val span_of : t -> Action_id.t -> (int * int) option
(** First/last primitive position of the action's subtree; virtual
    duplicates inherit their original's span. *)

val same_call_path : Action_id.t -> Action_id.t -> bool
(** Whether two actions (devirtualised) lie on one call path of the same
    transaction — such pairs are never in conflict at virtual objects,
    mirroring Def. 5's exclusion of the calling transaction. *)

val prog_rel : t -> Action.Rel.t
(** The program-order (object precedence, Def. 7) relation n₃ over all
    actions. *)
