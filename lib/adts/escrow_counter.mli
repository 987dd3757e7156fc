(** Escrow counter (O'Neil; [9, 14, 17] in the paper).

    A bounded counter whose increments and decrements commute as long as
    the escrow test guarantees both succeed in either order — the
    parameter- and state-dependent commutativity refinement of §2, with
    the state pinned when each action executed. *)

open Ooser_core

type t

exception Bounds_violation of string

val create : ?low:int -> ?high:int -> int -> t
(** @raise Invalid_argument when the initial value is out of bounds. *)

val value : t -> int
val low : t -> int
val high : t -> int

val incr : t -> int -> unit
(** @raise Bounds_violation when the bound would be exceeded.
    @raise Invalid_argument on negative amounts. *)

val decr : t -> int -> unit
(** @raise Bounds_violation when the bound would be exceeded.
    @raise Invalid_argument on negative amounts. *)

val delta_of : Action.t -> int option
(** The signed amount of an [incr]/[decr] action; [None] for reads. *)

val pin : t -> Value.t
(** The execution-time pin of an action on this counter: the balance
    before it runs.  Register it with the object so the engine records
    it on every action ({!Action.pin}). *)

val spec : t -> Commutativity.spec
(** Pinned escrow commutativity: two updates commute when both orders
    stay within the counter's bounds from each action's pinned balance;
    unpinned updates conflict; reads conflict with updates and commute
    with reads.  Stable: the verdict reads the bounds and the two
    actions, never the live balance. *)
