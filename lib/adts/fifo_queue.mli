(** FIFO queue with state-dependent commutativity (Spector & Schwartz,
    §2): enqueue and dequeue commute exactly when the queue is
    non-empty.  Two enqueues of the {e same} value also commute (the
    resulting queues are indistinguishable) — a conservative cell the
    spec-inference oracle closed, see DESIGN §16; two dequeues never
    do. *)

open Ooser_core

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int
val enqueue : t -> Value.t -> unit
val dequeue : t -> Value.t option
val peek : t -> Value.t option

val to_list : t -> Value.t list
(** The elements, front first. *)

val pin : t -> Value.t
(** The execution-time pin of an action on this queue: whether it was
    empty before the action ran. *)

val spec : Commutativity.spec
(** Pinned commutativity: enqueue and dequeue commute when the queue
    was non-empty at both actions' pinned pre-states; unpinned probes
    conflict.  Stable. *)
