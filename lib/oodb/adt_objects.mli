(** The semantically rich abstract data types of §2 registered as
    encapsulated database objects: each object couples the ADT state with
    its commutativity specification, and every update registers an undo
    closure so aborts stay atomic.

    Methods (all primitive):
    - counter: [incr n] / [decr n] / [read] (escrow commutativity);
    - set: [insert v] / [remove v] / [contains v] / [cardinal];
    - queue: [enqueue v] / [dequeue] → [("some", v)] or [("none", ())] /
      [length] (state-dependent commutativity);
    - directory: [bind k v] / [unbind k] / [lookup k] / [list] (keyed,
      with the phantom-prone [list]).

    The returned ADT handles allow direct (non-transactional) inspection
    in tests and reports. *)

open Ooser_core

val counter_methods :
  Ooser_adts.Escrow_counter.t ->
  incr:string ->
  decr:string ->
  read:string ->
  (string * Database.meth) list
(** The escrow counter's [incr]/[decr]/[read] method table under the
    given names: [register_counter] and the banking accounts
    ([deposit]/[withdraw]/[balance]) both register it. *)

val register_counter :
  Database.t ->
  Obj_id.t ->
  ?low:int ->
  ?high:int ->
  int ->
  Ooser_adts.Escrow_counter.t

val register_set : Database.t -> Obj_id.t -> Ooser_adts.Kv_set.t
val register_queue : Database.t -> Obj_id.t -> Ooser_adts.Fifo_queue.t
val register_directory : Database.t -> Obj_id.t -> Ooser_adts.Directory.t
