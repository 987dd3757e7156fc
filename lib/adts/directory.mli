(** Directory: a name-to-value map (Weihl's directory type, §2).

    Keyed commutativity like the set, plus a [list] operation that reads
    every name and therefore conflicts with all updates — the phantom
    problem at the abstract-data-type level, analogous to the paper's
    readSeq on the encyclopedia. *)

open Ooser_core

type t

val create : unit -> t
val lookup : t -> Value.t -> Value.t option
val bind : t -> Value.t -> Value.t -> unit
val unbind : t -> Value.t -> unit
val names : t -> Value.t list
(** The bound names in key order ({!Ooser_core.Value.compare}), never
    in binding order. *)

val cardinal : t -> int

val spec : Commutativity.spec
