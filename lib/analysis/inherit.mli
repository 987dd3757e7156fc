(** Static dependency-inheritance analysis over one pair of transaction
    summaries (Defs. 10-13 read as structure).

    The pair is instantiated as two call trees and put through the real
    Def. 5 extension ({!Ooser_core.Extension.extend}), so virtual
    objects and caller edges come from the same machinery the dynamic
    checker uses.  A {!channel} is a conflicting cross-transaction leaf
    pair; following Defs. 10-11 it deposits dependency edges while
    climbing the call trees, and the climb stops exactly where the paper
    says inheritance stops: at a commuting caller pair (Def. 11), at
    callers on different objects, or at the top-level transactions.

    Soundness: one channel deposits at most one cross-transaction edge
    per object (Def. 5 guarantees a call path never revisits an object
    after extension), and every cross-transaction edge of the per-object
    dependency relations originates in some channel.  A per-object cycle
    needs two cross edges at one object, so a pair whose channels share
    no deposit object is oo-serializable under every interleaving;
    pairs with {!field-shared} objects are candidates for the exhaustive
    replay in {!Atlas}. *)

open Ooser_core

val default_sys : Obj_id.t

val with_system : sys:Obj_id.t -> Commutativity.registry -> Commutativity.registry
(** The registry as the engine sees it: [sys] commutes with everything
    (Def. 4 — the system object's actions carry no semantics). *)

val instantiate : ?sys:Obj_id.t -> top:int -> Summary.t -> Call_tree.t
(** Build transaction [T_top] from a summary, children sequential. *)

type stop =
  | Reached_top
      (** the conflict escalated into a top-level transaction dependency *)
  | Callers_commute
      (** Def. 11: a commuting caller pair absorbs the conflict *)
  | Different_objects
      (** callers on different objects: nothing further to inherit *)

type channel = {
  source : Obj_id.t;  (** object of the conflicting leaf pair *)
  leaves : Action_id.t * Action_id.t;
  meths : string * string;
  trail : Obj_id.t list;
      (** objects holding an inherited action dependency, leaf first *)
  deposits : Obj_id.t list;  (** every object receiving any edge *)
  stop : stop;
}

type t = {
  left : Summary.t;
  right : Summary.t;
  tops : Call_tree.t * Call_tree.t;  (** instantiated as T1 and T2 *)
  registry : Commutativity.registry;  (** augmented: sys all-commutes *)
  ext : Extension.t;  (** extension of the serial pair history *)
  channels : channel list;
  shared : Obj_id.t list;
      (** objects receiving deposits from two or more distinct channels *)
  unstable : Obj_id.t list;
      (** touched objects whose specs read state — live (unstable) or
          pinned at execution ({!Commutativity.pinned}): statically
          undecidable *)
}

val analyse :
  ?sys:Obj_id.t -> Commutativity.registry -> Summary.t -> Summary.t -> t

val reaches_top : channel -> bool

