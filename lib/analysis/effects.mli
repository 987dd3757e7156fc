(** Per-transaction effect summaries.

    The first stage of the static conflict atlas: abstract each
    transaction summary into the set of (object, method, arguments)
    classes it can reach — the argument-class abstraction.  Every
    downstream commutativity decision over a stable spec (Def. 9) is a
    pure function of that triple, so two calls in the same class are
    interchangeable for the analysis.  Depth information is kept for the
    inheritance analysis (Defs. 10-11) and the open-nested compensation
    rule (COMP001). *)

open Ooser_core

type atom = {
  obj : Obj_id.t;  (** de-virtualised object *)
  meth : string;
  args : Value.t list;
  depth : int;  (** shallowest occurrence; 1 = called by the root *)
  count : int;  (** occurrences of this class in the summary *)
}

type t = {
  txn : string;
  atoms : atom list;  (** distinct classes, first-touch order *)
  objects : Obj_id.t list;  (** distinct objects, first-touch order *)
  max_depth : int;
}

val of_summary : Summary.t -> t

val atoms_on : t -> Obj_id.t -> atom list
(** Classes on one (de-virtualised) object. *)

val shape_key : Summary.t -> string
(** Canonical structural key of the summary's call tree; equal keys mean
    the same transaction type regardless of the instance name. *)

val pp : Format.formatter -> t -> unit
