(** Identifiers for objects, actions, and processes.

    Action identifiers follow the paper's hierarchical numbering (Def. 2):
    the action [a_{i w}] of top-level transaction [T_i] is identified by
    the transaction index [i] and the path [w] of child positions from the
    root.  Virtual duplicates introduced by the system extension (Def. 5)
    carry a virtual rank so they never collide with real identifiers. *)

(** Database object identifiers.  A virtual object [O'] (Def. 5) is the
    original identifier with a positive rank; [O''] has rank 2, etc. *)
module Obj_id : sig
  type t

  val v : string -> t
  (** [v name] is the (non-virtual) object named [name]. *)

  val name : t -> string
  (** Base name, without virtual primes. *)

  val rank : t -> int
  (** 0 for real objects, [k] for the [k]-th virtual duplicate. *)

  val is_virtual : t -> bool

  val virtualize : t -> rank:int -> t
  (** The [rank]-th virtual duplicate of this object. *)

  val original : t -> t
  (** Strip virtual rank. *)

  val compare : t -> t -> int
  val equal : t -> t -> bool

  val to_string : t -> string
  (** E.g. ["Page4712"], ["O1'"]. *)

  val pp : Format.formatter -> t -> unit

  val hash : t -> int
  (** Agrees with {!equal}. *)

  module Set : Set.S with type elt = t
  module Map : Map.S with type key = t
  module Tbl : Hashtbl.S with type key = t
end

(** Process identifiers (Def. 9).  A top-level transaction may consist of
    several parallel processes; actions of the same process never
    conflict. *)
module Process_id : sig
  type t

  val v : top:int -> branch:int -> t
  val main : int -> t
  (** [main i] is the single sequential process of transaction [T_i]. *)

  val top : t -> int
  val branch : t -> int
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

(** Hierarchical action identifiers. *)
module Action_id : sig
  type t

  val root : int -> t
  (** [root i] identifies the top-level transaction [T_i] itself. *)

  val child : t -> int -> t
  (** [child t i] is the [i]-th (1-based, by convention) action called by
      [t]. *)

  val v : top:int -> path:int list -> t
  val virtualize : t -> rank:int -> t
  (** Identifier for a virtual duplicate (Def. 5). *)

  val is_virtual : t -> bool
  val devirtualize : t -> t
  val top : t -> int
  val path : t -> int list

  val depth : t -> int
  (** 0 for top-level transactions. *)

  val is_root : t -> bool

  val parent : t -> t option
  (** Identifier of the (non-virtual) calling action; [None] at the root. *)

  val is_parent : t -> t -> bool
  (** [is_parent p c] iff [parent c = Some p] (by {!equal}), without
      allocating. *)

  val is_proper_ancestor : t -> t -> bool
  (** [is_proper_ancestor a b]: [a] calls [b] directly or indirectly
      ([a →+ b] with [a ≠ b]). *)

  val compare : t -> t -> int
  val equal : t -> t -> bool

  val to_string : t -> string
  (** E.g. ["T3"], ["a3.1.2"], ["a3.1.2'"]. *)

  val pp : Format.formatter -> t -> unit

  val hash : t -> int
  (** Agrees with {!equal}; allocation-free. *)

  module Set : Set.S with type elt = t
  module Map : Map.S with type key = t
  module Tbl : Hashtbl.S with type key = t
end
