(** Incremental oo-serializability certification.

    Maintains the per-object dependency relations of the paper (action
    dependency, Def. 11; transaction dependency, Def. 10; combined =
    action ∪ added, Defs. 15/16) online, one committed transaction at a
    time, under Pearce–Kelly online cycle detection — so certifying a
    commit costs time proportional to the dependency edges the commit
    introduces, not to the length of the history.

    The evaluation is exact: on any committed prefix the maintained edge
    sets equal those of {!Schedule.compute}, hence the accept/reject
    verdict equals {!Serializability.check}.  Exactness requires every
    commutativity specification it meets to be {!Commutativity.stable}
    (pure in method names, arguments and execution-time pins); the
    certifier raises [Invalid_argument] on the first action of an object
    whose spec is not. *)

open Ids

type t

type relation = [ `Act | `Txn | `Combined ]

type rejection = {
  cyclic_obj : Obj_id.t;  (** object whose relation became cyclic *)
  relation : relation;
  cycle : Action_id.t list;  (** witness cycle *)
}

type outcome = {
  accepted : bool;
  rejection : rejection option;
  new_act_edges : int;  (** action-dependency edges this commit added *)
  new_txn_edges : int;  (** transaction-dependency edges this commit added *)
}

type stats = {
  commits : int;
  actions : int;  (** actions tracked, including virtual duplicates *)
  act_edges : int;
  txn_edges : int;
  probes : int;  (** member-level conflict tests performed *)
  class_skips : int;
      (** whole (method, args, pin) classes skipped via one memoized
          probe *)
  cache_hits : int;
  cache_misses : int;
}

val create : Commutativity.registry -> t

val require_stable : Commutativity.registry -> Obj_id.t -> unit
(** @raise Invalid_argument naming the object when its spec is not
    {!Commutativity.stable}. *)

val add_commit :
  t -> tree:Call_tree.t -> prims:(Action_id.t * int) list -> outcome
(** Certify one committing transaction. [prims] are the tree's executed
    primitives with their global execution stamps — stamps must be
    monotone across the whole run (order-isomorphic to positions in the
    committed execution order), which is what makes span comparisons
    agree with the oracle's.  On acceptance the certifier state advances
    to include the transaction; on rejection every tentative edge is
    rolled back and the state is exactly as before the call. *)

val n_commits : t -> int
val registry : t -> Commutativity.registry
val cache : t -> Commutativity.cache

val history : t -> History.t
(** The committed history as the oracle would see it: committed trees
    with their primitives sorted by stamp. Intended for tests comparing
    against {!Serializability.check}. *)

val objects : t -> Obj_id.t list
(** Objects (real and virtual) with certifier state. *)

val act_dep : t -> Obj_id.t -> Action.Rel.t
val txn_dep : t -> Obj_id.t -> Action.Rel.t
val combined_dep : t -> Obj_id.t -> Action.Rel.t

val stats : t -> stats
val pp_rejection : Format.formatter -> rejection -> unit
