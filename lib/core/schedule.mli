(** Object schedules and the dependency-inheritance engine
    (Defs. 6, 10, 11, 15).

    [compute] turns a history into the system schedule: one object
    schedule per object (virtual ones included), each carrying

    - the action dependency relation [≺] (Def. 11) — bootstrapped at the
      leaves from the execution order (Axiom 1), including program-order
      pairs (Def. 7), and closed under inheritance;
    - the transaction dependency relation [⇒] (Def. 10) — dependencies of
      *conflicting* actions inherited to their callers; commuting callers
      stop the inheritance;
    - the added action dependency relation (Def. 15) — transaction
      dependencies recorded at other objects, attached redundantly to the
      objects of both endpoints. *)

open Ids

(** Why an action dependency edge exists (for diagnostics). *)
type dep_source =
  | Axiom1  (** conflicting leaves ordered by execution (Axiom 1) *)
  | Completion  (** leaf/non-leaf pair ordered by span (DESIGN.md) *)
  | Program_order  (** the n₃ precedence of Def. 7 *)
  | Inherited of Obj_id.t
      (** from the transaction dependency at that object (Def. 11) *)

type object_schedule = {
  obj : Obj_id.t;
  acts : Action_id.Set.t;  (** [ACT_O] *)
  act_dep : Action.Rel.t;  (** [≺] over [ACT_O] *)
  txn_dep : Action.Rel.t;  (** [⇒] over [TRA_O] *)
  added_dep : Action.Rel.t;
      (** transaction dependencies touching [ACT_O] recorded anywhere *)
  act_src : dep_source Action.Pair_map.t;
      (** provenance of every action dependency edge *)
  txn_src : (Action_id.t * Action_id.t) Action.Pair_map.t;
      (** for each transaction dependency, the conflicting action pair at
          this object that induced it (Def. 10's witness) *)
}

type t

val compute : ?ext:Extension.t -> History.t -> t
(** [compute h] builds the dependency relations of [h]'s extension.
    Pass [?ext] to reuse an [Extension.extend h] already at hand (it
    must be the extension of [h]); the engine uses this to avoid
    extending the same committed prefix twice. *)

val extension : t -> Extension.t
val objects : t -> object_schedule list
val find : t -> Obj_id.t -> object_schedule option

val find_exn : t -> Obj_id.t -> object_schedule
(** @raise Invalid_argument when the object has no actions. *)

val conflicts : Extension.t -> Action_id.t -> Action_id.t -> bool
(** Conflict test honouring Def. 9 (same-process actions commute) and the
    virtual-extension exclusion of call-path pairs. *)

val equivalent : t -> t -> bool
(** Def. 12 lifted to system schedules: every object's transaction
    dependency relation coincides. *)

val pp_object : Format.formatter -> object_schedule -> unit
val pp : Format.formatter -> t -> unit
