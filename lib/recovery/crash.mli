(** Fault injection for the durability stack.

    An armed injector counts hits of one crash {!site} and raises
    {!Crashed} on the chosen hit, modelling the process dying at exactly
    that point.  The harness catches it, takes the stable log image and
    recovers into a fresh engine — nothing the live process held in
    memory survives. *)

type site =
  | Before_append  (** dies before the record reaches the log *)
  | After_append  (** record appended but unforced: lost on crash *)
  | After_force  (** record stable: must survive recovery *)
  | Mid_undo  (** during recovery's own undo pass (double crash) *)

exception Crashed of site

type t

val arm : site -> after:int -> t
(** [arm site ~after:k] crashes on the [k+1]-th hit of [site]. *)

val point : t option -> site -> unit
(** Instrumented-site hook.  [None] is the production configuration.
    @raise Crashed when the armed hit is reached. *)

val fired : t -> bool
val site_name : site -> string
