(** Executable small-scope semantics for the shipped ADTs.

    Spec inference (DESIGN §16) needs ground truth to compare a
    commutativity specification against.  This module provides it
    without a second copy of any method: for each ADT in [lib/adts] a
    {!model} whose instances register the shipped object
    ({!Ooser_oodb.Adt_objects}) in a private database and run its
    registered methods through {!Ooser_oodb.Database.run_direct}.  A
    model contributes only what is not method code:

    - a canonical {e state encoding} as a {!Ooser_core.Value.t} (so
      witnesses print, serialize and replay),
    - a generator of small enumerated states (ordered small to large —
      the first failing state is a minimal witness) plus a QCheck
      random-state generator for the randomized soundness pass,
    - an {e observation} of the abstract state (the directory's reads
      through its shipped [list] and [lookup], so inference sees what
      clients see),
    - per-method static {e footprints} for the effect-disjointness
      shortcut (read/read and distinct-key pairs), and argument vectors.

    The oracle {!commute_at} decides whether two concrete calls commute
    at a state in the full open-nesting sense: both execution orders
    yield identical results and identical canonical states ({e forward}
    commutativity), {e and} undoing either call after the other ran —
    in both orders, and by both of the engine's undo routes — leaves
    exactly the state the surviving call alone produces ({e abort
    safety}).  A call that errors in either order conflicts
    conservatively.  Abort safety is what justifies hand-written
    conflict cells that look conservative under forward commutativity
    alone: the directory's same-key [bind]/[bind] pair forward-commutes
    on equal arguments, but the captured-old-binding undo of one order
    resurrects the wrong binding, so the hand conflict is right. *)

open Ooser_core

(** Result of executing or undoing one call: a returned value, or a
    semantic error (bounds violation, missing element, bad argument). *)
type outcome = Ret of Value.t | Err of string

type call = {
  result : outcome;
  undo : unit -> outcome;
      (** Run the call's undo closures, newest first: the engine's
          rollback of a frame that still holds its locks. *)
  compensate : unit -> outcome;
      (** Run the method's compensation, as the engine does once the
          call completed at its level: [Inverse] runs the named method,
          [Forget] nothing, [Keep_undo] (or none) is {!undo}. *)
}

(** One live ADT value at a specific abstract state. *)
type instance = {
  hand : Commutativity.spec;
      (** The shipped hand spec {e bound to this state} — for
          state-dependent specs (escrow, queue) this is the rebound
          family member at the instance's state. *)
  pin : Value.t option;
      (** The execution-time pin the engine records for an action run
          at this state ({!Ooser_core.Action.pin}); [None] for ADTs whose
          spec reads no pins.  Probes of a pinned spec carry it. *)
  exec : string -> Value.t list -> call;
      (** Execute a registered method now; mutates the instance. *)
  observe : unit -> Value.t;
      (** Canonical abstract state: representation details (binding
          order, back/front queue split) never show through. *)
}

(** Static per-method effect footprint. *)
type footprint =
  | Reads_all  (** reads the whole abstract state (e.g. [list]) *)
  | Writes_all  (** may write anywhere (e.g. [enqueue]) *)
  | Reads_key  (** reads only the first-argument key *)
  | Writes_key  (** writes only the first-argument key *)

type model = {
  model_name : string;
  spec_name : string;
      (** Name of the registered spec this model audits, as reported by
          [Commutativity.name] (e.g. ["keyed(kv-set)"]). *)
  vocab : string list;  (** methods the model can execute *)
  footprints : (string * footprint) list;
  arg_vectors : (string * Value.t list list) list;
      (** Candidate argument vectors per method, covering same-args,
          same-key and distinct-key pairings. *)
  states : Value.t list;  (** enumerated states, small to large *)
  gen_state : Value.t QCheck.Gen.t;  (** randomized-state generator *)
  instantiate : Value.t -> instance;
}

val instance :
  Ooser_oodb.Database.t ->
  Obj_id.t ->
  observe:(unit -> Value.t) ->
  instance
(** The runner every model uses, over the object registered under the
    id at the state to probe: [hand] and [pin] are its registered spec
    and pin, [exec] runs its registered methods. *)

val counter : model
(** Escrow counter; state [[low; high; value]].  Its object carries
    both the counter's and the banking accounts' method names. *)

val kv_set : model
(** Counted set; state = sorted [[(elem, count); …]], counts positive. *)

val fifo : model
(** FIFO queue; state = front-first element list. *)

val directory : model
(** Name-to-value map; state = key-sorted [[(key, value); …]]. *)

val all : model list

val for_spec : Commutativity.spec -> model option
(** The model auditing this registered spec, matched by spec name. *)

val footprint : model -> string -> footprint option

val vectors : model -> string -> Value.t list list
(** Argument vectors for a method ([[[]]] for unknown methods, so
    argument-less probing still works). *)

val commute_at :
  model -> Value.t -> string * Value.t list -> string * Value.t list -> bool
(** [commute_at m state (meth, args) (meth', args')] — the ground-truth
    oracle: forward commutativity plus all four abort-safety scenarios
    at [state].  Conservative: any error outcome, unequal result, state
    divergence or failing undo means [false]. *)

val forward_at :
  model -> Value.t -> string * Value.t list -> string * Value.t list -> bool
(** Forward commutativity alone (both orders, equal results and states,
    no abort scenarios) — used to label a refutation as
    order-distinguishable versus abort-unsafe. *)
