(** Commutativity-spec inference: derive method x method (x argument
    class) matrices from executable ADT semantics and diff them against
    the registered hand-written specs (DESIGN §16).

    For every object group of a {!Lint.target} (objects sharing a spec)
    that has an executable {!Semantics.model}, the analyzer evaluates
    each method-pair cell, split by argument class, against the
    ground-truth oracle {!Semantics.commute_at}:

    - {b commuting} verdicts require the oracle to agree at every
      enumerated small-scope state {e and} a randomized-state pass —
      inference never declares a falsely commutative cell;
    - {b conflicting} verdicts carry a minimal witness (the first
      refuting state in the small-to-large enumeration, with the
      argument vectors and the failing check);
    - cells the models cannot execute (methods outside the model
      vocabulary, specs without a model) stay {b undecided}.

    The diff against the registered spec feeds the shared
    {!Diagnostic} pipeline:

    - [INFER001] (error): the hand spec claims a pair commutes that
      execution refutes — unsound, the engine would certify a
      non-serializable interleaving.  {!witness_history} turns the
      witness into a replayable history that
      [Ooser_core.Serializability.check] rejects.
    - [INFER002] (warning): the hand spec conflicts a cell every probed
      execution commutes — sound but conservative; the message counts
      the workload summary pairs that lose concurrency.
    - [INFER003] (info): undecidable cells, so silence is never mistaken
      for a verdict. *)

open Ooser_core

(** Argument-class relation of a probed pair of argument vectors. *)
type arg_rel =
  | Same_args  (** identical vectors (including both empty) *)
  | Same_key  (** equal first argument, different rest *)
  | Distinct  (** different first arguments *)
  | Mixed  (** exactly one vector is empty *)
  | Any  (** no concrete vectors — undecided cells *)

val rel_of : Value.t list -> Value.t list -> arg_rel
(** Classify a concrete argument-vector pair ([Any] is never
    returned for concrete vectors). *)

type evidence =
  | Structural of string
      (** footprint shortcut (read/read or key-disjoint), still
          confirmed by the oracle *)
  | Tested of { states : int; arg_pairs : int }

type witness = {
  w_state : Value.t;  (** minimal refuting state *)
  w_args : Value.t list;
  w_args' : Value.t list;
  w_reason : string;
}

type verdict = Commutes of evidence | Conflicts of witness | Undecided of string

type cell = {
  meth : string;
  meth' : string;
  rel : arg_rel;
  verdict : verdict;
}

type group = {
  spec_name : string;
  members : string list;  (** object names sharing the spec *)
  audited : bool;  (** an executable model was found *)
  cells : cell list;
}

type t = {
  target_name : string;
  groups : group list;
  diagnostics : Diagnostic.t list;  (** INFER001/002/003, errors first *)
  decided : int;  (** cells with a Commutes/Conflicts verdict *)
  total : int;
  unsound_cells : (string * cell) list;  (** INFER001 backing cells *)
  conservative_cells : (string * cell) list;  (** INFER002 backing cells *)
}

val run : ?seed:int -> ?random_states:int -> Lint.target -> t
(** Audit one lint target.  [random_states] (default 100) is the size of
    the randomized-state soundness pass per object group; [seed]
    (default 0) drives it deterministically. *)

val unsound : t -> (string * cell) list
(** [(spec_name, cell)] for every INFER001 — hand-commutative cells the
    oracle refuted (the [unsound_cells] field). *)

val conservative : t -> (string * cell) list
(** [(spec_name, cell)] for every INFER002 — provably commuting cells
    the hand spec conflicts (the [conservative_cells] field). *)

val witness_history :
  obj:string ->
  meth:string ->
  args:Value.t list ->
  meth':string ->
  args':Value.t list ->
  History.t
(** A minimal replayable history exercising the witness pair: T1 calls
    [meth] twice, T2 calls [meth'] once in between, under a registry
    where exactly [(meth, meth')] conflicts.  If the conflict is real
    the interleaving is cyclic and [Serializability.check] rejects it —
    the executable form of an INFER001 finding. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Ooser_sim.Json.t
(** Stable JSON document: groups with per-cell verdicts and witnesses,
    coverage, and the diagnostics. *)
