(** The whole-workload static conflict atlas.

    For every pair of transaction types in a workload ({!Summary}s
    deduped by call-tree shape, self-pairs included) the atlas records a
    {!verdict}:

    - [Safe]: a proof that every interleaving of the two transactions
      is oo-serializable — either structurally (no conflicting leaf
      pair, or all channels isolated: see {!Inherit}), or by exhaustive
      replay of every merge of the two primitive sequences through
      {!Ooser_core.Serializability.check};
    - [Unsafe]: a minimal witness schedule (fewest context switches
      found failing), replayable through the checker;
    - [Unknown]: a state-reading spec or an enumeration budget overrun —
      conservatively never claimed safe.

    The atlas also emits the HOT001 / COMP001 rules. *)

open Ooser_core

type safe_reason =
  | No_conflict  (** no conflicting leaf pair at all *)
  | Isolated_channels  (** channels share no deposit object *)
  | Exhausted of int  (** all [n] interleavings replayed and accepted *)

type witness = {
  w_order : Action_id.t list;  (** interleaved primitive execution order *)
  w_switches : int;  (** context switches; minimal among found failures *)
  w_objects : Obj_id.t list;  (** objects whose per-object relations fail *)
}

type verdict = Safe of safe_reason | Unsafe of witness | Unknown of string

type entry = {
  pair : string * string;
  verdict : verdict;
  inh : Inherit.t;
  interleavings : int;  (** total merge count, clamped to budget + 1 *)
}

type t = {
  target_name : string;
  summaries : Summary.t list;  (** deduped type representatives *)
  entries : entry list;
  diagnostics : Diagnostic.t list;  (** HOT001 / COMP001, sorted *)
}

val build : ?max_interleavings:int -> ?sys:Obj_id.t -> Lint.target -> t
(** Analyse every pair.  [max_interleavings] (default 20000) bounds the
    exhaustive replay per pair; beyond it the verdict is [Unknown]. *)

val witness_history : entry -> witness -> History.t
(** The witness as a checkable history (tops 1 and 2 of the entry, the
    witness order, the augmented registry) — feed it to
    {!Ooser_core.Serializability.check} to reproduce the rejection. *)

val safe_entries : t -> entry list
val unsafe_entries : t -> entry list
val unknown_entries : t -> entry list

val verdict_label : verdict -> string
val pp : Format.formatter -> t -> unit
val to_json : t -> Ooser_sim.Json.t
(** One JSON document: pairs with verdicts and witnesses, diagnostics
    (via {!Diagnostic.to_json}), and verdict counts. *)

val to_dot : t -> string
(** Graphviz rendering: one node per transaction type, one edge per
    pair, colored by verdict. *)
