(** Encyclopedia workloads: transaction mixes over the Fig. 2
    application — inserts of new items, keyed searches, in-place updates,
    and the long sequential read (readSeq) that conflicts with every
    writer at the Enc level (§1's publication environment). *)

open Ooser_oodb
module Rng = Ooser_sim.Rng
module Dist = Ooser_sim.Dist

type mix = {
  p_insert : float;
  p_search : float;
  p_update : float;
  p_readseq : float;
}

val insert_heavy : mix
val with_scans : mix

type params = {
  mix : mix;
  dist : Dist.t;
  ops_per_txn : int;
  n_txns : int;
  preload : int;
}

val default_params : params

val key_of : int -> string

val preload :
  ?keep:(string -> bool) -> Database.t -> Encyclopedia.t -> keys:int -> unit
(** Populate the encyclopedia in one unmeasured transaction.  [keep]
    filters the seeded keys — a shard preloads only the partition its
    router assigns to it. *)

val transactions :
  rng:Rng.t ->
  params ->
  Encyclopedia.t ->
  (int * string * (Runtime.ctx -> Ooser_core.Value.t)) list
(** Deterministic transaction scripts for {!Engine.run}. *)

val static_summaries :
  rng:Rng.t -> params -> Encyclopedia.t -> Ooser_analysis.Summary.t list
(** Static call summaries of {!transactions} at the schema level (Enc,
    BpTree, LinkedList); an [rng] created from the same seed yields the
    same operation scripts.  BpTree.insert includes its potential
    re-entrant grow call — the Def. 5 extension site of Example 3. *)

val setup :
  ?fanout:int ->
  rng:Rng.t ->
  params ->
  Database.t
  * Encyclopedia.t
  * (int * string * (Runtime.ctx -> Ooser_core.Value.t)) list
(** Fresh database + encyclopedia, preloaded, plus the transaction
    scripts. *)
