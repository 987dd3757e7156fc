(** Certification scaling benchmark: incremental certifier vs the
    from-scratch checker on a chain workload whose per-commit conflict
    frontier is O(1) while its total history grows without bound.  The
    incremental path should certify each commit in near-constant time;
    a from-scratch check of the whole prefix grows super-linearly. *)

open Ooser_core

type point = { upto : int; seconds : float }
(** [upto] committed transactions; [seconds] is a mean per-commit
    certification time (incremental series) or one full-check wall time
    (scratch series). *)

type atlas_parity = {
  atlas_n : int;  (** transactions in each engine run *)
  parity : bool;
      (** the run with the statically compiled conflict table preloaded
          ({!Ooser_oodb.Engine.preload_atlas}) committed and aborted
          exactly the same transactions as the runtime-probe run *)
  committed : int;
  aborted : int;
  atlas_hits : int;  (** conflict decisions answered from the table *)
  table_cells : int;  (** dense-table coverage *)
  probe_ns : float;  (** mean memoised spec-probe decision time *)
  table_ns : float;  (** mean dense-table decision time *)
}

type infer_stats = {
  infer_decided : int;
      (** cells the spec inference decided on the adts target *)
  infer_total : int;
  infer_table_cells : int;
      (** argument-independent hand-agreeing cells it compiled *)
  infer_table_hits : int;
      (** benchmark probe decisions the inferred table answered *)
  hand_probe_ns : float;  (** memoised hand-spec probe decision time *)
  inferred_table_ns : float;
      (** the same decisions answered from the inferred table *)
}

type result = {
  n_txns : int;
  chunk : int;  (** commits averaged per incremental point *)
  incremental : point list;
  scratch : point list;
  act_edges : int;  (** certifier's total action-dependency edges *)
  inc_growth : float;  (** last / first incremental point *)
  scratch_growth : float;  (** last / first scratch sample *)
  len_growth : float;  (** history-length ratio between those points *)
  incremental_sublinear : bool;
      (** [inc_growth < max (len_growth / 2) 2.0] — the floor absorbs
          timer noise on short runs *)
  scratch_superlinear : bool;  (** scratch grows at least with length *)
  atlas : atlas_parity;
  infer : infer_stats;
      (** spec-inference coverage and inferred-table lookup latency
          ({!Ooser_analysis.Infer.run} on the adts target) *)
}

val tree : int -> Call_tree.t
(** Transaction [i] of the workload: read the shared HOT object, write
    own W{i}, write predecessor's W{i-1}. *)

val registry : Commutativity.registry

val atlas_table : ?n:int -> unit -> Commutativity.table
(** The chain workload's conflict table, compiled by the static atlas
    ({!Ooser_analysis.Atlas.build}) from its transaction summaries —
    what {!atlas_run} preloads into the engine. *)

val atlas_run : ?n:int -> unit -> atlas_parity
(** The engine parity experiment on its own (default 40 transactions);
    {!run} embeds its result. *)

val run : ?n:int -> ?chunk:int -> ?samples:int list -> unit -> result
(** Default: 600 transactions, chunks of 50, from-scratch samples at
    50/150/300/600.  Raises [Invalid_argument] if the workload ever
    fails certification — it is acyclic by construction. *)

val json_fields : result -> (string * Ooser_sim.Json.t) list
(** The members of the BENCH_incremental.json object ([oosdb bench]
    appends its datapoints to them). *)

val pp : Format.formatter -> result -> unit
