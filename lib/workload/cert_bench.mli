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
}

val tree : int -> Call_tree.t
(** Transaction [i] of the workload: read the shared HOT object, write
    own W{i}, write predecessor's W{i-1}. *)

val registry : Commutativity.registry

val run : ?n:int -> ?chunk:int -> ?samples:int list -> unit -> result
(** Default: 600 transactions, chunks of 50, from-scratch samples at
    50/150/300/600.  Raises [Invalid_argument] if the workload ever
    fails certification — it is acyclic by construction. *)

val json_fields : result -> (string * Ooser_sim.Json.t) list
(** The members of the BENCH_incremental.json object. *)

val pp : Format.formatter -> result -> unit
