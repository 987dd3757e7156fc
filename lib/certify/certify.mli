(** Offline certification of very large recorded histories.

    [run] cuts the trace into segments at quiescent points
    ({!Segment}), certifies each segment with its own incremental
    certifier ({!Ooser_core.Incremental}) on a pool of OCaml domains
    (work-stealing over segments, largest first), then stitches the
    segments' boundary dependency frontiers — their Def. 15 root-root
    transaction-dependency edges, the shard coordinator's edge currency
    — through one Pearce–Kelly topological order so the concatenated
    per-segment verdicts are globally sound.

    Soundness of the composition:
    - {b Quiescent cuts are exact.}  Every dependency edge across a
      quiescent cut points forward (a backward edge needs a span
      reaching over the cut), so no cycle crosses one and the global
      verdict is the conjunction of the per-side verdicts.
    - {b Heuristic chains, flat transactions.}  When spans straddle a
      heuristic cut, every cross-segment dependency between depth-1
      transactions escalates to root endpoints, and the direct edges
      between two transactions derive from their two trees and stamps
      alone — so pairwise probes (a two-transaction incremental
      certifier per footprint-intersecting cross-segment pair) recover
      the complete cross-cut frontier, and acyclicity of the stitched
      root-root union equals the monolithic verdict.
    - {b Heuristic chains, nested transactions.}  A dependency between
      depth ≥ 2 actions can constrain tops through an inherited edge no
      pairwise probe sees, so a chain containing any depth ≥ 2 action
      is escalated: its segments are merged and certified sequentially
      as one work unit, which restores exactness at the cost of
      parallelism within that chain only. *)

open Ooser_core

type violation = {
  where : [ `Segment of int | `Probe of int * int | `Stitch ];
      (** which stage refused: a segment's own certifier, the pairwise
          probe of two transactions (tops given), or the global
          topological order *)
  witness : int list;  (** transaction tops on the refused cycle *)
  detail : string;
}

type report = {
  ok : bool;
  violation : violation option;
  txns : int;
  segments : int;
  quiescent_cuts : int;
  heuristic_cuts : int;
  multi_chains : int;  (** chains of more than one segment *)
  escalated : int;  (** chains merged for nested transactions *)
  workers : int;
  probes : int;  (** cross-segment pairwise probes run *)
  probe_edges : int;
  root_edges : int;  (** root-root edges stitched into the global order *)
  act_edges : int;  (** per-segment certifier totals *)
  txn_edges : int;
  peak_live : int;  (** most segments being certified at once *)
  seg_seconds : float;  (** parallel certification phase, wall clock *)
  seg_busy_seconds : float;  (** summed across workers *)
  stitch_seconds : float;
  elapsed_seconds : float;
  segment_txn_per_s : float;  (** txns / seg_seconds *)
}

val run :
  ?workers:int ->
  ?segment_target:int ->
  registry:Commutativity.registry ->
  Trace.t ->
  report
(** Certify the trace.  [workers] defaults to 4; [segment_target]
    defaults to {!Segment.default_target}, about four segments per
    worker.  The registry must be stable ({!Commutativity.stable}) for
    every object the trace touches — the same exactness requirement as
    the online incremental certifier (escrow and fifo qualify: they
    decide on the pins the trace records). *)

val to_json : report -> Ooser_sim.Json.t
(** The [oosdb certify --json] payload. *)

val pp : Format.formatter -> report -> unit
