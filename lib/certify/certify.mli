(** Offline certification of very large recorded histories.

    [run] cuts the trace into segments at quiescent points
    ({!Segment}) and certifies each segment with its own incremental
    certifier ({!Ooser_core.Incremental}) on a pool of OCaml domains
    (work-stealing over segments, largest first).  The global verdict
    is the conjunction of the segment verdicts, and it is exact: every
    dependency edge across a quiescent cut points forward (a backward
    edge needs a span reaching over the cut, Def. 13), so no cycle
    crosses a segment boundary.  A burst with no quiescent point inside
    stays one segment and is certified sequentially, exactly as the
    engine certifies it online. *)

open Ooser_core

type violation = {
  segment : int;  (** index of the refusing segment in trace order *)
  witness : int list;  (** transaction tops on the refused cycle *)
  detail : string;
}

type report = {
  ok : bool;
  violation : violation option;
  txns : int;
  segments : int;
  workers : int;
  act_edges : int;  (** per-segment certifier totals *)
  txn_edges : int;
  peak_live : int;  (** most segments being certified at once *)
  seg_seconds : float;  (** parallel certification phase, wall clock *)
  seg_busy_seconds : float;  (** summed across workers *)
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
