(** Cutting a trace into independently-certifiable segments.

    Transactions are ordered by span start (minimum stamp).  A cut
    between consecutive positions is {e quiescent} when no transaction
    span crosses it — every transaction before the cut finished before
    every transaction after it started.  Dependency edges always point
    forward across a quiescent cut (an edge into the past would need a
    span overlapping the cut), so no dependency cycle crosses one: the
    segments on either side can be certified independently and the
    global verdict is exact.  Every boundary {!plan} makes is
    quiescent; a burst with no quiescent point inside stays whole. *)

type seg = {
  lo : int;  (** start position (inclusive) in {!plan}'s [order] *)
  hi : int;  (** end position (exclusive) *)
}

type t = {
  order : int array;
      (** record indices sorted by (min_stamp, max_stamp, index): the
          span-start order all positions refer to *)
  segs : seg array;  (** consecutive, tiling [0, n) *)
}

val plan : Trace.t -> target:int -> t
(** Greedy segmentation: grow each segment to [target] transactions and
    cut at the first quiescent point after that.  A trace with no
    quiescent point is one segment.  [target] is clamped to at least
    1. *)

val default_target : txns:int -> workers:int -> int
(** [ceil txns / (4 * workers)] — about four segments per worker, so
    work-stealing keeps every domain busy even when segment costs are
    skewed (dependency edges grow quadratically on contended objects,
    so halving segment length quarters the worst segment). *)
