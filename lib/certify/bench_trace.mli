(** Synthetic million-transaction traces for the certification
    benchmark and the CI gate.

    The workload is a stream of flat transactions over a bounded key
    universe (objects [K0..K(keys-1)] with read/write semantics, reads
    commute, writes conflict with everything).  Transactions execute in
    bursts: each transaction's key operations occupy a contiguous stamp
    block — so every conflict edge follows block order and the history
    is serializable by construction — while a trailing read of a shared
    [PAD] object (reads commute, so it adds no edges) is stamped after
    all the burst's blocks, stretching every span so no quiescent point
    exists inside a burst.  A quiescent gap separates consecutive
    bursts — the segmenter cuts at the first burst boundary past its
    target, so every segment holds whole bursts.  Everything is
    deterministic in the seed.

    Conflicting pairs on a hot key each cost the certifier an edge, so
    total per-segment work grows quadratically with segment length on a
    fixed universe — which is precisely why smaller segments (more
    workers) certify the same trace with less total work, and why the
    scaling gate holds even on a single hardware thread. *)

val registry_name : string
(** ["bench:rw"], written into generated trace headers and resolved by
    [oosdb certify]. *)

val registry : unit -> Ooser_core.Commutativity.registry

type params = {
  txns : int;
  keys : int;  (** key universe; smaller = hotter = more edges *)
  calls : int;  (** primitives per transaction *)
  burst : int;  (** transactions whose spans fully interleave *)
  p_write : float;
  seed : int;
  plant_cycle : bool;
      (** plant one dependency cycle mid-trace (two transactions
          writing two keys in opposite orders) — for exercising the
          rejection path end to end *)
}

val default_params : params
(** 100k transactions, 512 keys, 3 calls, bursts of 64, 30% writes,
    no planted cycle. *)

val generate : path:string -> params -> unit
(** Write the trace to [path]. *)
