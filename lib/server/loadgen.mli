(** Closed-loop load generator: N concurrent sessions over one select
    loop, each running BEGIN → k CALLs → COMMIT in lock step, with
    deterministic (seeded) op mixes per database kind.  Emits the
    numbers behind [BENCH_server.json]. *)

module Stats = Ooser_sim.Stats

type cfg = {
  sockaddr : Unix.sockaddr;
  sessions : int;
  txns_per_session : int;
  calls_per_txn : int;
  db_kind : Ooser_shard.Engine_stack.db_kind;
  seed : int;
  timeout_ms : int;
  key_universe : int;
      (** encyclopedia: must match the server's preload count *)
  theta : float;
  accounts : int;
  products : int;
  shutdown : bool;  (** send SHUTDOWN once done *)
  rate : float;
      (** > 0 switches to open-loop mode: transactions arrive on a
          global schedule of [rate] per second, idle sessions claim the
          next due arrival, and latency is measured from the scheduled
          arrival (so it includes backlog queueing rather than being
          capped by the closed loop's self-throttling).  0 = closed
          loop. *)
  route_shards : int;
      (** > 0: shard-affine encyclopedia mix against a [--shards N]
          server — each session homes on shard [sid mod route_shards]
          (computed with the server's own {!Ooser_shard.Router}) and
          keeps its keys there, except for deliberate cross-shard
          excursions *)
  cross : float;
      (** probability a routed call targets a foreign shard, making the
          enclosing transaction a 2PC cross-shard commit *)
  trace_path : string option;
      (** record the client-observed committed history to [FILE] as an
          offline-certifiable trace ({!Ooser_certify.Trace}): each
          committed transaction becomes one flat record of its
          successful calls, stamped in result-observation order.  This
          is a black-box audit of the order the client actually saw —
          the server's own [trace_path] records the authoritative
          execution order. *)
}

val default_cfg : Unix.sockaddr -> cfg
(** 16 sessions, 8 txns each, 4 calls per txn, encyclopedia mix,
    closed loop, no shard routing (cross = 0.05 once enabled). *)

type result = {
  db : string;
  protocol : string;
  n_sessions : int;
  committed : int;
  aborted : int;
  calls : int;
  failed_calls : int;
  elapsed : float;
  throughput : float;
  latency : Stats.Histogram.t;
      (** BEGIN-on-the-wire → decision (closed loop) or scheduled
          arrival → decision (open loop), seconds *)
  offered_rate : float;  (** 0 = closed loop *)
  certified : bool option;
      (** the server's full oo-serializability verdict over everything
          this run committed, from the post-run STATS round *)
  stats_json : string option;
}

val run : ?tick:(unit -> unit) -> cfg -> result
(** Drive all sessions to completion.  [tick] runs every loop iteration
    — pass [fun () -> Server.step srv ~timeout:0.0] to load an
    in-process server single-threaded.
    @raise Failure if the run exceeds 300s or a stream is poisoned. *)

val certified_of_stats : string -> bool option
(** The [certified] verdict of a STATS document; [None] when it is
    [null] or missing. *)

val to_json : result -> Ooser_sim.Json.t
