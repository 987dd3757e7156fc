(** The network transaction server: a single-threaded [Unix.select]
    event loop multiplexing many client sessions onto one effects
    engine, with admission control, per-session deadlines and graceful
    shutdown.  See {!Wire} for the protocol and {!Session} for the
    command-log bridge that makes engine-internal retries invisible to
    clients. *)

type addr = Unix_sock of string | Tcp of int
(** [Tcp] binds the loopback interface only. *)

val sockaddr_of : addr -> Unix.sockaddr
val pp_addr : Format.formatter -> addr -> unit

type protocol_kind = [ Ooser_shard.Engine_stack.lock_kind | `Occ | `Occ_rw ]
(** [`Occ] is the multiversion optimistic protocol with
    commutativity-aware commit validation, [`Occ_rw] the same protocol
    validating on the read/write projection (plain-SSI baseline).  Both
    are single-engine, in-memory, banking-database only: the occ store
    registers the database itself, {!certified} checks the store's
    multiversion history, and STATS counters appear under the ["occ."]
    prefix ([occ.validations], [occ.aborts], [occ.commute-saves]). *)

val protocol_kind_name : protocol_kind -> string

type config = {
  addr : addr;
  db_kind : Ooser_shard.Engine_stack.db_kind;
  protocol_kind : protocol_kind;
  shards : int;
      (** 0 = classic single-engine path.  [N >= 1] partitions objects
          across [N] shard engines, each on its own OCaml 5 domain, and
          routes every transaction through the
          {!Ooser_shard.Dispatcher}: single-shard transactions commit
          entirely inside their shard, multi-shard ones 2PC through the
          Def. 15 cross-shard certifier. *)
  max_inflight : int;
      (** admission limit: transactions beyond it queue FIFO, their
          [Begun] reply delayed as backpressure *)
  default_timeout_ms : int;  (** for BEGIN with [timeout_ms = 0]; 0 = none *)
  drain_grace : float;
      (** seconds in-flight transactions get to finish on shutdown
          before their deadline aborts them *)
  preload : int;  (** encyclopedia seed keys, named [k%05d] *)
  fanout : int;
  accounts : int;  (** banking accounts, objects [Account%d] *)
  products : int;  (** inventory products on object [Store] *)
  name : string;
  durable_dir : string option;
      (** journal commits to [DIR/oplog.bin]; boot recovers the
          directory's snapshot + stable log through the engine, then
          checkpoints (folds the winners into [DIR/snapshot.bin] and
          restarts the log); a graceful drain checkpoints again *)
  trace_path : string option;
      (** record the committed history to [FILE] as an
          offline-certifiable trace ({!Ooser_certify.Trace}) for
          [oosdb certify]: a single-shard server streams every commit
          as it happens (the current incarnation only — recovered
          commits are not re-recorded); a sharded server exports the
          merged cross-shard history once, at drain *)
}

val default_config : addr -> config
(** Encyclopedia over open nested locking, 32 in-flight, no default
    timeout, 5s drain grace, 200 preloaded keys, not durable. *)

type t

val create : config -> t
(** Build the database and engine and bind the listening socket.
    @raise Unix.Unix_error when the address is unavailable. *)

val port : t -> int
(** The bound TCP port (useful with [Tcp 0]); raises for unix sockets. *)

val step : t -> timeout:float -> unit
(** One event-loop round: wait up to [timeout] seconds for socket
    events (shortened to the nearest transaction deadline), ingest
    frames, pump the engine, flush responses.  Exposed so tests can
    drive the server in-process without threads. *)

val serve : t -> unit
(** [step] until shutdown completes. *)

val running : t -> bool
val initiate_shutdown : t -> unit
val close : t -> unit
(** Immediate shutdown: close every socket without draining. *)

val stats_json : ?certified:bool option -> t -> string
(** Pass [~certified:(Some v)] to reuse an already-computed
    {!certified} verdict instead of re-running the full check. *)

val certified : t -> bool
(** Oo-serializability of the committed history so far.  A single-engine
    [-p certify] server answers in O(1) from its live certifier
    ({!Ooser_oodb.Engine.live_certified}); the other protocols (and
    sharded servers) run a from-scratch check — minutes, not
    milliseconds, on long histories. *)

val engine : t -> Ooser_oodb.Engine.t
(** The single-engine backend.  In sharded mode ([config.shards > 0])
    this is an inert placeholder — use {!dispatcher}. *)

val protocol : t -> Ooser_cc.Protocol.t
val dispatcher : t -> Ooser_shard.Dispatcher.t option
(** The sharded backend, when [config.shards > 0]. *)

val occ_store : t -> Ooser_occ.Store.t option
(** The multiversion store backing an occ-mode server; [None] for lock
    kinds. *)

val metrics : t -> Metrics.t
val inflight : t -> int

val last_recovery : t -> Ooser_oodb.Engine.recovery_report option
(** The boot-time recovery report when the server was created with
    [durable_dir] set; [None] for an in-memory server. *)
