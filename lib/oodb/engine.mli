(** The execution engine: runs top-level transactions against the object
    database under a concurrency control protocol and records the
    resulting history for the serializability checkers.

    Each transaction runs as a tree of fibers (OCaml 5 effects).  A method
    body performing {!Runtime.call} yields control to the engine, which
    numbers the new action (the hierarchical numbering of Def. 2 falls out
    of the frame stack), asks the protocol for access, and either starts
    the target method or parks the transaction.  Interleaving decisions
    are taken exactly at invocation boundaries — the paper's action
    granularity.

    Aborts unwind the frame stack, run the undo log (primitive undo
    closures, or compensating invocations once a subtransaction has
    committed at its level — the open nesting rule), and optionally
    restart the transaction. *)

open Ooser_core
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng

(** What a scheduler hook sees of one runnable unit.  [u_boundary] is
    true exactly when picking the unit starts a transaction body or
    submits a fresh invocation to the protocol — the invocation
    boundaries where interleaving decisions are observable (the paper's
    action granularity); [u_obj]/[u_meth] name the pending invocation at
    such a boundary ([""] otherwise).  [u_task] is the engine-internal
    task id ([-1] for a not-yet-started body) — it distinguishes the
    parallel branches of one transaction. *)
type unit_label = {
  u_top : int;
  u_task : int;
  u_boundary : bool;
  u_obj : string;
  u_meth : string;
}

(** How the scheduler picks the next unit to advance.  {!pump} takes
    every pick, whether it starts a body, steps a task or runs a
    compensation.  [Controlled] delegates {e every} pick to the hook,
    which returns an index into the given labels (out of range, e.g.
    [-1], falls back to round-robin): a run under [Controlled] is a
    pure function of the hook's answers, which is what makes
    model-checking runs replayable choice sequences and lets a test
    script a specific interleaving. *)
type strategy =
  | Round_robin
  | Random_pick of Rng.t
  | Controlled of (unit_label list -> int)

(** Deadlock handling: [Detect] aborts the youngest member of a
    waits-for cycle; [Wound_wait] prevents cycles — older requesters
    abort younger lock holders, younger requesters wait; [Wait_die] is
    the symmetric prevention — older requesters wait, younger ones abort
    themselves and retry. *)
type deadlock_policy = Detect | Wound_wait | Wait_die

type config = {
  protocol : Protocol.t;
  strategy : strategy;
  max_steps : int;  (** engine-wide step budget *)
  max_restarts : int;  (** per-transaction restart budget after aborts *)
  deadlock : deadlock_policy;
  certify : bool;
      (** optimistic commit-time validation: a transaction commits only
          if the history of committed transactions plus itself is
          oo-serializable, else it is rolled back and retried.  The
          paper's §6 direction — pair it with {!Protocol.unlocked}.

          Because execution is lock-free, a transaction may read state
          written by a concurrent uncommitted transaction; rollbacks must
          therefore use LOGICAL undo (inverse deltas, compensations) —
          before-image restores can clobber a neighbour's update.  The
          escrow/counted ADTs of {!Adt_objects} satisfy this.

          Certification runs the {!Ooser_core.Incremental} certifier,
          which appends only the committing transaction's dependency
          edges under online cycle detection.  Every spec it meets must
          be {!Commutativity.stable}: state-dependent specs (escrow,
          fifo) decide on the state pinned when each action executed
          ({!Database.register}'s [pin]).  {!create} raises
          [Invalid_argument] naming an object registered with an
          unstable spec.  Counters ["cert-incremental"] and
          ["cert-oracle"] record which path each commit took. *)
  certify_oracle : bool;
      (** force the from-scratch checker even where the incremental
          certifier applies — the debugging / cross-checking mode *)
  now : unit -> float;
      (** clock for transaction deadlines; the default never advances,
          so deadlines are inert unless a real clock (e.g.
          [Unix.gettimeofday]) is injected — the library itself stays
          clock-free for deterministic batch runs *)
  next_stamp : (unit -> int) option;
      (** source of execution stamps for recorded primitives; [None]
          (the default) uses the engine's own monotone counter.  Shard
          engines share one atomic counter so their committed orders
          merge into a single global execution order by stamp. *)
}

val default_config : Protocol.t -> config
(** Round-robin, 1M steps, 20 restarts, no certification. *)

type outcome = {
  history : History.t;
      (** the committed execution: call trees + primitive order *)
  committed : int list;
  aborted : (int * string) list;  (** permanently failed, with reason *)
  results : (int * Value.t) list;
  steps : int;
  metrics : (string * int) list;
      (** {!metrics} at the end of the run *)
  latencies : (int * int) list;
      (** per committed transaction: scheduler steps from the final
          attempt's start to commit (response time) *)
}

val run :
  ?config:config ->
  ?journal:Ooser_recovery.Oplog.t ->
  Database.t ->
  protocol:Protocol.t ->
  (int * string * (Runtime.ctx -> Value.t)) list ->
  outcome
(** [run db ~protocol txns] executes the given top-level transactions
    [(id, name, body)] to completion (commit, permanent abort, or step
    budget): a {!create}, one {!submit} per body in order, and a
    {!pump}.  When that pump spends [config.max_steps], every
    transaction still running is aborted with ["step budget"] and the
    engine is pumped on, up to [4 * config.max_steps] steps in all, so
    the compensations can finish; whatever is still running then is
    abandoned without compensation.  Within the budget, a body parked
    on {!Runtime.await} is left running.  [journal] attaches a durable
    operation log (see {!set_journal}). *)

(** {1 Dynamic driving}

    The network server grows the transaction set while the engine runs:
    sessions {!submit} interactive transactions whose bodies park on
    {!Runtime.await} between client commands; the server {!poke}s them
    when a command arrives and {!pump}s the engine to quiescence after
    every external event. *)

type t
(** A live engine, created by {!create} and driven by {!pump}. *)

val create : ?config:config -> Database.t -> protocol:Protocol.t -> t
(** An engine with no transactions that has not taken any steps yet;
    {!submit} is the only way a transaction enters it. *)

val submit :
  t -> top:int -> name:string -> ?deadline:float -> (Runtime.ctx -> Value.t) -> unit
(** Add a top-level transaction to a live engine.  [top] must be fresh
    (unique per engine, and increasing submission order is what the
    wound-wait/wait-die age comparisons go by).  [deadline] is an
    absolute [config.now] time; see {!set_deadline}. *)

val pump : t -> int
(** Step until quiescent: nothing runnable, no deadlock cycle to break
    (join edges included), no blocked request whose answer may have
    changed — every live task either parked on {!Runtime.await} or
    blocked on a lock whose release needs external input.  Each
    iteration first aborts every running transaction whose deadline has
    passed.  Where it stops, a blocked request a fresh probe would grant
    counts as ["lost-wakeups"] in {!counters}; there must be none.
    Bounded by [config.max_steps] steps per call.  Returns the number of
    steps taken. *)

val poke : t -> int -> bool
(** Wake the transaction's task parked on {!Runtime.await}, if any;
    false when nothing was awaiting (the transaction may be replaying an
    earlier attempt — the caller's mailbox must make the command visible
    to the body regardless). *)

val abort_top : t -> top:int -> string -> bool
(** Abort a running transaction from outside (client ABORT frame,
    session drop, deadline): runs the normal compensation phase,
    releases its locks, no retry.  False if it was not running. *)

val set_deadline : t -> top:int -> float option -> unit
(** Set or clear the transaction's deadline, an absolute time on the
    [config.now] clock; {!pump} aborts expired transactions. *)

val nearest_deadline : t -> float option
(** The earliest deadline of any running transaction — lets a driver
    size its poll timeout so that the next {!pump} fires expiry on
    time. *)

val txn_state :
  t -> int -> [ `Running | `Committed of Value.t | `Aborted of string | `Unknown ]

val retire : t -> top:int -> bool
(** Forget a finished (committed or aborted) transaction so the live set
    stays small in a long-running server.  Its committed work remains
    part of the history and of certification.  False while the
    transaction is still running (or unknown). *)

val final_history : t -> History.t
(** The history of every committed transaction, including retired
    ones. *)

val live_certified : t -> bool option
(** The live certifier's verdict on {!final_history}, in O(1):
    [Some true] when the engine certifies incrementally and its
    certifier admitted every commit; [None] when there is no live
    certifier to ask (certification off, or the oracle forced). *)

val observed_history : t -> History.t
(** {!final_history} extended with the partial (completed-subtree) call
    trees of still-running transactions.  A shard's 2PC prepare feeds
    this to [Schedule.compute] so that dependency edges involving
    uncommitted neighbours are reported to the coordinator too.
    Running transactions with no completed root-level call yet are
    omitted. *)

val stamped_order : t -> (Ids.Action_id.t * int) list
(** The committed execution order with stamps, final attempts only,
    sorted by stamp (execution order).  With a shared {!type-config}[.next_stamp] counter,
    sorting several shards' stamped orders merges them into one global
    execution order. *)

val committed_trees : t -> (int * Call_tree.t) list
(** Committed call trees keyed by top (final attempts), sorted by top —
    raw material for a dispatcher-side merged history. *)

val validation_frontier : t -> int
(** The certifier-side validation frontier: the smallest execution stamp
    recorded by any still-running transaction's current attempt
    ([max_int] when none has recorded one).  A committed transaction
    whose stamps all lie below the frontier can no longer become the
    target of a new dependency edge — edges always point from the
    earlier-stamped action of a conflicting pair to the later one — so a
    sharded certify-mode vote may window its history to transactions at
    or above the watermark of past frontiers instead of shipping the
    full history. *)

val set_trace_sink :
  t ->
  (top:int -> tree:Call_tree.t -> prims:(Ids.Action_id.t * int) list -> unit)
  option ->
  unit
(** Install (or clear) a history-trace recorder: called at every
    top-level commit with exactly the inputs the incremental certifier
    consumes — the committing attempt's call tree and its executed
    primitives with global execution stamps.  The sink must not raise;
    it runs on the engine's thread inside the commit path. *)

val pin : t -> top:int -> unit
(** Mark a running transaction as a prepared 2PC participant: it keeps
    its locks but wound-wait and deadline expiry no longer abort it;
    attempted wounds are parked for {!take_wounded_pinned}. *)

val unpin : t -> top:int -> unit

val take_wounded_pinned : t -> int list
(** Drain the tops of pinned transactions that an older requester tried
    to wound since the last call; the shard loop escalates these to the
    coordinator, which may abort the global transaction to break a
    cross-shard deadlock. *)

val txn_quiescent : t -> top:int -> bool
(** After a {!pump}: the transaction is running, not compensating, and
    every task is parked on [Runtime.await] — its command log is fully
    replayed, so a 2PC vote taken now covers all of its calls. *)

val counters : t -> Ooser_sim.Stats.Counter.t
val steps : t -> int

val metrics : t -> (string * int) list
(** {!counters} plus the protocol's counters, prefixed ["occ."] under a
    validating protocol and ["lock."] otherwise — {!outcome}'s
    [metrics]. *)

(** {1 Durability}

    With a journal attached the engine writes a logical, method-level
    operation log: BEGIN at each attempt start, CALL (with the
    registered compensation) when a root-level call completes — the
    moment it commits at its level — SUBCOMMIT markers for deeper
    composite subtransactions, and COMMIT (forced) / ABORT at the top
    decisions.  {!recover} replays such a log through real engine
    dispatch: redo repeats history (every logged call, in log order),
    then the transactions in flight at the crash are aborted through the
    normal compensation phase — multi-level undo in reverse inheritance
    order, using the compensations re-registered during replay.
    Counters: ["log-appends"], ["log-forces"], ["recoveries"],
    ["recovered-winners"], ["recovered-aborts"], ["recovered-losers"],
    ["recovered-snapshot"], ["recovery-replay-failures"]. *)

val set_journal : t -> Ooser_recovery.Oplog.t option -> unit
(** Attach (or detach) the operation journal.  Attach before the first
    submission; the compensation phase is never journaled. *)

val journal : t -> Ooser_recovery.Oplog.t option

type recovery_report = {
  plan : Ooser_recovery.Recovery.plan;
  replayed_calls : int;
  skipped_attempts : int;  (** deduped against the snapshot *)
  replay_failures : int;
      (** [Error] results among the replayed calls of each attempt
          that decided (every logged call succeeded originally) — 0 on
          any log the engine itself wrote *)
  rec_winners : (int * int) list;  (** (top, attempt), commit order *)
  undone : (int * int) list;  (** losers compensated away *)
  recertified : bool;
      (** the recovered committed history passes
          {!Ooser_core.Serializability.check} (true when [recertify]
          was disabled) *)
}

val recover :
  ?config:config ->
  ?snapshot:Ooser_recovery.Snapshot.t ->
  ?crash:Ooser_recovery.Crash.t ->
  ?recertify:bool ->
  Database.t ->
  protocol:Protocol.t ->
  Ooser_recovery.Oplog.t ->
  t * recovery_report
(** [recover db ~protocol log] rebuilds a live engine from the stable
    prefix of [log] (restoring [snapshot] first, and skipping logged
    attempts the snapshot already covers — idempotence by
    (top, attempt) dedup).  [db] must be the same freshly-built database
    the original engine started from.  The returned engine has no
    journal attached and holds no locks for any undone loser; attach a
    fresh journal with {!set_journal} to resume journaling.  [crash]
    arms the [Mid_undo] fault-injection site.
    @raise Ooser_recovery.Crash.Crashed when the armed site fires. *)
