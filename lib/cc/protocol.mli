(** Concurrency control protocols.

    A protocol answers lock requests issued by the execution engine right
    before an action's method body runs, and is told when actions
    complete and when top-level transactions commit or abort.

    - {!flat_2pl} — conventional strict two-phase locking at the
      primitive (page) level, locks held to top-level commit: the
      baseline the paper argues against for long object-oriented
      operations (§1).
    - {!closed_nested} — Moss-style closed nesting: primitive locks
      acquired per subtransaction and retained upward to top-level
      commit.  For sequential transactions it blocks exactly like
      {!flat_2pl} (closed nesting only adds intra-transaction
      parallelism) — experiment E2 demonstrates this.
    - {!open_nested} — multi-level locking with semantic (commutativity)
      conflict tests at every object; a lock is released when the
      immediate caller of the locked action completes.  Histories it
      admits are oo-serializable.
    - {!unlocked} — grants everything; used to sample raw interleavings
      (experiment E3) and to show the checker catching violations.
    - {!optimistic} — lock-free: every request granted, reads run against
      versioned snapshots taken at {!on_begin}, and admission moves to
      the {!validate} hook the engine runs at the top-level commit point
      (the multiversion OCC protocol of [lib/occ] builds on this). *)

open Ooser_core
module Stats = Ooser_sim.Stats

type decision = Granted | Blocked of Lock_table.entry list

type t

val name : t -> string

val request : t -> Action.t -> leaf:bool -> decision
(** Ask to start executing an action ([leaf] marks primitive methods).
    [Granted] may record a lock; [Blocked] returns the conflicting
    entries by holder id, for {!Lock_table.changed_since}. *)

val on_end : t -> Action.t -> unit
(** The action completed (committed at its level). *)

val on_top_commit : t -> int -> unit
val on_top_abort : t -> int -> unit

val on_begin : t -> int -> unit
(** A new attempt of top-level transaction [top] is starting; optimistic
    protocols snapshot their version store here (retries re-snapshot).
    No-op for lock-based protocols. *)

val has_validate : t -> bool
(** Whether the protocol carries a commit-time validation hook — i.e. it
    is an optimistic protocol whose admission decision runs at commit. *)

val validate :
  t ->
  top:int ->
  tree:Call_tree.t ->
  prims:(Action_id.t * int) list ->
  (unit, string) result
(** Commit-time validation, called by the engine right before a
    top-level commit with the committing attempt's call tree and its
    executed primitives (with global execution stamps).  [Error reason]
    makes the engine roll the transaction back and retry it through the
    normal internal-retry machinery.  [Ok ()] for protocols without a
    validation surface. *)

val counters : t -> Stats.Counter.t
(** ["requests"], ["grants"], ["conflicts"]. *)

val table : t -> Lock_table.t option

val quiescent : t -> bool
(** No live lock entries (trivially true for lock-free protocols) — the
    state a rebuilt lock table must be in after recovery has decided
    every replayed transaction: in particular, no loser entries. *)

val unlocked : unit -> t
val flat_2pl : reg:Commutativity.registry -> unit -> t
val closed_nested : reg:Commutativity.registry -> unit -> t
val open_nested : reg:Commutativity.registry -> unit -> t

val optimistic :
  name:string ->
  ?counters:Stats.Counter.t ->
  on_begin:(int -> unit) ->
  validate:
    (top:int ->
    tree:Call_tree.t ->
    prims:(Action_id.t * int) list ->
    (unit, string) result) ->
  on_top_commit:(int -> unit) ->
  on_top_abort:(int -> unit) ->
  unit ->
  t
(** Lock-free optimistic protocol: requests are always granted and the
    given hooks carry the whole admission decision.  [counters] lets the
    caller share the counter set its hooks increment. *)
