(** Commutativity of actions (Def. 9, §2).

    Every object carries a commutativity specification — "a commutativity
    matrix for every object for all their actions" — deciding for any pair
    of actions on it whether they commute or are in conflict.  The
    specification may inspect method names and parameters (escrow-style
    semantics, [9,14,17] in the paper) because two actions commute exactly
    when the effect of each is independent of their execution order.
    State-dependent refinements (escrow, fifo) read each action's
    execution-time pin ({!Action.pin}) rather than live object state, so
    every shipped engine spec is {!stable}.

    Two actions of the same process never conflict (Def. 9). *)

open Ids

(** Specification for one object (or one object type). *)
type spec

(** Construction shape of a specification, exposed for introspection:
    the spec-inference analyzer diffs an inferred matrix against the
    hand-written one cell by cell, and needs to know which declared
    pairs a cell corresponds to.  [Opaque] is every {!make}/{!predicate}
    spec — only probing can interrogate those. *)
type structure =
  | Opaque
  | Total of bool  (** {!all_commute} ([true]) / {!all_conflict} *)
  | Conflict_pairs of (string * string) list
  | Commute_pairs of (string * string) list
  | Read_write of { reads : string list; writes : string list }
  | Keyed of structure  (** {!by_key} refinement over the inner shape *)

val name : spec -> string

val structure : spec -> structure
(** How the spec was built; [Opaque] when only the predicate is known. *)

val make :
  ?vocab:string list ->
  ?stable:bool ->
  ?pinned:bool ->
  name:string ->
  (Action.t -> Action.t -> bool) ->
  spec
(** [vocab] declares the method names the specification was written for;
    the static analyzer probes it and reports methods outside it.
    [stable] (default [false]) asserts the decision depends only on the
    two (method, args, pin) triples — see {!stable}.  [pinned] (default
    [false]) declares the decision reads execution-time pins — see
    {!pinned}. *)

val test : spec -> Action.t -> Action.t -> bool
(** Raw query of the specification ([true] = commute), without the
    same-process rule of {!commutes}.  Useful to compose specs. *)

val vocabulary : spec -> string list option
(** Declared method vocabulary: present for {!of_conflict_matrix},
    {!of_commute_matrix} and {!rw} specs (and any constructor given
    [?vocab]); [None] for opaque predicates.  Methods outside the
    vocabulary fall into each constructor's conservative default. *)

val stable : spec -> bool
(** A stable specification's answer depends only on the two
    (method, args, pin) triples — never on live object state or call
    timing — so its decisions may be memoized and, crucially, never
    change as the history grows.  Matrix, read/write and all-* specs are
    stable by construction; {!make}/{!predicate} specs must opt in via
    [?stable] (a predicate that reads the current object state must
    not — pin the state at execution instead, as escrow and fifo do).
    The incremental certifier requires every spec it meets to be stable
    and raises [Invalid_argument] otherwise. *)

val pinned : spec -> bool
(** The decision reads the actions' execution-time pins
    ({!Action.pin}): escrow and fifo.  Such a spec is still {!stable},
    but a probe that never executed carries no pin and gets the
    conservative answer, so static analyzers treat its conflicts as
    state-dependent. *)

val all_commute : spec
(** Every pair commutes — maximal concurrency, no dependencies. *)

val all_conflict : spec
(** Every pair conflicts — degenerates to conventional serializability. *)

val of_conflict_matrix : name:string -> (string * string) list -> spec
(** Method pairs listed (symmetrically) conflict; all others commute.
    @raise Invalid_argument on a pair listed twice (in either order);
    the message names the spec and the offending pair. *)

val of_commute_matrix : name:string -> (string * string) list -> spec
(** Method pairs listed (symmetrically) commute; all others conflict.
    @raise Invalid_argument on a pair listed twice (in either order);
    the message names the spec and the offending pair. *)

val rw : reads:string list -> writes:string list -> spec
(** [rw_named ~name:"read-write"]. *)

val rw_named :
  name:string -> reads:string list -> writes:string list -> spec
(** Classic read/write semantics: two actions conflict unless both are
    reads.  Unknown methods conservatively conflict with everything.
    @raise Invalid_argument when a method is listed twice or classified
    both as a read and as a write; the message names the spec and the
    offending method. *)

val by_key : key_of:(Action.t -> Value.t option) -> spec -> spec
(** Refine a spec: actions addressing different keys always commute;
    same-key (or keyless) pairs defer to the inner spec.  This captures the
    node-level semantics of Example 1 — inserts of different keys commute
    even when their data collide on the same page. *)

val predicate :
  ?vocab:string list ->
  ?stable:bool ->
  ?pinned:bool ->
  name:string ->
  (Action.t -> Action.t -> bool) ->
  spec
(** Arbitrary commutativity test ([true] = commute).  Pass [~stable:true]
    only when the predicate inspects nothing beyond method names,
    arguments and pins. *)

val first_arg : Action.t -> Value.t option
(** Convenience [key_of] for methods whose first argument is the key. *)

(** Registries map objects to their specification.  Virtual objects
    (Def. 5) behave exactly like their originals. *)
type registry

val registry : ?known:(Obj_id.t -> bool) -> (Obj_id.t -> spec) -> registry
(** The functions receive de-virtualised identifiers.  [known] (default:
    everything) tells {!known} whether a lookup resolves to a registered
    specification rather than a fallback default. *)

val fixed : ?default:spec -> (string * spec) list -> registry
(** Lookup by object name; [default] (all-conflict) otherwise. *)

val uniform : spec -> registry
val spec_for : registry -> Obj_id.t -> spec

val known : registry -> Obj_id.t -> bool
(** Whether the object resolves to a registered specification.  [false]
    means {!spec_for} falls back to the registry default — the static
    analyzer flags such lookups (the object would silently get
    all-conflict semantics, or worse, a wrong uniform spec). *)

val commutes : registry -> Action.t -> Action.t -> bool
(** Def. 9 in full: actions on different objects commute; same-process
    actions commute; otherwise the object's specification decides. *)

val conflicts : registry -> Action.t -> Action.t -> bool
(** [conflicts r a a'] — distinct actions that do not commute.  An action
    never conflicts with itself. *)

(** {2 Memoized queries}

    A registry wrapper that caches raw spec answers under
    (object, method, args, pin, method', args', pin') keys.  Only {!stable} specs
    are memoized; unstable specs are passed through uncached, so the
    cached queries always agree with the plain ones. *)

type cache

val cached : ?size:int -> registry -> cache
(** Wrap a registry with a memo table ([size] is the initial capacity). *)

val cached_test : cache -> Action.t -> Action.t -> bool
(** Memoized {!test} of the owning object's spec (no same-process rule):
    the class-level probe used to skip whole buckets of commuting
    actions. *)

val cached_commutes : cache -> Action.t -> Action.t -> bool
(** Memoized {!commutes} (Def. 9 in full). *)

val cached_conflicts : cache -> Action.t -> Action.t -> bool
(** Memoized {!conflicts}. *)

val cache_stats : cache -> int * int
(** [(hits, misses)] of the memo table so far. *)
