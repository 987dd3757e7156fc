(* Concurrency control protocols.

   A protocol answers lock requests issued by the execution engine right
   before an action's method body runs, and is told when actions complete
   and when top-level transactions commit or abort.  Three lock-based
   protocols are provided:

   - [flat_2pl]: conventional strict two-phase locking at the primitive
     (page) level; every lock is held until the top-level commit.  This is
     the baseline the paper argues against for long object-oriented
     operations (§1).
   - [closed_nested]: Moss-style closed nesting; primitive locks are
     acquired per subtransaction and retained upward until the top-level
     commit.  Between sequential top-level transactions this blocks
     exactly like [flat_2pl] (closed nesting only adds intra-transaction
     parallelism), which experiment E2 demonstrates.
   - [open_nested]: multi-level locking with semantic (commutativity)
     conflict tests at every object; a lock is released when the immediate
     caller of the locked action completes.  This is the protocol whose
     histories are oo-serializable (§2's open nested transactions).

   [unlocked] grants everything — used to sample raw interleavings for the
   acceptance-rate experiment (E3) and to show the checker catching
   non-serializable executions. *)

open Ooser_core
module Stats = Ooser_sim.Stats

type decision = Granted | Blocked of Lock_table.entry list

(* Optimistic protocols (lib/occ) grow the contract with a snapshot /
   validate surface: [on_begin] fires at every transaction attempt start
   (retries re-snapshot), [validate] runs at the top-level commit point
   with exactly the committing attempt's call tree and stamped
   primitives — [Error reason] sends the transaction through the normal
   abort-and-retry path instead of committing.  Lock-based protocols
   leave both [None]. *)
type t = {
  name : string;
  request : Action.t -> leaf:bool -> decision;
  on_end : Action.t -> unit;
  on_top_commit : int -> unit;
  on_top_abort : int -> unit;
  on_begin : (int -> unit) option;
  validate :
    (top:int ->
    tree:Call_tree.t ->
    prims:(Action_id.t * int) list ->
    (unit, string) result)
    option;
  counters : Stats.Counter.t;
  table : Lock_table.t option;  (* exposed for inspection in tests *)
}

let name t = t.name
let counters t = t.counters

let root_of action = Action_id.root (Action_id.top (Action.id action))

let unlocked () =
  let counters = Stats.Counter.create () in
  {
    name = "unlocked";
    request =
      (fun _ ~leaf:_ ->
        Stats.Counter.incr counters "requests";
        Stats.Counter.incr counters "grants";
        Granted);
    on_end = (fun _ -> ());
    on_top_commit = (fun _ -> ());
    on_top_abort = (fun _ -> ());
    on_begin = None;
    validate = None;
    counters;
    table = None;
  }

(* Lock-free optimistic protocol: every request is granted immediately
   (reads run against versioned snapshots, writes are buffered), and the
   whole admission decision moves to [validate] at commit point. *)
let optimistic ~name ?counters ~on_begin ~validate ~on_top_commit
    ~on_top_abort () =
  let counters =
    match counters with Some c -> c | None -> Stats.Counter.create ()
  in
  {
    name;
    request =
      (fun _ ~leaf:_ ->
        Stats.Counter.incr counters "requests";
        Stats.Counter.incr counters "grants";
        Granted);
    on_end = (fun _ -> ());
    on_top_commit;
    on_top_abort;
    on_begin = Some on_begin;
    validate = Some validate;
    counters;
    table = None;
  }

(* Shared skeleton: [wants_lock] decides which actions are locked at all;
   [scope_of] decides how long the lock lives. *)
let lock_based ~name ~reg ~wants_lock ~scope_of () =
  let table = Lock_table.create () in
  let counters = Stats.Counter.create () in
  let request action ~leaf =
    Stats.Counter.incr counters "requests";
    if not (wants_lock action ~leaf) then begin
      Stats.Counter.incr counters "grants";
      Granted
    end
    else
      match Lock_table.conflicting reg table action with
      | [] ->
          Stats.Counter.incr counters "grants";
          Lock_table.add table ~action ~scope:(scope_of action);
          Granted
      | blockers ->
          Stats.Counter.incr counters "conflicts";
          Blocked blockers
  in
  let on_end action =
    Lock_table.release_scope table (Action.id action);
    Lock_table.escalate table (Action.id action)
  in
  let on_top_commit top = Lock_table.release_top table top in
  let on_top_abort top = Lock_table.release_top table top in
  { name; request; on_end; on_top_commit; on_top_abort; on_begin = None;
    validate = None; counters; table = Some table }

let flat_2pl ~reg () =
  lock_based ~name:"flat-2pl" ~reg
    ~wants_lock:(fun _ ~leaf -> leaf)
    ~scope_of:root_of ()

let closed_nested ~reg () =
  (* Locks are acquired by the subtransaction but, on its commit, retained
     by the whole transaction: the scope is the top-level root, as in
     strict closed nesting without intra-transaction parallelism. *)
  lock_based ~name:"closed-nested" ~reg
    ~wants_lock:(fun _ ~leaf -> leaf)
    ~scope_of:root_of ()

let open_nested ~reg () =
  let scope_of action =
    match Action_id.parent (Action.id action) with
    | Some p -> p
    | None -> Action.id action
  in
  lock_based ~name:"open-nested" ~reg
    ~wants_lock:(fun action ~leaf:_ ->
      (* every non-root action takes a semantic lock on its object *)
      not (Action_id.is_root (Action.id action)))
    ~scope_of ()

let table t = t.table

(* No live lock entries: the state a correct recovery must leave the
   rebuilt lock table in once every replayed transaction is decided —
   loser entries in particular must all be gone. *)
let quiescent t =
  match t.table with None -> true | Some lt -> Lock_table.total lt = 0

let request t action ~leaf = t.request action ~leaf
let on_end t action = t.on_end action
let on_top_commit t top = t.on_top_commit top
let on_top_abort t top = t.on_top_abort top
let on_begin t top = match t.on_begin with Some f -> f top | None -> ()
let has_validate t = t.validate <> None

let validate t ~top ~tree ~prims =
  match t.validate with Some f -> f ~top ~tree ~prims | None -> Ok ()
