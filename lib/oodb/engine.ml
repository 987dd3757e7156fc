(* The execution engine: runs top-level transactions against the object
   database under a concurrency control protocol, and records the
   resulting history for the serializability checkers.

   Each transaction runs as a set of TASKS.  A task is a linear stack of
   frames executing fibers (OCaml 5 effects); [Runtime.call] yields an
   [Invoke] effect handled here: the engine numbers the new action
   (Def. 2's hierarchical numbering falls out of the frame stack), asks
   the protocol for access, and either pushes a frame running the target
   method or parks the task on the lock.  [Runtime.call_par] forks one
   task per invocation — the paper's intra-transaction parallelism: each
   branch gets a fresh process identifier (Def. 9), the forked children
   carry no mutual precedence (their action set's precedence relation is
   not total), and the parent joins when all branches complete.

   Interleaving decisions are taken exactly at invocation boundaries —
   the paper's action granularity.

   Aborts unwind every task of the transaction, run the undo log
   (primitive undo closures, or compensating invocations once a
   subtransaction has committed at its level — the open nesting rule),
   discard the fibers and optionally restart the transaction. *)

open Ooser_core
module Protocol = Ooser_cc.Protocol
module Deadlock = Ooser_cc.Deadlock
module Lock_table = Ooser_cc.Lock_table
module Rng = Ooser_sim.Rng
module Stats = Ooser_sim.Stats
module Oplog = Ooser_recovery.Oplog
module Snapshot = Ooser_recovery.Snapshot
module Recovery = Ooser_recovery.Recovery
module Crash = Ooser_recovery.Crash

type step_result =
  | Yield of Runtime.invocation * (Value.t, step_result) Effect.Deep.continuation
  | Yield_par of
      Runtime.invocation list
      * (Value.t list, step_result) Effect.Deep.continuation
  | Yield_try of
      Runtime.invocation
      * ((Value.t, string) result, step_result) Effect.Deep.continuation
  | Undo_reg of (unit -> unit) * (unit, step_result) Effect.Deep.continuation
  | Yield_await of (unit, step_result) Effect.Deep.continuation
  | Done of Value.t
  | Raised of exn

let run_fiber (f : unit -> Value.t) : step_result =
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun v -> Done v);
      exnc = (fun e -> Raised e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Runtime.Invoke inv ->
              Some (fun (k : (a, step_result) continuation) -> Yield (inv, k))
          | Runtime.Invoke_par invs ->
              Some (fun (k : (a, step_result) continuation) -> Yield_par (invs, k))
          | Runtime.Invoke_try inv ->
              Some (fun (k : (a, step_result) continuation) -> Yield_try (inv, k))
          | Runtime.Register_undo g ->
              Some (fun (k : (a, step_result) continuation) -> Undo_reg (g, k))
          | Runtime.Await ->
              Some (fun (k : (a, step_result) continuation) -> Yield_await k)
          | _ -> None);
    }

(* Child slots of a frame, for call-tree reconstruction: sequential calls
   are ordered after everything before them; the members of one parallel
   group are mutually unordered.  Indices are 0-based child positions. *)
type child_group = Seq of int | Par of int list

(* An undo item is either a state-restoring closure (registered by a
   primitive whose locks are still held) or a compensating invocation (the
   logical inverse of a subtransaction that already committed at its
   level).  Compensations are executed through the engine like normal
   actions, acquiring locks — running them lock-free would clobber pages
   that in-flight transactions hold locks on. *)
type undo_item = Restore of (unit -> unit) | Compensate of Runtime.invocation

(* How a frame reports back: to the task's parent (task roots), to the
   caller's continuation directly, or to a caller that catches failures
   (Runtime.try_call — partial rollback). *)
type reply =
  | To_parent
  | Direct of (Value.t, step_result) Effect.Deep.continuation
  | Caught of ((Value.t, string) result, step_result) Effect.Deep.continuation

type frame = {
  mutable action : Action.t;  (* re-pinned when a primitive starts *)
  kind : [ `Primitive | `Composite ];
  caller_k : reply;
  compensate : (Value.t list -> Value.t -> Database.compensation) option;
  mutable next_child : int;
  mutable groups : child_group list;  (* reversed *)
  mutable child_trees : (int * Call_tree.t) list;  (* 1-based index -> tree *)
  mutable undo : undo_item list;  (* newest first *)
}

type pending =
  | Not_started
  | Step of (unit -> step_result)
  | Request of Runtime.invocation * Action.t * reply
  | Await_input of (unit, step_result) Effect.Deep.continuation
      (* parked on [Runtime.await], resumed by [poke] *)
  | Joining
  | Idle

(* A task parked on external input (a session waiting for its client's
   next command) stays [Runnable] with an [Await_input] step, which is
   never picked: it holds no lock request and waits for nothing in the
   waits-for graph — only [poke] (or an abort) wakes it. *)
type task_status = Runnable | Blocked | Finished

(* A join point: the task forked [j_remaining] branches and resumes with
   all their results once they delivered. *)
type join = {
  mutable j_remaining : int;
  j_results : Value.t array;
  j_k : (Value.t list, step_result) Effect.Deep.continuation;
}

type task = {
  t_id : int;  (* engine-wide, for deadlock detection *)
  txn_top : int;
  process : Ids.Process_id.t;
  mutable stack : frame list;  (* innermost first *)
  mutable pending : pending;
  mutable tstatus : task_status;
  mutable waiting_for : Lock_table.entry list;
      (* the entries its blocked request conflicted with when last asked *)
  mutable seen_grants : int;  (* their object's grant count then *)
  mutable wounds_pinned : bool;  (* and it wounded a pinned holder *)
  mutable blocked_since : int;
  mutable join : join option;
  t_parent : (task * int) option;  (* parent task and result slot *)
}

type txn_status = Running | Committed | Aborted of string

type txn = {
  top : int;
  tname : string;
  body : Runtime.ctx -> Value.t;
  mutable tasks : task list;  (* live tasks *)
  mutable status : txn_status;
  mutable attempt : int;
  mutable resume_after : int;
  mutable result : Value.t option;
  mutable branch_counter : int;
  mutable aborting : (bool * string) option;
      (* Some (retry, reason) while the compensation phase runs *)
  mutable first_step : int;  (* of the current attempt *)
  mutable commit_step : int;
  mutable deadline : float option;
      (* absolute time (config.now clock) past which the transaction is
         aborted instead of being run further — the per-session deadline
         of the network server; [check_deadlines] enforces it *)
  mutable pinned : bool;
      (* a 2PC participant that has voted: it holds its locks but may no
         longer be aborted unilaterally by this engine — wound-wait and
         deadline expiry skip it and leave the decision to the
         coordinator (see [wounded_pinned]) *)
  mutable prims : (Ids.Action_id.t * int) list;
      (* the current attempt's recorded primitives with their stamps,
         newest first — handed to validation, certification and the
         trace sink at the commit point, published to [order] on commit
         and dropped on abort *)
}

(* What a scheduler hook sees of one runnable unit: enough to tell
   invocation boundaries (where interleaving choices matter — the
   paper's action granularity) from the internal steps in between, and
   which call is about to be issued.  The model checker's controlled
   scheduler keys its choice points on [u_boundary]. *)
type unit_label = {
  u_top : int;
  u_task : int;  (* engine task id; -1 when the body has not started *)
  u_boundary : bool;
      (* true exactly when picking this unit starts the transaction body
         or submits a fresh invocation to the protocol — the only points
         where the interleaving decision is observable *)
  u_obj : string;  (* target of the pending invocation, "" otherwise *)
  u_meth : string;
}

type strategy =
  | Round_robin
  | Random_pick of Rng.t
  | Controlled of (unit_label list -> int)
      (* every pick is delegated to the hook, which returns an index into
         the label list (same order as the runnable units); out-of-range
         answers fall back to round-robin.  The hook sees every
         scheduling decision, so a run under [Controlled] is a pure
         function of the hook's answers — the model checker's replayable
         choice sequences build on this *)

(* How deadlocks are handled: [Detect] builds the waits-for graph and
   aborts the youngest transaction of a cycle; [Wound_wait] prevents
   cycles — an older requester wounds (aborts) younger lock holders, a
   younger requester waits; [Wait_die] is the symmetric prevention — an
   older requester waits, a younger one dies (aborts itself and retries).
   Intra-transaction conflicts always wait (the detector stays armed as a
   fallback for them). *)
type deadlock_policy = Detect | Wound_wait | Wait_die

type config = {
  protocol : Protocol.t;
  strategy : strategy;
  max_steps : int;
  max_restarts : int;
  deadlock : deadlock_policy;
  certify : bool;
      (* optimistic validation: at commit, check that the history of the
         committed transactions plus this one is oo-serializable; abort
         and retry otherwise.  The paper's §6 direction: a protocol that
         guarantees oo-serializability without locks (pair it with the
         unlocked protocol). *)
  certify_oracle : bool;
      (* force the from-scratch checker even when the incremental
         certifier is applicable — the debugging / cross-checking mode *)
  now : unit -> float;
      (* clock for transaction deadlines; the default never advances, so
         deadlines are inert unless a real clock (e.g. Unix.gettimeofday)
         is injected — keeps this library clock-free for batch runs *)
  next_stamp : (unit -> int) option;
      (* source of execution stamps for recorded primitives; [None] uses
         the engine's own monotone counter.  Shard engines share one
         atomic counter so that merging their committed orders by stamp
         yields a single global execution order. *)
}

let default_config protocol =
  {
    protocol;
    strategy = Round_robin;
    max_steps = 1_000_000;
    max_restarts = 20;
    deadlock = Detect;
    certify = false;
    certify_oracle = false;
    now = (fun () -> 0.0);
    next_stamp = None;
  }

type t = {
  db : Database.t;
  config : config;
  mutable txns : txn list;
  mutable order : (Ids.Action_id.t * int) list;
      (* (id, stamp) of every committed transaction's primitives, newest
         commit first.  The stamp is a monotone execution counter
         assigned when the primitive is recorded, so sorting by it
         restores the execution order; an attempt's primitives only
         arrive here when it commits. *)
  mutable trees : (int * Call_tree.t) list;  (* committed, by top *)
  mutable steps : int;
  mutable clock : int;
  mutable stamp : int;  (* next execution stamp *)
  mutable task_counter : int;
  mutable cert : Incremental.t option;
      (* the online certifier, tracking exactly the committed set; [None]
         when certify is off or the oracle is forced *)
  mutable last_reject : string option;
      (* detailed reason of the last failed certification, computed from
         the verdict that failed — the abort path reuses it instead of
         re-deriving the extension for the report *)
  mutable ext_memo : (Ids.Action_id.t list * Extension.t) option;
      (* [Extension.extend] result of the last oracle-certified
         committed-prefix order, keyed by that order; certifying the
         same prefix again (the retry after a failed certification
         replays it minus the aborted attempt's entries, and repeated
         failures of independent transactions over an unchanged
         committed set hit it exactly) reuses the extension instead of
         recomputing it *)
  counters : Stats.Counter.t;
  mutable journal : Oplog.t option;
      (* the durable operation log: BEGIN / root-level CALL (with its
         registered compensation) / SUBCOMMIT / COMMIT / ABORT, forced
         at top commit.  [None] (the default) costs one branch per
         site. *)
  mutable wounded_pinned : int list;
      (* pinned transactions an older requester tried to wound; the
         shard loop drains this ([take_wounded_pinned]) and escalates to
         the 2PC coordinator, which may abort the global transaction *)
  mutable trace_sink :
    (top:int -> tree:Call_tree.t -> prims:(Ids.Action_id.t * int) list -> unit)
    option;
      (* called at each top-level commit with exactly the certifier's
         inputs (final attempt's tree and stamped primitives) — the
         history-trace recorder; must not raise *)
}

type outcome = {
  history : History.t;
  committed : int list;
  aborted : (int * string) list;
  results : (int * Value.t) list;
  steps : int;
  metrics : (string * int) list;
  latencies : (int * int) list;
      (* per committed transaction: steps from the final attempt's start
         to its commit (response time in scheduler steps) *)
}

(* -- operation journaling -----------------------------------------------------

   Log sites: BEGIN at each attempt start, CALL when a root-level
   (depth-1) frame completes — that is the moment the subtransaction
   commits at its level and its locks may be released, so it is also the
   last moment physical undo would be sound — COMMIT (forced) and ABORT
   at the top-level decisions.  The compensation phase is never
   journaled: its effects are the logical inverse of records already in
   the log, and recovery re-derives them from the replayed calls. *)

let journal_append (eng : t) record =
  match eng.journal with
  | Some j ->
      ignore (Oplog.append j record);
      Stats.Counter.incr eng.counters "log-appends"
  | None -> ()

let journal_force (eng : t) =
  match eng.journal with
  | Some j ->
      Oplog.force j;
      Stats.Counter.incr eng.counters "log-forces"
  | None -> ()

(* -- helpers ----------------------------------------------------------------- *)

let current_frame task =
  match task.stack with
  | f :: _ -> f
  | [] -> invalid_arg "Engine: no active frame"

let discontinue_quietly k =
  match Effect.Deep.discontinue k Runtime.Abandoned with
  | _ -> ()
  | exception _ -> ()

(* -- call-tree reconstruction ------------------------------------------------- *)

(* Precedence pairs from the recorded child groups: every member of a
   group precedes every member of the next group (transitivity covers the
   rest); members of one parallel group stay unordered.  [pos.(i)] is the
   position in the children list of the child numbered [i] (0-based), or
   -1 when that child failed under try_call and left a numbering gap:
   pairs that mention a missing child are dropped.  [groups] is newest
   first, and the pairs come out oldest group first. *)
let prec_of_groups pos groups =
  let fold_right_members g f acc =
    match g with Seq i -> f i acc | Par is -> List.fold_right f is acc
  in
  (* the pairs from [g] to [next] in front of [acc] *)
  let pairs_into g next acc =
    fold_right_members g
      (fun a acc ->
        if pos.(a) < 0 then acc
        else
          fold_right_members next
            (fun b acc -> if pos.(b) < 0 then acc else (pos.(a), pos.(b)) :: acc)
            acc)
      acc
  in
  let rec walk acc = function
    | next :: (g :: _ as rest) -> walk (pairs_into g next acc) rest
    | [] | [ _ ] -> acc
  in
  walk [] groups

let tree_of_frame f =
  match f.child_trees with
  | [] ->
      (* a leaf: every precedence pair would mention a missing child *)
      Call_tree.v f.action []
  | child_trees ->
      let sorted =
        match child_trees with
        | [ _ ] -> child_trees (* [List.sort] allocates even here *)
        | _ -> List.sort (fun (i, _) (j, _) -> Int.compare i j) child_trees
      in
      let pos = Array.make f.next_child (-1) in
      List.iteri (fun p (idx, _) -> pos.(idx - 1) <- p) sorted;
      Call_tree.v ~prec:(prec_of_groups pos f.groups) f.action
        (List.map snd sorted)

(* -- abort / commit ------------------------------------------------------------ *)

(* Finish an abort: release the transaction's locks, drop the attempt's
   records, and either schedule a restart with backoff or fail for
   good. *)
let finish_abort (eng : t) txn ~retry reason =
  journal_append eng
    (Oplog.Abort { top = txn.top; attempt = txn.attempt; reason });
  txn.aborting <- None;
  txn.tasks <- [];
  Protocol.on_top_abort eng.config.protocol txn.top;
  txn.prims <- [];
  if retry && txn.attempt < eng.config.max_restarts then begin
    Stats.Counter.incr eng.counters "restarts";
    txn.attempt <- txn.attempt + 1;
    (* deterministic backoff: let the surviving transactions finish before
       re-entering the conflict, otherwise upgrade deadlocks livelock *)
    txn.resume_after <- eng.steps + (30 * txn.attempt);
    txn.status <- Running
  end
  else txn.status <- Aborted reason

(* Discard every fiber of the transaction without touching state; return
   the collected undo items (innermost frames first). *)
let unwind_tasks txn =
  let items = ref [] in
  List.iter
    (fun task ->
      (match task.pending with
      | Request (_, _, Direct k) -> discontinue_quietly k
      | Request (_, _, Caught k) -> discontinue_quietly k
      | Await_input k -> discontinue_quietly k
      | Request (_, _, To_parent) | Step _ | Not_started | Idle | Joining -> ());
      (match task.join with
      | Some j -> discontinue_quietly j.j_k
      | None -> ());
      List.iter
        (fun f ->
          items := !items @ f.undo;
          match f.caller_k with
          | Direct k -> discontinue_quietly k
          | Caught k -> discontinue_quietly k
          | To_parent -> ())
        task.stack;
      task.stack <- [];
      task.pending <- Idle;
      task.tstatus <- Finished;
      task.join <- None;
      task.waiting_for <- [])
    txn.tasks;
  txn.tasks <- [];
  !items

(* forward declaration: starting the compensation task needs fresh_task,
   defined below *)
let start_compensation_hook :
    (t -> txn -> undo_item list -> unit) ref =
  ref (fun _ _ _ -> ())

let abort_txn (eng : t) txn ~retry ?items reason =
  match txn.aborting with
  | Some (retry0, reason0) ->
      (* failure during the compensation phase itself: give up on further
         compensation — state may be inconsistent, count it *)
      Stats.Counter.incr eng.counters "compensation-failures";
      ignore (unwind_tasks txn);
      finish_abort eng txn ~retry:false
        (Printf.sprintf "%s; compensation failed (%s)" reason0 reason);
      ignore retry0
  | None ->
      Stats.Counter.incr eng.counters "aborts";
      let collected = unwind_tasks txn in
      let items = match items with Some i -> i | None -> collected in
      if items = [] then finish_abort eng txn ~retry reason
      else begin
        txn.aborting <- Some (retry, reason);
        !start_compensation_hook eng txn items
      end

let commit_txn (eng : t) txn ~tree v =
  txn.commit_step <- eng.steps;
  journal_append eng (Oplog.Commit { top = txn.top; attempt = txn.attempt });
  journal_force eng;
  Stats.Counter.incr eng.counters "commits";
  (match eng.trace_sink with
  | Some sink when txn.prims <> [] ->
      sink ~top:txn.top ~tree ~prims:(List.rev txn.prims)
  | Some _ | None -> ());
  eng.trees <- (txn.top, tree) :: eng.trees;
  eng.order <- txn.prims @ eng.order;
  txn.prims <- [];
  Protocol.on_top_commit eng.config.protocol txn.top;
  txn.status <- Committed;
  txn.result <- Some v;
  txn.tasks <- []

(* Optimistic certification (config.certify): would committing this
   transaction keep the history of committed transactions
   oo-serializable?

   The incremental certifier ([eng.cert]) appends only the committing
   transaction's dependency edges under online cycle detection — per-
   commit cost proportional to the new edges.  It is exact because every
   spec it meets is stable: state-dependent specs (escrow, fifo) decide
   on the pins recorded when each action executed, never on live state,
   so no old decision can change as the history grows ([create] refuses
   an unstable spec).  [certify_oracle] swaps in the from-scratch
   checker instead — the cross-checking mode. *)

(* Committed trees sorted by top, and primitives in execution order. *)
let by_top trees = List.sort (fun (a, _) (b, _) -> Int.compare a b) trees
let by_stamp order = List.sort (fun (_, a) (_, b) -> Int.compare a b) order

(* Longest committed-prefix order (in primitive actions) [ext_memo] may
   retain; longer prefixes are certified without memoisation, so a
   long-lived engine cannot pin an arbitrarily large extension. *)
let ext_memo_cap = 4096

let certification_oracle (eng : t) txn ~tree =
  let trees = List.map snd (by_top ((txn.top, tree) :: eng.trees)) in
  let order = List.map fst (by_stamp (txn.prims @ eng.order)) in
  let h = History.v ~tops:trees ~order ~commut:(Database.spec_registry eng.db) in
  (* extend once per certified prefix — memoised on the prefix order, so
     re-certifying an unchanged committed set (the retry after a failed
     certification) skips the recomputation — and keep the reason from
     the verdict so the rollback path can build its abort report without
     re-deriving the extension either *)
  let ext =
    match eng.ext_memo with
    | Some (key, e) when key = order -> e
    | _ ->
        let e = Extension.extend h in
        (* bounded retention: beyond the cap the memo is dropped rather
           than grown — a long-running server would otherwise pin an
           extension proportional to its whole committed history *)
        if List.length order <= ext_memo_cap then
          eng.ext_memo <- Some (order, e)
        else eng.ext_memo <- None;
        e
  in
  let verdict = Serializability.check ~ext h in
  if verdict.Serializability.oo_serializable then true
  else begin
    (let reason =
       match
         List.find_opt
           (fun (v : Serializability.object_verdict) ->
             v.Serializability.cycle <> None)
           verdict.Serializability.objects
       with
       | Some v ->
           Fmt.str "certification failure: dependency cycle at %a" Obj_id.pp
             v.Serializability.obj
       | None -> "certification failure"
     in
     eng.last_reject <- Some reason);
    false
  end

let certification_passes (eng : t) txn ~tree =
  match eng.cert with
  | Some cert ->
      Stats.Counter.incr eng.counters "cert-incremental";
      let o = Incremental.add_commit cert ~tree ~prims:(List.rev txn.prims) in
      (match o.Incremental.rejection with
      | Some r ->
          eng.last_reject <-
            Some (Fmt.str "certification failure: %a" Incremental.pp_rejection r)
      | None -> ());
      o.Incremental.accepted
  | None ->
      Stats.Counter.incr eng.counters "cert-oracle";
      certification_oracle eng txn ~tree

(* -- frame completion ------------------------------------------------------------ *)

let deliver_to_parent eng txn task ~tree ~undo v =
  match task.t_parent with
  | None -> (
      match txn.aborting with
      | Some (retry, reason) ->
          (* the compensation task completed: the abort is done *)
          task.tstatus <- Finished;
          finish_abort eng txn ~retry reason
      | None -> (
          (* optimistic protocols validate at the commit point: the hook
             sees exactly what the incremental certifier would — the
             committing attempt's call tree and its stamped primitives *)
          let validation =
            if Protocol.has_validate eng.config.protocol then
              Protocol.validate eng.config.protocol ~top:txn.top ~tree
                ~prims:(List.rev txn.prims)
            else Ok ()
          in
          match validation with
          | Error reason ->
              (* validation failed: roll back through a proper
                 compensation phase, retry — the same internal-retry path
                 as a failed certification *)
              Stats.Counter.incr eng.counters "validation-failures";
              abort_txn eng txn ~retry:true ~items:undo reason
          | Ok () ->
              if (not eng.config.certify) || certification_passes eng txn ~tree
              then commit_txn eng txn ~tree v
              else begin
                (* certification failed: roll back through a proper
                   compensation phase, retry *)
                Stats.Counter.incr eng.counters "certification-failures";
                let reason =
                  match eng.last_reject with
                  | Some r -> r
                  | None -> "certification failure"
                in
                abort_txn eng txn ~retry:true ~items:undo reason
              end))
  | Some (parent, slot) -> (
      task.tstatus <- Finished;
      task.pending <- Idle;
      txn.tasks <- List.filter (fun t -> t.t_id <> task.t_id) txn.tasks;
      match parent.join with
      | None -> invalid_arg "Engine: branch completion without a join"
      | Some j ->
          j.j_results.(slot) <- v;
          j.j_remaining <- j.j_remaining - 1;
          if j.j_remaining = 0 then begin
            parent.join <- None;
            parent.tstatus <- Runnable;
            parent.pending <-
              Step
                (fun () -> Effect.Deep.continue j.j_k (Array.to_list j.j_results))
          end)

(* the last element of a path: an action's position under its caller *)
let rec last_or default = function
  | [] -> default
  | [ i ] -> i
  | _ :: rest -> last_or default rest

let complete_frame eng txn task v =
  match task.stack with
  | [] -> invalid_arg "Engine.complete_frame: empty stack"
  | f :: rest ->
      task.stack <- rest;
      let tree = tree_of_frame f in
      (* runtime-primitive: a leaf of the call tree, entered into the
         execution order (Axiom 1); a transaction that called nothing is
         itself a leaf and is recorded too *)
      if f.child_trees = [] then begin
        let stamp =
          match eng.config.next_stamp with
          | Some next -> next ()
          | None ->
              let s = eng.stamp in
              eng.stamp <- eng.stamp + 1;
              s
        in
        txn.prims <- (Action.id f.action, stamp) :: txn.prims
      end;
      let is_txn_root = rest = [] && task.t_parent = None in
      if not is_txn_root then Protocol.on_end eng.config.protocol f.action;
      let undo_contribution =
        match f.compensate with
        | Some comp -> (
            match comp (Action.args f.action) v with
            | Database.Inverse inv -> [ Compensate inv ]
            | Database.Forget -> []
            | Database.Keep_undo -> f.undo)
        | None -> f.undo
      in
      (* journal the subtransaction commit.  A root-level (depth-1) call
         completion is the unit recovery replays — CALL carries the
         registered compensation; deeper composite frames leave
         SUBCOMMIT markers.  Frames of the compensation phase are not
         journaled. *)
      (if eng.journal <> None && txn.aborting = None then
         let id = Action.id f.action in
         let depth = Ids.Action_id.depth id in
         if depth >= 1 then begin
           let comp_inv =
             match undo_contribution with
             | [ Compensate inv ] ->
                 Some
                   {
                     Oplog.obj = inv.Runtime.target;
                     meth = inv.Runtime.meth_name;
                     args = inv.Runtime.args;
                   }
             | _ -> None
           in
           if depth = 1 then
             let seq = last_or 0 (Ids.Action_id.path id) in
             journal_append eng
               (Oplog.Call
                  {
                    top = txn.top;
                    attempt = txn.attempt;
                    seq;
                    inv =
                      {
                        Oplog.obj = Action.obj f.action;
                        meth = Action.meth f.action;
                        args = Action.args f.action;
                      };
                    comp = comp_inv;
                  })
           else if f.child_trees <> [] then
             journal_append eng
               (Oplog.Subcommit
                  {
                    top = txn.top;
                    attempt = txn.attempt;
                    path = Ids.Action_id.path id;
                    comp = comp_inv;
                  })
         end);
      let parent_frame =
        match rest with
        | pf :: _ -> Some pf
        | [] -> (
            match task.t_parent with
            | Some (pt, _) -> (
                match pt.stack with pf :: _ -> Some pf | [] -> None)
            | None -> None)
      in
      (match parent_frame with
      | Some pf ->
          let idx = last_or 1 (Ids.Action_id.path (Action.id f.action)) in
          pf.child_trees <- (idx, tree) :: pf.child_trees;
          pf.undo <- undo_contribution @ pf.undo
      | None -> ());
      (match rest with
      | _ :: _ -> (
          match f.caller_k with
          | Direct k -> task.pending <- Step (fun () -> Effect.Deep.continue k v)
          | Caught k ->
              task.pending <- Step (fun () -> Effect.Deep.continue k (Ok v))
          | To_parent -> invalid_arg "Engine: nested frame without caller")
      | [] -> deliver_to_parent eng txn task ~tree ~undo:undo_contribution v)

(* -- invocation start --------------------------------------------------------------- *)

let discontinue_reply = function
  | Direct k -> discontinue_quietly k
  | Caught k -> discontinue_quietly k
  | To_parent -> ()

let new_frame ?compensate ~kind ~caller_k action =
  {
    action;
    kind;
    caller_k;
    compensate;
    next_child = 0;
    groups = [];
    child_trees = [];
    undo = [];
  }

let pinned pin a = match pin with Some f -> Action.with_pin a (f ()) | None -> a
let holder_top (e : Lock_table.entry) = Ids.Action_id.top (Action.id e.action)

let start_invocation eng txn task (inv : Runtime.invocation) action k =
  match Database.resolve eng.db inv.Runtime.target inv.Runtime.meth_name with
  | Error msg -> (
      match k with
      | Caught kk ->
          (* a caught call to a missing method fails softly *)
          task.pending <- Step (fun () -> Effect.Deep.continue kk (Error msg))
      | Direct _ | To_parent ->
          task.pending <- Idle;
          abort_txn eng txn ~retry:false msg)
  | Ok (m, pin) -> (
      let leaf = m.Database.kind = `Primitive in
      (* the lock table judges the request at the state it is made in;
         the recorded action is re-pinned when it actually runs *)
      let action = pinned pin action in
      match Protocol.request eng.config.protocol action ~leaf with
      | Protocol.Granted ->
          let frame =
            new_frame ?compensate:m.Database.compensate ~kind:m.Database.kind
              ~caller_k:k action
          in
          task.stack <- frame :: task.stack;
          task.waiting_for <- [];
          task.tstatus <- Runnable;
          let ctx = { Runtime.top = txn.top } in
          task.pending <-
            Step
              (fun () ->
                frame.action <- pinned pin frame.action;
                run_fiber (fun () -> m.Database.run ctx inv.Runtime.args))
      | Protocol.Blocked holders ->
          task.seen_grants <- Lock_table.grants (List.hd holders);
          task.wounds_pinned <- false;
          (* wait-die: a younger requester blocked by an older holder
             aborts itself (prevention by self-sacrifice) *)
          if
            eng.config.deadlock = Wait_die
            && txn.aborting = None
            && List.exists (fun e -> holder_top e < txn.top) holders
          then begin
            Stats.Counter.incr eng.counters "dies";
            discontinue_reply k;
            abort_txn eng txn ~retry:true "wait-die"
          end
          else begin
          (* wound-wait: an older transaction aborts younger holders
             instead of waiting behind them (prevention); conflicts within
             one transaction and holders already compensating wait *)
          (if eng.config.deadlock = Wound_wait then
             List.iter
               (fun e ->
                 let htop = holder_top e in
                 if htop > txn.top then
                 match
                   List.find_opt
                     (fun x -> x.top = htop && x.status = Running
                               && x.aborting = None)
                     eng.txns
                 with
                 | Some victim when victim.pinned ->
                     (* a prepared 2PC participant cannot be aborted
                        here; record the wound so the coordinator can
                        decide the global transaction instead *)
                     task.wounds_pinned <- true;
                     if not (List.mem victim.top eng.wounded_pinned) then
                       eng.wounded_pinned <- victim.top :: eng.wounded_pinned
                 | Some victim ->
                     Stats.Counter.incr eng.counters "wounds";
                     abort_txn eng victim ~retry:true "wounded"
                 | None -> ())
               holders);
          if task.tstatus <> Blocked then begin
            Stats.Counter.incr eng.counters "waits";
            task.blocked_since <- eng.clock;
            eng.clock <- eng.clock + 1
          end;
          task.tstatus <- Blocked;
          task.waiting_for <- holders;
          task.pending <- Request (inv, action, k)
          end)

(* -- stepping ------------------------------------------------------------------------- *)

let fresh_task (eng : t) txn ~process ~parent =
  eng.task_counter <- eng.task_counter + 1;
  let task =
    {
      t_id = eng.task_counter;
      txn_top = txn.top;
      process;
      stack = [];
      pending = Not_started;
      tstatus = Runnable;
      waiting_for = [];
      seen_grants = 0;
      wounds_pinned = false;
      blocked_since = 0;
      join = None;
      t_parent = parent;
    }
  in
  txn.tasks <- task :: txn.tasks;
  task

(* A root task running [body] as message [meth] on the system object:
   an attempt of the transaction, or its compensation phase. *)
let start_root (eng : t) txn ~meth body =
  let process = Ids.Process_id.main txn.top in
  let action =
    Action.v ~id:(Ids.Action_id.root txn.top) ~obj:Call_tree.Build.default_sys
      ~meth ~process ()
  in
  let task = fresh_task eng txn ~process ~parent:None in
  task.stack <- [ new_frame ~kind:`Composite ~caller_k:To_parent action ];
  task.pending <- Step (fun () -> run_fiber (fun () -> body { Runtime.top = txn.top }))

let start_txn (eng : t) txn =
  journal_append eng
    (Oplog.Begin { top = txn.top; attempt = txn.attempt; name = txn.tname });
  txn.first_step <- eng.steps;
  txn.branch_counter <- 0;
  start_root eng txn ~meth:txn.tname txn.body;
  (* optimistic protocols snapshot their version store per attempt, so a
     validation-abort retry re-reads against fresh committed state *)
  Protocol.on_begin eng.config.protocol txn.top

(* The compensation phase: run the undo items in order as a synthetic
   transaction body.  Restores run directly (their locks are still held);
   compensating invocations go through Runtime.call and therefore through
   the lock protocol. *)
let start_compensation (eng : t) txn items =
  let body ctx =
    List.iter
      (fun item ->
        match item with
        | Restore g -> g ()
        | Compensate inv ->
            ignore
              (Runtime.call ctx inv.Runtime.target inv.Runtime.meth_name
                 inv.Runtime.args))
      items;
    Value.unit
  in
  start_root eng txn ~meth:(txn.tname ^ ":abort") body

let () = start_compensation_hook := start_compensation

(* Fork one task per invocation; the forked actions form one parallel
   group of the current frame's action set (no mutual precedence), each
   on a fresh process (Def. 9). *)
let fork_branches eng txn task invs k =
  let parent_frame = current_frame task in
  if parent_frame.kind = `Primitive then begin
    discontinue_quietly k;
    abort_txn eng txn ~retry:false
      (Fmt.str "primitive method %a issued calls" Action.pp parent_frame.action)
  end
  else if invs = [] then
    task.pending <- Step (fun () -> Effect.Deep.continue k [])
  else begin
    let n = List.length invs in
    (* assign child indices left to right *)
    let first = parent_frame.next_child + 1 in
    parent_frame.next_child <- parent_frame.next_child + n;
    let indices = List.init n (fun i -> first + i) in
    parent_frame.groups <-
      Par (List.map (fun i -> i - 1) indices) :: parent_frame.groups;
    let join =
      { j_remaining = n; j_results = Array.make n Value.unit; j_k = k }
    in
    task.join <- Some join;
    task.tstatus <- Runnable;
    task.pending <- Joining;
    (* a branch that dies at its first request (wait-die) aborts the
       transaction, which unwinds this task: fork no further branches *)
    List.iteri
      (fun slot (idx, inv) ->
        if task.tstatus <> Finished then begin
          txn.branch_counter <- txn.branch_counter + 1;
          let process = Ids.Process_id.v ~top:txn.top ~branch:txn.branch_counter in
          let child = fresh_task eng txn ~process ~parent:(Some (task, slot)) in
          let id = Ids.Action_id.child (Action.id parent_frame.action) idx in
          let action =
            Action.v ~id ~obj:inv.Runtime.target ~meth:inv.Runtime.meth_name
              ~args:inv.Runtime.args ~process ()
          in
          start_invocation eng txn child inv action To_parent
        end)
      (List.combine indices invs)
  end

(* A sequential call from the task's current frame: the next child
   action, on the task's own process, requested on the next step. *)
let request_call eng txn task (inv : Runtime.invocation) reply =
  let parent = current_frame task in
  if parent.kind = `Primitive then begin
    discontinue_reply reply;
    abort_txn eng txn ~retry:false
      (Fmt.str "primitive method %a issued a call" Action.pp parent.action)
  end
  else begin
    parent.next_child <- parent.next_child + 1;
    parent.groups <- Seq (parent.next_child - 1) :: parent.groups;
    let id = Ids.Action_id.child (Action.id parent.action) parent.next_child in
    let action =
      Action.v ~id ~obj:inv.Runtime.target ~meth:inv.Runtime.meth_name
        ~args:inv.Runtime.args ~process:task.process ()
    in
    task.pending <- Request (inv, action, reply)
  end

(* Unwind ONE failed frame: its own and its completed children's locks
   are still held (the frame was active), so running the undo items
   directly is sound here — unlike a whole-transaction abort.  The
   failure then propagates to the caller: a [Caught] reply receives
   [Error msg] and the transaction continues (partial rollback); a
   [Direct] reply re-raises into the calling fiber; at a task root the
   whole transaction aborts. *)
let rec dispatch eng txn task r =
  match r with
  | Done v -> complete_frame eng txn task v
  | Raised Runtime.Abandoned -> abort_txn eng txn ~retry:false "abandoned"
  | Raised e ->
      let msg =
        match e with Runtime.Abort m -> m | e -> Printexc.to_string e
      in
      propagate_failure eng txn task msg
  | Undo_reg (g, k) ->
      (current_frame task).undo <- Restore g :: (current_frame task).undo;
      dispatch eng txn task (Effect.Deep.continue k ())
  | Yield_await k -> task.pending <- Await_input k
  | Yield_par (invs, k) -> fork_branches eng txn task invs k
  | Yield_try (inv, k) -> request_call eng txn task inv (Caught k)
  | Yield (inv, k) -> request_call eng txn task inv (Direct k)

and propagate_failure eng txn task msg =
  (* pop the failed frame and roll back its subtree in place: locks
     scoped to the frame are still held, so direct execution is sound *)
  let roll_back f rest =
    task.stack <- rest;
    List.iter
      (fun item ->
        match item with
        | Restore g -> g ()
        | Compensate inv ->
            ignore (Database.run_direct eng.db { Runtime.top = txn.top } inv))
      f.undo;
    Protocol.on_end eng.config.protocol f.action
  in
  match task.stack with
  | [] -> abort_txn eng txn ~retry:false msg
  | f :: rest -> (
      match f.caller_k with
      | To_parent ->
          (* a failed task root (transaction body or branch): the whole
             transaction aborts through the scheduled compensation phase,
             which collects this frame's undo items *)
          abort_txn eng txn ~retry:false msg
      | Caught k ->
          roll_back f rest;
          task.pending <- Step (fun () -> Effect.Deep.continue k (Error msg))
      | Direct k ->
          roll_back f rest;
          task.pending <-
            Step (fun () -> Effect.Deep.discontinue k (Runtime.Abort msg)))

let step (eng : t) txn task =
  eng.steps <- eng.steps + 1;
  match task.pending with
  | Idle | Joining | Await_input _ -> ()
  | Not_started ->
      Stats.Counter.incr eng.counters "starts";
      start_txn eng txn
  | Request (inv, action, k) -> start_invocation eng txn task inv action k
  | Step f -> dispatch eng txn task (f ())

(* -- the run loop ----------------------------------------------------------------------- *)

(* Deadlock detection is per task: parallel branches of one transaction
   can deadlock each other.  Waits-for edges go from a blocked task to
   the tasks of the lock holders, identified by the holder action's
   process (a holder whose task already finished, its lock retained at
   a higher scope, is attributed to any live task of its transaction),
   and from a joining task to its unfinished branches. *)
let waits_for (eng : t) =
  let all_tasks = List.concat_map (fun txn -> txn.tasks) eng.txns in
  let id_of = Option.map (fun t -> t.t_id) in
  let task_of_holder (e : Lock_table.entry) =
    let same_process t = Ids.Process_id.equal t.process (Action.process e.action) in
    match List.find_opt same_process all_tasks with
    | Some t -> Some t.t_id
    | None -> id_of (List.find_opt (fun t -> t.txn_top = holder_top e) all_tasks)
  in
  let branch_of task t =
    match t.t_parent with Some (p, _) when p == task -> Some t.t_id | _ -> None
  in
  List.filter_map
    (fun task ->
      match (task.tstatus, task.pending) with
      | Blocked, _ ->
          Some
            ( task.t_id,
              List.sort_uniq Int.compare
                (List.filter_map task_of_holder task.waiting_for) )
      | _, Joining -> Some (task.t_id, List.filter_map (branch_of task) all_tasks)
      | (Runnable | Finished), _ -> None)
    all_tasks

(* Abort the youngest transaction on the cycle, preferring one that is
   not already compensating: rolling back a rollback is a last resort. *)
let break_cycle (eng : t) cycle =
  Stats.Counter.incr eng.counters "deadlocks";
  let on_cycle txn = List.exists (fun t -> List.mem t.t_id cycle) txn.tasks in
  let candidates = List.filter on_cycle eng.txns in
  let fresh = List.filter (fun txn -> txn.aborting = None) candidates in
  let youngest_first a b = Int.compare b.top a.top in
  match List.sort youngest_first (if fresh = [] then candidates else fresh) with
  | victim :: _ -> abort_txn eng victim ~retry:true "deadlock victim"
  | [] -> ()

let changed task action =
  Lock_table.changed_since ~grants:task.seen_grants (Action.id action)
    task.waiting_for

(* A blocked request is asked again only when its answer could differ:
   the lock table changed for it; it carries a pin (escrow, fifo), which
   follows its object's state; or it wounded a pinned 2PC participant,
   a wound every probe reports again for the shard to escalate. *)
let due task action =
  changed task action || Option.is_some (Action.pin action) || task.wounds_pinned

let rec blocked_of txn acc = function
  | [] -> acc
  | task :: rest ->
      blocked_of txn (if task.tstatus = Blocked then (txn, task) :: acc else acc) rest

(* every blocked task, oldest wait first; no allocation when there is none *)
let blocked_tasks (eng : t) =
  match List.fold_left (fun acc txn -> blocked_of txn acc txn.tasks) [] eng.txns with
  | ([] | [ _ ]) as blocked -> blocked
  | blocked ->
      List.sort (fun (_, a) (_, b) -> Int.compare a.blocked_since b.blocked_since) blocked

(* Ask the due requests again, oldest wait first: a grant, wound or death
   earlier in the pass is seen by the requests after it. *)
let retry_blocked (eng : t) =
  match blocked_tasks eng with
  | [] -> ()
  | blocked ->
      List.iter
        (fun (txn, task) ->
          match task.pending with
          | Request (inv, action, k) when due task action ->
              start_invocation eng txn task inv action k
          | Request _ | Not_started | Step _ | Idle | Joining | Await_input _ -> ())
        blocked

(* Where the pump would stop.  A wound or death late in a pass can free
   locks a request asked earlier in it waits for: then it is not settled,
   and the pump passes again.  A blocked request that a probe recording
   nothing would grant is a lost wake-up, counted in "lost-wakeups",
   which must stay absent. *)
let settled (eng : t) =
  let grantable action =
    match Protocol.table eng.config.protocol with
    | Some table -> Lock_table.conflicting (Database.spec_registry eng.db) table action = []
    | None -> false
  in
  List.for_all
    (fun (_, task) ->
      match task.pending with
      | Request (_, action, _) ->
          (not (changed task action))
          && (if grantable action then Stats.Counter.incr eng.counters "lost-wakeups";
              true)
      | Not_started | Step _ | Idle | Joining | Await_input _ -> true)
    (blocked_tasks eng)

let new_txn ?deadline ~top ~name body =
  {
    top;
    tname = name;
    body;
    tasks = [];
    status = Running;
    attempt = 0;
    resume_after = 0;
    result = None;
    branch_counter = 0;
    aborting = None;
    first_step = -1;
    commit_step = -1;
    deadline;
    pinned = false;
    prims = [];
  }

let create ?(config : config option) db ~protocol =
  let config = match config with Some c -> c | None -> default_config protocol in
  (* top-level transactions are messages on the system object (Def. 4);
     they carry no semantics of their own *)
  let sys = Call_tree.Build.default_sys in
  if not (Database.mem db sys) then
    Database.register db sys ~spec:Commutativity.all_commute [];
  {
    db;
    config;
    txns = [];
    order = [];
    trees = [];
    steps = 0;
    clock = 0;
    stamp = 0;
    task_counter = 0;
    cert =
      (if config.certify && not config.certify_oracle then begin
         let reg = Database.spec_registry db in
         List.iter (Incremental.require_stable reg) (Database.objects db);
         Some (Incremental.create reg)
       end
       else None);
    last_reject = None;
    ext_memo = None;
    counters = Stats.Counter.create ();
    journal = None;
    wounded_pinned = [];
    trace_sink = None;
  }

let set_journal (eng : t) j = eng.journal <- j
let journal (eng : t) = eng.journal
let set_trace_sink (eng : t) sink = eng.trace_sink <- sink

let final_history (eng : t) =
  History.v
    ~tops:(List.map snd (by_top eng.trees))
    ~order:(List.map fst (by_stamp eng.order))
    ~commut:(Database.spec_registry eng.db)

(* The online certifier only ever holds an acyclic committed set, so
   once it has admitted every commit the committed history is
   oo-serializable: an O(1) verdict, no sweep. *)
let live_certified (eng : t) =
  match eng.cert with
  | Some c when Incremental.n_commits c = Stats.Counter.get eng.counters "commits"
    ->
      Some true
  | Some _ | None -> None

let metrics (eng : t) =
  let protocol = eng.config.protocol in
  let prefix = if Protocol.has_validate protocol then "occ." else "lock." in
  Stats.Counter.to_list eng.counters
  @ List.map
      (fun (k, v) -> (prefix ^ k, v))
      (Stats.Counter.to_list (Protocol.counters protocol))

let outcome_of (eng : t) =
  let committed =
    List.filter_map
      (fun txn -> if txn.status = Committed then Some txn.top else None)
      eng.txns
  in
  let aborted =
    List.filter_map
      (fun txn ->
        match txn.status with Aborted r -> Some (txn.top, r) | _ -> None)
      eng.txns
  in
  let results =
    List.filter_map
      (fun txn -> Option.map (fun v -> (txn.top, v)) txn.result)
      eng.txns
  in
  let latencies =
    List.filter_map
      (fun txn ->
        if txn.status = Committed && txn.first_step >= 0 then
          Some (txn.top, txn.commit_step - txn.first_step)
        else None)
      eng.txns
  in
  {
    history = final_history eng;
    committed;
    aborted;
    results;
    steps = eng.steps;
    latencies;
    metrics = metrics eng;
  }

(* What the pump may run next: a transaction to start, or one of its
   tasks to step. *)
type run_unit = Start of txn | Task of txn * task

(* The pump asks for these on every iteration, so the list is built
   directly: one cell and one unit per runnable task, no intermediate
   lists. *)
let runnable_units (eng : t) =
  let rec tasks txn units = function
    | [] -> units
    | task :: rest -> (
        match (task.tstatus, task.pending) with
        | Runnable, (Step _ | Request _ | Not_started) ->
            Task (txn, task) :: tasks txn units rest
        | _ -> tasks txn units rest)
  in
  let rec txns = function
    | [] -> []
    | txn :: rest -> (
        match txn.status with
        | Running when txn.resume_after <= eng.steps ->
            if txn.tasks = [] then Start txn :: txns rest
            else tasks txn (txns rest) txn.tasks
        | _ -> txns rest)
  in
  txns eng.txns

let parked (eng : t) =
  List.exists
    (fun txn -> txn.status = Running && txn.resume_after > eng.steps)
    eng.txns

let label_of_unit = function
  | Start txn ->
      { u_top = txn.top; u_task = -1; u_boundary = true; u_obj = ""; u_meth = "" }
  | Task (txn, task) -> (
      match task.pending with
      | Request (inv, _, _) ->
          {
            u_top = txn.top;
            u_task = task.t_id;
            u_boundary = true;
            u_obj = Obj_id.name inv.Runtime.target;
            u_meth = inv.Runtime.meth_name;
          }
      | Not_started ->
          {
            u_top = txn.top;
            u_task = task.t_id;
            u_boundary = true;
            u_obj = "";
            u_meth = "";
          }
      | Step _ | Await_input _ | Joining | Idle ->
          {
            u_top = txn.top;
            u_task = task.t_id;
            u_boundary = false;
            u_obj = "";
            u_meth = "";
          })

let pick_unit (eng : t) units =
  match eng.config.strategy with
  | Round_robin -> List.nth units (eng.steps mod List.length units)
  | Random_pick rng -> Rng.pick rng units
  | Controlled choose ->
      let i = choose (List.map label_of_unit units) in
      if i >= 0 && i < List.length units then List.nth units i
      else List.nth units (eng.steps mod List.length units)

(* -- dynamic driving ----------------------------------------------------------------------

   The network server grows the transaction set while the engine runs:
   sessions [submit] interactive transactions whose bodies park on
   [Runtime.await] between client commands, the server [poke]s them when
   a command arrives and [pump]s the engine to quiescence after every
   external event.  Deadlines ([set_deadline], against the injected
   [config.now] clock) bound how long a session may hold the engine's
   locks; an expired transaction is aborted through the normal
   compensation path, so its locks are released and blocked waiters get
   in via [retry_blocked]. *)

let find_txn (eng : t) top = List.find_opt (fun x -> x.top = top) eng.txns

let submit (eng : t) ~top ~name ?deadline body =
  if find_txn eng top <> None then
    invalid_arg (Printf.sprintf "Engine.submit: transaction %d exists" top);
  eng.txns <- eng.txns @ [ new_txn ?deadline ~top ~name body ]

let set_deadline (eng : t) ~top deadline =
  match find_txn eng top with
  | Some txn -> txn.deadline <- deadline
  | None -> ()

let txn_state (eng : t) top =
  match find_txn eng top with
  | None -> `Unknown
  | Some txn -> (
      match txn.status with
      | Running -> `Running
      | Committed -> `Committed (Option.value txn.result ~default:Value.unit)
      | Aborted reason -> `Aborted reason)

(* Wake the transaction's task parked on [Runtime.await], if any.  False
   when nothing was awaiting — the transaction may be replaying an
   earlier attempt or still working; the caller's mailbox keeps the
   command and the body reaches it without the wake-up. *)
let poke (eng : t) top =
  match find_txn eng top with
  | Some txn when txn.status = Running ->
      List.exists
        (fun task ->
          match task.pending with
          | Await_input k ->
              task.pending <- Step (fun () -> Effect.Deep.continue k ());
              true
          | Not_started | Step _ | Request _ | Joining | Idle -> false)
        txn.tasks
  | Some _ | None -> false

let abort_top (eng : t) ~top reason =
  match find_txn eng top with
  | Some txn when txn.status = Running && txn.aborting = None ->
      abort_txn eng txn ~retry:false reason;
      true
  | Some _ | None -> false

(* The pump calls this on every iteration, so the clock (a system call
   in the server) is read only when some transaction could expire. *)
let check_deadlines (eng : t) =
  let expirable txn =
    match (txn.status, txn.aborting, txn.deadline) with
    | Running, None, Some _ -> not txn.pinned
    | _ -> false
  in
  if List.exists expirable eng.txns then begin
    let now = eng.config.now () in
    List.iter
      (fun txn ->
        match txn.deadline with
        | Some d when expirable txn && now > d ->
            Stats.Counter.incr eng.counters "deadline-aborts";
            abort_txn eng txn ~retry:false "deadline exceeded"
        | _ -> ())
      eng.txns
  end

(* Step until quiescent: nothing runnable, no deadlock cycle to break
   (join edges included), no backoff park to sit out, nothing unsettled —
   every live task either awaiting client input or blocked on a lock
   whose release needs such input.  Each iteration first asks the due
   blocked requests again; one whose answer cannot have changed costs
   nothing.  Bounded by [config.max_steps] per call as a safety valve;
   returns the number of steps taken. *)
let pump (eng : t) =
  let start = eng.steps in
  let budget = eng.steps + eng.config.max_steps in
  let rec loop () =
    check_deadlines eng;
    if eng.steps >= budget then ()
    else begin
      retry_blocked eng;
      match runnable_units eng with
      | [] -> (
          (* every cycle runs through a blocked task *)
          let blocked = blocked_tasks eng <> [] in
          match if blocked then Deadlock.find_cycle (waits_for eng) else None with
          | Some cycle ->
              break_cycle eng cycle;
              loop ()
          | None ->
              if parked eng then begin
                eng.steps <- eng.steps + 1;
                loop ()
              end
              else if blocked && not (settled eng) then loop ())
      | units ->
          (match pick_unit eng units with
          | Start txn ->
              eng.steps <- eng.steps + 1;
              Stats.Counter.incr eng.counters "starts";
              start_txn eng txn
          | Task (txn, task) -> step eng txn task);
          loop ()
    end
  in
  loop ();
  eng.steps - start

let nearest_deadline (eng : t) =
  List.fold_left
    (fun acc txn ->
      match (txn.status, txn.deadline) with
      | Running, Some d -> Some (match acc with Some a -> Float.min a d | None -> d)
      | _ -> acc)
    None eng.txns

(* A batch run is a pump over a fixed transaction set: its bodies carry
   no deadline and nothing pokes them, so the pump's quiescence ends the
   run (a body parked on [Runtime.await] is left running).  Out of
   budget, fail the stragglers and pump on, one budget per call and 4x
   the budget in all, so their compensation phases can run to
   completion; no straggler restarts, since aborting a compensating
   transaction gives up rather than retries. *)
let run ?config ?journal db ~protocol bodies =
  let eng = create ?config db ~protocol in
  eng.journal <- journal;
  List.iter (fun (top, name, body) -> submit eng ~top ~name body) bodies;
  ignore (pump eng);
  if eng.steps >= eng.config.max_steps then begin
    List.iter
      (fun txn ->
        if txn.status = Running && txn.aborting = None then
          abort_txn eng txn ~retry:false "step budget")
      eng.txns;
    let rec compensate () =
      if
        List.exists (fun txn -> txn.status = Running) eng.txns
        && eng.steps < 4 * eng.config.max_steps
        && pump eng > 0
      then compensate ()
    in
    compensate ();
    (* even the compensations ran out of road *)
    List.iter
      (fun txn ->
        if txn.status = Running then begin
          ignore (unwind_tasks txn);
          finish_abort eng txn ~retry:false "step budget"
        end)
      eng.txns
  end;
  outcome_of eng

(* Drop committed and aborted transactions the caller no longer needs —
   a long-running server retires each finished one so [eng.txns] (and the
   per-transaction scan costs above) stay proportional to the live set.
   A committed transaction's tree and primitives were published to
   [eng.trees]/[eng.order] at its commit, so retiring it loses nothing
   the history needs. *)
let retire (eng : t) ~top =
  match find_txn eng top with
  | Some txn when txn.status <> Running ->
      eng.txns <- List.filter (fun x -> x.top <> top) eng.txns;
      true
  | Some _ | None -> false

let counters (eng : t) = eng.counters
let steps (eng : t) = eng.steps

(* -- 2PC participant support ---------------------------------------------------

   A shard engine voting in a distributed commit pins the prepared
   transaction: it keeps holding its locks but wound-wait and deadline
   expiry may no longer abort it — only the coordinator's decision (or
   an explicit [abort_top] after [unpin]) resolves it.  Wounds attempted
   against pinned transactions are parked in [wounded_pinned] for the
   shard loop to escalate. *)

let pin (eng : t) ~top =
  match find_txn eng top with
  | Some txn when txn.status = Running -> txn.pinned <- true
  | Some _ | None -> ()

let unpin (eng : t) ~top =
  match find_txn eng top with
  | Some txn -> txn.pinned <- false
  | None -> ()

let take_wounded_pinned (eng : t) =
  let w = eng.wounded_pinned in
  eng.wounded_pinned <- [];
  w

(* After a [pump] to quiescence: true iff the transaction is running,
   not compensating, and every task is parked on [Runtime.await] — i.e.
   it has replayed its whole command log and holds stable results.  The
   shard's prepare step votes only in this state, so the partial tree it
   reports covers every call of the prepared transaction. *)
let txn_quiescent (eng : t) ~top =
  match find_txn eng top with
  | Some txn ->
      txn.status = Running && txn.aborting = None && txn.tasks <> []
      && List.for_all
           (fun tk ->
             match tk.pending with Await_input _ -> true | _ -> false)
           txn.tasks
  | None -> false

(* The committed history extended with the partial call trees of the
   still-running transactions in [live] (default: all of them).  This is
   what a shard's prepare step feeds [Schedule.compute]: dependency
   edges involving uncommitted neighbours must be reported to the
   coordinator too, otherwise a cycle through a transaction that
   prepares later (or never — a single-shard commit) would go unseen.
   Partial trees contain only *completed* subtrees; primitives recorded
   under a call frame still on the stack are filtered out of the order
   so the history stays well-formed, and running transactions that have
   completed no root-level call yet are omitted entirely (their root
   would be an order-less leaf). *)
let observed_history (eng : t) =
  let live =
    List.filter_map
      (fun txn ->
        if txn.status = Running && txn.aborting = None then
          match List.find_opt (fun tk -> tk.t_parent = None) txn.tasks with
          | Some task -> (
              match List.rev task.stack with
              | root :: _ when root.child_trees <> [] ->
                  Some (txn, tree_of_frame root)
              | _ -> None)
          | None -> None
        else None)
      eng.txns
  in
  let trees =
    by_top (eng.trees @ List.map (fun (txn, tree) -> (txn.top, tree)) live)
  in
  let leaves =
    List.fold_left
      (fun acc (_, tree) ->
        List.fold_left
          (fun acc act -> Ids.Action_id.Set.add (Action.id act) acc)
          acc
          (Call_tree.primitives tree))
      Ids.Action_id.Set.empty trees
  in
  let order =
    List.fold_left (fun acc (txn, _) -> txn.prims @ acc) eng.order live
    |> List.filter (fun (id, _) -> Ids.Action_id.Set.mem id leaves)
    |> by_stamp |> List.map fst
  in
  History.v ~tops:(List.map snd trees) ~order
    ~commut:(Database.spec_registry eng.db)

(* The committed execution order with its stamps, final attempts only —
   [(action id, stamp)] sorted by stamp.  With a shared [next_stamp]
   counter, sorting several shards' stamped orders together reconstructs
   the global execution order. *)
let stamped_order (eng : t) = by_stamp eng.order

(* The certifier-side validation frontier: the smallest execution stamp
   recorded by any still-running transaction's current attempt, or
   [max_int] when no running transaction has recorded a stamp yet.
   Dependency edges always point from the earlier-stamped action of a
   conflicting pair to the later one, so a committed transaction whose
   stamps all lie below the frontier can no longer become the *target*
   of a new edge — every edge into it is already determined by the
   recorded history.  A sharded certify-mode vote anchors its window
   here instead of shipping the full history (see Shard.vote_window);
   such settled transactions can still be the *source* of an edge to a
   still-live transaction, which is why the shard keeps a monotone
   watermark rather than using the instantaneous frontier directly. *)
let validation_frontier (eng : t) =
  List.fold_left
    (fun acc txn ->
      if txn.status = Running && txn.aborting = None then
        List.fold_left (fun acc (_, stamp) -> min acc stamp) acc txn.prims
      else acc)
    max_int eng.txns

(* Committed call trees by top, final attempts — the raw material for a
   dispatcher-side merged history. *)
let committed_trees (eng : t) = by_top eng.trees

(* -- durable recovery ---------------------------------------------------------

   [recover] turns a stable operation log (plus an optional snapshot)
   back into a live engine: analysis ([Recovery.analyze]) classifies the
   logged attempts; redo replays every logged root call of every attempt
   in original log order through real engine dispatch ("repeating
   history" at the method level — winners' reads may depend on committed
   subtransactions of attempts that later aborted, so losers' calls are
   replayed too); the decision points re-commit winners and re-abort the
   stably-aborted; attempts still in flight at the crash are losers and
   are aborted after the schedule, which drives the engine's own
   multi-level undo — compensations for their committed subtransactions,
   newest first (the reverse inheritance order of Defs. 10-13), as
   re-registered during the replay itself.  Nothing below a root-level
   call is logged: replay rebuilds the in-memory pages from a fresh
   database, and an uncommitted primitive simply never made it into the
   log.

   Replay runs each attempt as a live transaction fed from a
   [Call_log]; the body re-reads its log from the start on every engine
   attempt, so certification retries replay identically.  Because
   replay is driven to quiescence between calls it is serial, and the
   lock set held at any point is a subset of the original run's —
   anything granted then is granted now. *)

type recovery_report = {
  plan : Recovery.plan;
  replayed_calls : int;
  skipped_attempts : int;
  replay_failures : int;
  rec_winners : (int * int) list;
  undone : (int * int) list;
  recertified : bool;
}

let recover ?config ?snapshot ?crash ?(recertify = true) db ~protocol oplog =
  let config =
    match config with Some c -> c | None -> default_config protocol
  in
  let eng = create ~config db ~protocol in
  let records = Oplog.stable oplog in
  let applied = match snapshot with Some s -> Snapshot.keys s | None -> [] in
  let plan = Recovery.analyze ~applied records in
  let replayed = ref 0 in
  let logs = ref [] in
  let new_log () =
    let log = Call_log.create () in
    logs := log :: !logs;
    log
  in
  let push log (inv : Oplog.invocation) =
    Call_log.push log inv.Oplog.obj inv.Oplog.meth inv.Oplog.args
  in
  (* a winner: its finished log must replay to a commit *)
  let settle top log counter =
    Call_log.finish log;
    ignore (poke eng top);
    ignore (pump eng);
    Stats.Counter.incr eng.counters
      (match txn_state eng top with
      | `Committed _ -> counter
      | _ -> "recovery-replay-failures");
    ignore (retire eng ~top)
  in
  (* snapshot restore: serial replay of the compacted winners, commit
     order *)
  Option.iter
    (fun s ->
      List.iter
        (fun (e : Snapshot.entry) ->
          let log = new_log () in
          List.iter (push log) e.Snapshot.calls;
          submit eng ~top:e.Snapshot.top ~name:e.Snapshot.name
            (Call_log.body log);
          settle e.Snapshot.top log "recovered-snapshot")
        s.Snapshot.entries)
    snapshot;
  (* redo: repeat history in original log order *)
  let attempt_logs : (int * int, Call_log.t) Hashtbl.t = Hashtbl.create 16 in
  let log_of a =
    match Hashtbl.find_opt attempt_logs (Recovery.key a) with
    | Some log -> log
    | None ->
        let log = new_log () in
        Hashtbl.add attempt_logs (Recovery.key a) log;
        log
  in
  List.iter
    (fun step ->
      match step with
      | Recovery.Start a when not a.Recovery.skip ->
          submit eng ~top:a.Recovery.top ~name:a.Recovery.name
            (Call_log.body (log_of a));
          ignore (pump eng)
      | Recovery.Replay (a, inv, _) when not a.Recovery.skip ->
          push (log_of a) inv;
          incr replayed;
          ignore (poke eng a.Recovery.top);
          ignore (pump eng)
      | Recovery.Decide a when not a.Recovery.skip -> (
          match a.Recovery.disposition with
          | Recovery.Committed ->
              settle a.Recovery.top (log_of a) "recovered-winners"
          | Recovery.Aborted reason ->
              ignore (abort_top eng ~top:a.Recovery.top ("recovery: " ^ reason));
              ignore (pump eng);
              Stats.Counter.incr eng.counters "recovered-aborts";
              ignore (retire eng ~top:a.Recovery.top)
          | Recovery.Incomplete -> ())
      | Recovery.Start _ | Recovery.Replay _ | Recovery.Decide _ -> ())
    plan.Recovery.schedule;
  (* multi-level undo: the losers (in flight at the crash), reverse
     begin order; aborting each drives the engine's compensation phase
     over the undo items re-registered during replay *)
  let undone = ref [] in
  List.iter
    (fun (top, att) ->
      match
        List.find_opt
          (fun a -> Recovery.key a = (top, att))
          plan.Recovery.attempts
      with
      | Some a when not a.Recovery.skip ->
          Crash.point crash Crash.Mid_undo;
          ignore (abort_top eng ~top "recovery: in flight at crash");
          ignore (pump eng);
          undone := (top, att) :: !undone;
          Stats.Counter.incr eng.counters "recovered-losers";
          ignore (retire eng ~top)
      | _ -> ())
    (List.rev plan.Recovery.losers);
  (* acceptance oracle: the recovered committed history must still be
     oo-serializable (Vbox-style re-verification) *)
  let recertified =
    if recertify then (Serializability.check (final_history eng)).oo_serializable
    else true
  in
  Stats.Counter.incr eng.counters "recoveries";
  let report =
    {
      plan;
      replayed_calls = !replayed;
      skipped_attempts = List.length plan.Recovery.skipped;
      replay_failures =
        List.fold_left (fun n log -> n + Call_log.errors log) 0 !logs;
      rec_winners = plan.Recovery.winners;
      undone = List.rev !undone;
      recertified;
    }
  in
  (eng, report)
