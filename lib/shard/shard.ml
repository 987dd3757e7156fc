open Ooser_core
open Ooser_oodb
open Ooser_cc
open Ooser_recovery

type profile = {
  stack : Engine_stack.config;
  keep : string -> bool;
  next_stamp : unit -> int;
  durable_dir : string option;
  decisions : Decision_log.decision list;
}

type cmd =
  | Open_branch of { top : int; name : string; deadline : float option }
  | Branch_call of {
      top : int;
      seq : int;
      obj : string;
      meth : string;
      args : Value.t list;
    }
  | Branch_commit of { top : int }
  | Prepare of { top : int }
  | Decide of { top : int; commit : bool; reason : string }
  | Set_deadline of { top : int; deadline : float option }
  | Stats_req of { token : int }
  | Snapshot_req of { token : int }
  | Checkpoint_req of { token : int }
  | Stop

type event =
  | Ev_result of {
      shard : int;
      top : int;
      seq : int;
      r : (Value.t, string) result;
    }
  | Ev_vote of {
      shard : int;
      top : int;
      edges : (int * int) list option;
      tentative : (int * int) list;
      reason : string;
    }
  | Ev_decided of { shard : int; top : int; outcome : (Value.t, string) result }
  | Ev_wound of { shard : int; top : int }
  | Ev_stats of {
      shard : int;
      token : int;
      engine : (string * int) list;
      lock : (string * int) list;
      cert_depth : int;
    }
  | Ev_snapshot of {
      shard : int;
      token : int;
      serializable : bool;
      trees : (int * Call_tree.t) list;
      order : (Ids.Action_id.t * int) list;
      specs : (Obj_id.t * Commutativity.spec) list;
    }
  | Ev_checkpointed of { shard : int; token : int }
  | Ev_stopped of { shard : int }

(* -- branches: the shard-local half of a transaction -------------------------

   The same command-log bridge as the server's sessions: the branch's
   calls go to a {!Call_log} whose body parks on [Runtime.await] past
   the end, so engine-internal retries (wound-wait restarts,
   certification failures) re-execute the logged prefix invisibly. *)

type branch = {
  top : int;
  log : Call_log.t;  (* finished on decide-commit or the fast path *)
  mutable emitted : int;  (* call results already sent to the dispatcher *)
  mutable prepare_requested : bool;
  mutable voted : bool;
}

let new_branch ~top =
  { top; log = Call_log.create (); emitted = 0; prepare_requested = false;
    voted = false }

(* -- the shard ------------------------------------------------------------- *)

type t = {
  idx : int;
  profile : profile;
  db : Database.t;
  engine : Engine.t;
  protocol : Protocol.t;
  durable : Engine_stack.durable option;
  inbox : cmd Queue.t;
  inbox_mu : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  emit : event -> unit;
  branches : (int, branch) Hashtbl.t;
  pending : (int, int list) Hashtbl.t;
      (* committed tops that can still have unreported edges to a
         concurrent neighbour: top -> the unpinned running tops at its
         commit.  The top stays in the vote window until every waiter
         has decided; transactions starting later can only acquire
         forward (retained-lock-ordered) edges to it, which cannot
         close a cycle under the lock protocols *)
  mutable dep_commut : Commutativity.registry option;
  mutable vote_full : bool;
      (* audit override: vote with the full observed history even where
         the window argument applies — the model checker compares the
         outcomes of both modes schedule by schedule *)
  mutable cert_watermark : int;
      (* [`Certify] vote window: the validation frontier observed at the
         previous vote.  Committed tops all of whose stamps lie below it
         are settled — out of the window — because no new edge can point
         into them; monotone, one vote behind the frontier *)
  mutable stopping : bool;
  mutable stop_emitted : bool;
  mutable domain : unit Domain.t option;
}

let idx t = t.idx
let next_top_floor t =
  match t.durable with Some d -> Engine_stack.next_top d | None -> 1
let spec t o = Database.spec t.db o

(* The registered spec of every object the trees touch, looked up here in
   the shard's own domain: the database is a mutable table that this
   domain keeps growing, so another domain may read specs only from a
   snapshot. *)
let tree_specs db trees =
  let seen = Obj_id.Tbl.create 64 in
  let rec visit (node : Call_tree.t) =
    let o = Obj_id.original (Action.obj node.Call_tree.act) in
    if not (Obj_id.Tbl.mem seen o) then Obj_id.Tbl.add seen o (Database.spec db o);
    List.iter visit node.Call_tree.children
  in
  List.iter (fun (_, tree) -> visit tree) trees;
  Obj_id.Tbl.fold
    (fun o spec acc -> match spec with Some s -> (o, s) :: acc | None -> acc)
    seen []
  |> List.sort (fun (a, _) (b, _) -> Obj_id.compare a b)

let force_journal sh = Option.iter Oplog.force (Engine.journal sh.engine)

(* -- event emission after a pump ------------------------------------------- *)

let emit_results sh br =
  let n = Call_log.length br.log in
  let continue = ref true in
  while !continue && br.emitted < n do
    match Call_log.result br.log br.emitted with
    | Some r ->
        sh.emit (Ev_result { shard = sh.idx; top = br.top; seq = br.emitted; r });
        br.emitted <- br.emitted + 1
    | None -> continue := false
  done

(* A transaction's reported order is a *fact* only once it can no longer
   be re-executed or rolled back: committed tops and pinned (voted,
   in-doubt) branches.  A running unpinned branch can still be wound and
   retried, and the retry may re-execute it on the other side of a
   neighbour — flipping the edge; an aborted branch's actions are in the
   middle of leaving the history altogether.  Stable edges go into the
   coordinator's permanent graph; unstable ones are reported separately
   as tentative, good for refusing the current prepare but withdrawn
   afterwards (a stale edge in the permanent graph would refuse — and
   latch violations on — cycles that never happened). *)
let stable_top sh tid =
  match Hashtbl.find_opt sh.branches tid with
  | Some br -> (
      match Engine.txn_state sh.engine tid with
      | `Committed _ -> true
      | `Aborted _ -> false
      | `Running | `Unknown -> br.voted)
  | None -> true (* retired: part of the committed history *)

(* The shard's current top-level transaction dependency relation, over
   committed, in-doubt and running neighbours (Def. 15 says every
   dependency is recorded at both objects, so this per-shard relation is
   this shard's complete contribution to the global one), split into
   (stable, tentative).  Only dependencies that escalate all the way to
   root endpoints count: a lower-level dependency stopped by commuting
   callers does not constrain the top-level order (same rule as the
   oracle's serial witness), and page-level edges between tops whose
   methods commute would otherwise report opposite directions at
   different objects for perfectly serializable histories. *)
(* [Schedule.compute] probes the raw specs on every conflict test; a
   vote recomputes the schedule of the whole observed history, so
   without memoisation each prepare costs hundreds of milliseconds of
   repeated spec probes — all of it inside the shard's domain loop,
   stalling every other transaction on the shard.  Stable specs answer
   purely from (method, args, pin) triples, so their probes memoize
   across votes in one [Commutativity.cached] table; unstable specs pass
   through untouched. *)
let memo_registry (reg : Commutativity.registry) =
  let cache = Commutativity.cached reg in
  Commutativity.registry ~known:(Commutativity.known reg) (fun o ->
      let s = Commutativity.spec_for reg o in
      Commutativity.make ~stable:(Commutativity.stable s)
        ~name:(Commutativity.name s) (Commutativity.cached_test cache))

(* Under the lock protocols, computing a vote's edges over the whole
   observed history is wasted work: retained locks order conflicting
   root-level work across commit boundaries, so a committed transaction
   none of whose edges touch a still-running neighbour can gain no new
   inbound dependency — every future edge leaves it towards a younger
   transaction, and such forward edges cannot close a cycle.  The vote
   window is therefore the live branches plus the committed [pending]
   tops, and a pending top retires from the window as soon as a vote
   finds no tentative edge touching it (its stable edges are then
   permanently recorded by the coordinator — see [Coordinator.absorb]
   for votes that arrive after their transaction is gone).

   The unlocked [`Certify] protocol has no retained locks, so the
   pending-retirement argument does not apply; its window anchors on
   the engine's validation frontier instead (DESIGN §17): dependency
   edges point from the earlier execution stamp to the later one, so a
   committed transaction all of whose stamps lie below the smallest
   stamp of any still-running transaction can never again become the
   TARGET of a new edge — it cannot join a new cycle, and every edge
   between two such settled transactions was already reported stable at
   the later one's own (pinned) vote.  Settled transactions can still
   be the SOURCE of an edge to a live neighbour, which is why the shard
   advances a monotone watermark one vote behind the instantaneous
   frontier rather than using the frontier directly: a transaction
   stays in the window through the vote that observes it settled.  The
   model checker's vote-window audit re-runs every explored schedule
   with [vote_full] and requires identical per-transaction outcomes. *)
let vote_window sh h =
  if sh.vote_full then begin
    (* audit override: pay the full-history certification the window is
       claimed to be equivalent to, and make the cost visible *)
    Ooser_sim.Stats.Counter.incr (Engine.counters sh.engine)
      "vote-full-history";
    h
  end
  else begin
    Ooser_sim.Stats.Counter.incr (Engine.counters sh.engine) "vote-windowed";
    let keep = Hashtbl.create 64 in
    Hashtbl.iter (fun top _ -> Hashtbl.replace keep top ()) sh.pending;
    Hashtbl.iter (fun top _ -> Hashtbl.replace keep top ()) sh.branches;
    (match sh.profile.stack.protocol_kind with
    | `Certify ->
        List.iter
          (fun (id, stamp) ->
            if stamp >= sh.cert_watermark then
              Hashtbl.replace keep (Ids.Action_id.top id) ())
          (Engine.stamped_order sh.engine);
        let f = Engine.validation_frontier sh.engine in
        if f < max_int && f > sh.cert_watermark then sh.cert_watermark <- f
    | `Open | `Flat | `Closed -> ());
    let tops =
      List.filter
        (fun tree ->
          Hashtbl.mem keep (Ids.Action_id.top (Action.id (Call_tree.act tree))))
        (History.tops h)
    in
    let order =
      List.filter
        (fun a -> Hashtbl.mem keep (Ids.Action_id.top a))
        (History.order h)
    in
    History.v ~tops ~order ~commut:(History.commut h)
  end

let dependency_edges sh =
  let full = Engine.observed_history sh.engine in
  let commut =
    match sh.dep_commut with
    | Some r -> r
    | None ->
        let r = memo_registry (History.commut full) in
        sh.dep_commut <- Some r;
        r
  in
  let w = vote_window sh full in
  let h = History.v ~tops:(History.tops w) ~order:(History.order w) ~commut in
  let sched = Schedule.compute h in
  let edges =
    List.fold_left
      (fun acc (os : Schedule.object_schedule) ->
        Action.Rel.fold_edges
          (fun a b acc ->
            if Ids.Action_id.is_root a && Ids.Action_id.is_root b then
              let ta = Ids.Action_id.top a and tb = Ids.Action_id.top b in
              if ta = tb then acc else (ta, tb) :: acc
            else acc)
          os.Schedule.txn_dep acc)
      [] (Schedule.objects sched)
  in
  List.partition
    (fun (a, b) -> stable_top sh a && stable_top sh b)
    (List.sort_uniq compare edges)

let try_vote sh br =
  if
    br.prepare_requested && (not br.voted)
    && (not (Call_log.finished br.log))
    && Call_log.n_results br.log >= Call_log.length br.log
    && Engine.txn_quiescent sh.engine ~top:br.top
  then begin
    (* the vote promise: everything this branch did is stable before the
       coordinator may log a commit decision *)
    force_journal sh;
    Engine.pin sh.engine ~top:br.top;
    br.voted <- true;
    let stable, tentative = dependency_edges sh in
    sh.emit
      (Ev_vote
         {
           shard = sh.idx;
           top = br.top;
           edges = Some stable;
           tentative;
           reason = "";
         })
  end

let emit_progress sh =
  List.iter
    (fun top -> sh.emit (Ev_wound { shard = sh.idx; top }))
    (Engine.take_wounded_pinned sh.engine);
  let decided = ref [] in
  Hashtbl.iter
    (fun _ br ->
      emit_results sh br;
      match Engine.txn_state sh.engine br.top with
      | `Committed v ->
          let waiters =
            Hashtbl.fold
              (fun top other acc ->
                if
                  top <> br.top && (not other.voted)
                  && Engine.txn_state sh.engine top = `Running
                then top :: acc
                else acc)
              sh.branches []
          in
          Hashtbl.replace sh.pending br.top waiters;
          sh.emit
            (Ev_decided { shard = sh.idx; top = br.top; outcome = Ok v });
          ignore (Engine.retire sh.engine ~top:br.top);
          decided := br.top :: !decided
      | `Aborted reason ->
          sh.emit
            (Ev_decided
               { shard = sh.idx; top = br.top; outcome = Error reason });
          ignore (Engine.retire sh.engine ~top:br.top);
          decided := br.top :: !decided
      | `Running -> try_vote sh br
      | `Unknown -> ())
    sh.branches;
  List.iter (Hashtbl.remove sh.branches) !decided;
  (* committed tops leave the vote window once every transaction that
     ran unpinned beside them has decided *)
  let updates =
    Hashtbl.fold
      (fun top waiters acc ->
        let live = List.filter (Hashtbl.mem sh.branches) waiters in
        if List.compare_lengths live waiters <> 0 then (top, live) :: acc
        else acc)
      sh.pending []
  in
  List.iter
    (fun (top, live) ->
      if live = [] then Hashtbl.remove sh.pending top
      else Hashtbl.replace sh.pending top live)
    updates

(* -- command application ---------------------------------------------------- *)

let apply sh = function
  | Open_branch { top; name; deadline } ->
      if not (Hashtbl.mem sh.branches top) then begin
        let br = new_branch ~top in
        Hashtbl.replace sh.branches top br;
        Engine.submit sh.engine ~top ~name ?deadline (Call_log.body br.log)
      end
  | Branch_call { top; seq = _; obj; meth; args } -> (
      match Hashtbl.find_opt sh.branches top with
      | Some br ->
          Call_log.push br.log (Obj_id.v obj) meth args;
          ignore (Engine.poke sh.engine top)
      | None -> ())
  | Branch_commit { top } -> (
      match Hashtbl.find_opt sh.branches top with
      | Some br ->
          Call_log.finish br.log;
          ignore (Engine.poke sh.engine top)
      | None -> ())
  | Prepare { top } -> (
      match Hashtbl.find_opt sh.branches top with
      | Some br -> br.prepare_requested <- true
      | None ->
          sh.emit
            (Ev_vote
               {
                 shard = sh.idx;
                 top;
                 edges = None;
                 tentative = [];
                 reason = "unknown branch";
               }))
  | Decide { top; commit; reason } -> (
      match Hashtbl.find_opt sh.branches top with
      | Some br ->
          if commit then begin
            Call_log.finish br.log;
            ignore (Engine.poke sh.engine top)
          end
          else begin
            Engine.unpin sh.engine ~top;
            ignore (Engine.abort_top sh.engine ~top reason)
          end
      | None -> ())
  | Set_deadline { top; deadline } -> Engine.set_deadline sh.engine ~top deadline
  | Stats_req { token } ->
      let engine = Ooser_sim.Stats.Counter.to_list (Engine.counters sh.engine) in
      let lock = Ooser_sim.Stats.Counter.to_list (Protocol.counters sh.protocol) in
      let cert_depth = List.length (Engine.committed_trees sh.engine) in
      sh.emit (Ev_stats { shard = sh.idx; token; engine; lock; cert_depth })
  | Snapshot_req { token } ->
      let serializable =
        Serializability.oo_serializable (Engine.final_history sh.engine)
      in
      let trees = Engine.committed_trees sh.engine in
      sh.emit
        (Ev_snapshot
           {
             shard = sh.idx;
             token;
             serializable;
             trees;
             order = Engine.stamped_order sh.engine;
             specs = tree_specs sh.db trees;
           })
  | Checkpoint_req { token } ->
      Option.iter (Engine_stack.checkpoint sh.engine) sh.durable;
      sh.emit (Ev_checkpointed { shard = sh.idx; token })
  | Stop -> sh.stopping <- true

(* -- the domain loop -------------------------------------------------------- *)

let drain_inbox sh =
  Mutex.lock sh.inbox_mu;
  let cmds = ref [] in
  while not (Queue.is_empty sh.inbox) do
    cmds := Queue.pop sh.inbox :: !cmds
  done;
  Mutex.unlock sh.inbox_mu;
  List.rev !cmds

let drain_pipe fd =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read fd buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* One scheduling turn, shared by the domain loop and the in-process
   (model-checking) driver: drain and apply queued commands, advance the
   engine to quiescence, report progress.  Everything in here runs on
   whichever thread calls it — in core mode that is the dispatcher's own
   thread, which is what makes a model-checked run single-threaded and
   therefore a pure function of the scheduler's choices. *)
let step sh =
  drain_pipe sh.wake_r;
  let cmds = drain_inbox sh in
  List.iter (apply sh) cmds;
  ignore (Engine.pump sh.engine);
  emit_progress sh;
  if sh.stopping && (not sh.stop_emitted) && Hashtbl.length sh.branches = 0
  then begin
    force_journal sh;
    sh.stop_emitted <- true;
    sh.emit (Ev_stopped { shard = sh.idx })
  end

let has_work sh =
  Mutex.lock sh.inbox_mu;
  let n = Queue.length sh.inbox in
  Mutex.unlock sh.inbox_mu;
  n > 0 || (sh.stopping && not sh.stop_emitted)

let set_vote_full sh b = sh.vote_full <- b

let loop sh =
  let rec go () =
    let timeout =
      let cap = 0.25 in
      match Engine.nearest_deadline sh.engine with
      | Some d -> Float.max 0.0 (Float.min cap (d -. Unix.gettimeofday ()))
      | None -> cap
    in
    (match Unix.select [ sh.wake_r ] [] [] timeout with
    | [ _ ], _, _ -> drain_pipe sh.wake_r
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    step sh;
    if not sh.stop_emitted then go ()
  in
  go ()

let create_core ~idx (profile : profile) ~emit =
  let parts =
    Engine_stack.build ~keep:profile.keep ~next_stamp:profile.next_stamp
      profile.stack
  in
  let engine, durable =
    Engine_stack.start ~decisions:profile.decisions
      ?dir:profile.durable_dir parts
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let sh =
    {
      idx;
      profile;
      db = parts.db;
      engine;
      protocol = parts.protocol;
      durable;
      inbox = Queue.create ();
      inbox_mu = Mutex.create ();
      wake_r;
      wake_w;
      emit;
      branches = Hashtbl.create 64;
      pending = Hashtbl.create 64;
      dep_commut = None;
      vote_full = false;
      cert_watermark = 0;
      stopping = false;
      stop_emitted = false;
      domain = None;
    }
  in
  sh

let create ~idx (profile : profile) ~emit =
  let sh = create_core ~idx profile ~emit in
  sh.domain <- Some (Domain.spawn (fun () -> loop sh));
  sh

let send t cmd =
  Mutex.lock t.inbox_mu;
  Queue.push cmd t.inbox;
  Mutex.unlock t.inbox_mu;
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

let join t =
  (match t.domain with Some d -> Domain.join d | None -> ());
  t.domain <- None;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
