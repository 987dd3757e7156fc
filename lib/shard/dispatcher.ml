open Ooser_core
open Ooser_oodb
open Ooser_recovery

type config = {
  shards : int;
  stack : Engine_stack.config;
  durable_dir : string option;
}

(* -- per-transaction state --------------------------------------------------- *)

type phase =
  | Open
  | Committing1 of int  (* the single participating shard *)
  | Preparing of {
      mutable pending : int list;
      mutable edges : (int * int) list;
      mutable tentative : (int * int) list;
      t0 : float;
    }
  | Deciding of { mutable pending : int list; commit : bool; mutable mixed : bool }
  | Finished of (Value.t, string) result

type gtxn = {
  top : int;
  name : string;
  mutable deadline : float option;
  mutable n_calls : int;
  mutable participants : int list;  (* shard indices, reverse first-touch *)
  next_bseq : (int, int) Hashtbl.t;  (* shard -> next branch-local seq *)
  results : (int, (Value.t, string) result) Hashtbl.t;  (* by global seq *)
  mutable phase : phase;
  mutable abort_reason : string option;  (* first branch failure *)
}

type t = {
  config : config;
  router : Router.t;
  shards : Shard.t array;
  in_process : bool;
      (* shards are cores on this thread (no domains): [await] steps
         them instead of sleeping on the wake pipe *)
  txns : (int, gtxn) Hashtbl.t;
  seqmap : (int * int * int, int) Hashtbl.t;
      (* (top, shard, branch seq) -> global seq; retained past retire so
         the merged history can renumber committed trees *)
  coord : Coordinator.t;
  events : Shard.event Queue.t;
  ev_mu : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  counters : Ooser_sim.Stats.Counter.t;
  next_top_floor : int;
  mutable token : int;  (* the current gather round *)
  mutable replies : Shard.event list;  (* its replies, newest first *)
}

let router t = t.router
let shards t = Array.length t.shards
let next_top_floor t = t.next_top_floor
let wake_fd t = t.wake_r
let counters t =
  Ooser_sim.Stats.Counter.to_list t.counters @ Coordinator.counters t.coord

let create ?(in_process = false) (config : config) =
  let router = Router.create ~shards:config.shards in
  let stamp = Atomic.make 0 in
  let next_stamp () = Atomic.fetch_and_add stamp 1 in
  let ev_mu = Mutex.create () in
  let events = Queue.create () in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let emit ev =
    Mutex.lock ev_mu;
    Queue.push ev events;
    Mutex.unlock ev_mu;
    try ignore (Unix.write wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let decisions =
    match config.durable_dir with
    | Some dir -> Decision_log.load ~dir
    | None -> []
  in
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755)
    config.durable_dir;
  let shards =
    Array.init config.shards (fun i ->
        (if in_process then Shard.create_core else Shard.create)
          ~idx:i
          {
            Shard.stack = config.stack;
            keep = Engine_stack.shard_keep router i;
            next_stamp;
            durable_dir =
              Option.map (fun dir -> Engine_stack.shard_dir dir i)
                config.durable_dir;
            decisions;
          }
          ~emit)
  in
  (* each shard's boot snapshot covers every top its log or an earlier
     checkpoint holds *)
  let next_top_floor =
    Array.fold_left (fun acc sh -> max acc (Shard.next_top_floor sh)) 1 shards
  in
  (* the recovered stamp counter must stay above every replayed stamp;
     recovery replays reassign stamps via next_stamp already, so the
     atomic is naturally past them *)
  {
    config;
    router;
    shards;
    in_process;
    txns = Hashtbl.create 256;
    seqmap = Hashtbl.create 1024;
    coord = Coordinator.create ?log_dir:config.durable_dir ();
    events;
    ev_mu;
    wake_r;
    wake_w;
    counters = Ooser_sim.Stats.Counter.create ();
    next_top_floor;
    token = 0;
    replies = [];
  }

(* -- the engine-like API ----------------------------------------------------- *)

let begin_txn t ~top ~name ~deadline =
  Hashtbl.replace t.txns top
    {
      top;
      name;
      deadline;
      n_calls = 0;
      participants = [];
      next_bseq = Hashtbl.create 4;
      results = Hashtbl.create 8;
      phase = Open;
      abort_reason = None;
    };
  Ooser_sim.Stats.Counter.incr t.counters "txns"

let call t ~top ~obj ~meth ~args =
  match Hashtbl.find_opt t.txns top with
  | None -> ()
  | Some g ->
      let s = Router.shard_of_call t.router ~obj ~args in
      if not (List.mem s g.participants) then begin
        g.participants <- s :: g.participants;
        Shard.send t.shards.(s)
          (Shard.Open_branch { top; name = g.name; deadline = g.deadline })
      end;
      let bseq =
        match Hashtbl.find_opt g.next_bseq s with Some n -> n | None -> 0
      in
      Hashtbl.replace g.next_bseq s (bseq + 1);
      Hashtbl.replace t.seqmap (top, s, bseq) g.n_calls;
      g.n_calls <- g.n_calls + 1;
      Ooser_sim.Stats.Counter.incr t.counters "calls-routed";
      Shard.send t.shards.(s) (Shard.Branch_call { top; seq = bseq; obj; meth; args })

(* the committed value mirrors the engine's body semantics: the last
   successful call's value, unit when there was none *)
let commit_value g =
  let v = ref Value.unit in
  for i = 0 to g.n_calls - 1 do
    match Hashtbl.find_opt g.results i with
    | Some (Ok x) -> v := x
    | Some (Error _) | None -> ()
  done;
  !v

let send_decide t g ~commit ~reason =
  List.iter
    (fun s -> Shard.send t.shards.(s) (Shard.Decide { top = g.top; commit; reason }))
    g.participants

let commit t ~top =
  match Hashtbl.find_opt t.txns top with
  | None -> ()
  | Some g -> (
      match (g.phase, g.participants) with
      | Open, [] ->
          (* a transaction that called nothing commits right here *)
          g.phase <- Finished (Ok Value.unit);
          Ooser_sim.Stats.Counter.incr t.counters "zero-call-commits"
      | Open, [ s ] ->
          g.phase <- Committing1 s;
          Shard.send t.shards.(s) (Shard.Branch_commit { top })
      | Open, ps ->
          g.phase <-
            Preparing
              {
                pending = ps;
                edges = [];
                tentative = [];
                t0 = Unix.gettimeofday ();
              };
          List.iter
            (fun s -> Shard.send t.shards.(s) (Shard.Prepare { top }))
            ps
      | _ -> ())

let abort t ~top ~reason =
  match Hashtbl.find_opt t.txns top with
  | None -> ()
  | Some g -> (
      match g.phase with
      | Finished _ | Deciding _ -> ()
      | Open | Committing1 _ | Preparing _ ->
          Coordinator.bury t.coord ~top;
          if g.participants = [] then g.phase <- Finished (Error reason)
          else begin
            g.phase <-
              Deciding { pending = g.participants; commit = false; mixed = false };
            g.abort_reason <- Some reason;
            send_decide t g ~commit:false ~reason
          end)

let set_deadline t ~top deadline =
  match Hashtbl.find_opt t.txns top with
  | None -> ()
  | Some g ->
      g.deadline <- deadline;
      List.iter
        (fun s -> Shard.send t.shards.(s) (Shard.Set_deadline { top; deadline }))
        g.participants

let txn_state t top =
  match Hashtbl.find_opt t.txns top with
  | None -> `Unknown
  | Some g -> (
      match g.phase with
      | Finished (Ok v) -> `Committed v
      | Finished (Error r) -> `Aborted r
      | _ -> `Running)

let result t ~top ~seq =
  match Hashtbl.find_opt t.txns top with
  | None -> None
  | Some g -> Hashtbl.find_opt g.results seq

let retire t ~top = Hashtbl.remove t.txns top

(* -- 2PC state machine ------------------------------------------------------- *)

let decide_abort t g ~reason =
  Coordinator.bury t.coord ~top:g.top;
  Coordinator.decide t.coord ~top:g.top ~participants:g.participants
    ~commit:false;
  g.abort_reason <- Some reason;
  g.phase <- Deciding { pending = g.participants; commit = false; mixed = false };
  send_decide t g ~commit:false ~reason

let all_votes_in t g pending edges tentative t0 =
  if pending = [] then begin
    match Coordinator.certify t.coord ~top:g.top ~edges ~tentative with
    | `Ok ->
        Coordinator.observe_roundtrip t.coord (Unix.gettimeofday () -. t0);
        Coordinator.decide t.coord ~top:g.top ~participants:g.participants
          ~commit:true;
        g.phase <-
          Deciding { pending = g.participants; commit = true; mixed = false };
        send_decide t g ~commit:true ~reason:""
    | `Abort reason ->
        Coordinator.observe_roundtrip t.coord (Unix.gettimeofday () -. t0);
        decide_abort t g ~reason
  end

let finish_deciding t g ~pending ~commit ~mixed =
  if pending = [] then begin
    (if commit then
       if mixed then begin
         Ooser_sim.Stats.Counter.incr t.counters "mixed-outcomes";
         g.phase <-
           Finished
             (Error
                (Option.value g.abort_reason
                   ~default:"cross-shard commit failed at a participant"))
       end
       else g.phase <- Finished (Ok (commit_value g))
     else
       g.phase <-
         Finished (Error (Option.value g.abort_reason ~default:"aborted")));
    match g.phase with
    | Finished (Ok _) ->
        Ooser_sim.Stats.Counter.incr t.counters "commits";
        Ooser_sim.Stats.Counter.incr t.counters "cross-shard-commits"
    | _ -> Ooser_sim.Stats.Counter.incr t.counters "aborts"
  end

let handle_event t (ev : Shard.event) =
  match ev with
  | Shard.Ev_result { shard; top; seq; r } -> (
      match Hashtbl.find_opt t.txns top with
      | None -> ()
      | Some g -> (
          match Hashtbl.find_opt t.seqmap (top, shard, seq) with
          | Some gseq -> Hashtbl.replace g.results gseq r
          | None -> ()))
  | Shard.Ev_vote { shard; top; edges; tentative; reason } -> (
      match Hashtbl.find_opt t.txns top with
      | None ->
          (* the transaction is gone (retired after a decision), but the
             stable edges are facts the vote windows count on recording *)
          Coordinator.absorb t.coord ~edges:(Option.value edges ~default:[])
      | Some g -> (
          match g.phase with
          | Preparing p -> (
              match edges with
              | Some es ->
                  p.edges <- es @ p.edges;
                  p.tentative <- tentative @ p.tentative;
                  p.pending <- List.filter (fun s -> s <> shard) p.pending;
                  all_votes_in t g p.pending p.edges p.tentative p.t0
              | None ->
                  decide_abort t g
                    ~reason:
                      (if reason = "" then "2PC participant voted no"
                       else reason))
          | _ ->
              Coordinator.absorb t.coord
                ~edges:(Option.value edges ~default:[])))
  | Shard.Ev_decided { shard; top; outcome } -> (
      match Hashtbl.find_opt t.txns top with
      | None -> ()
      | Some g -> (
          match g.phase with
          | Finished _ -> ()
          | Committing1 s when s = shard ->
              (match outcome with
              | Ok v ->
                  g.phase <- Finished (Ok v);
                  Ooser_sim.Stats.Counter.incr t.counters "commits";
                  Ooser_sim.Stats.Counter.incr t.counters "single-shard-commits"
              | Error r ->
                  g.phase <- Finished (Error r);
                  Ooser_sim.Stats.Counter.incr t.counters "aborts";
                  (* edges incident to the aborted transaction reported
                     by neighbours' prepares must go: its actions leave
                     the history *)
                  Coordinator.bury t.coord ~top)
          | Committing1 _ -> ()
          | Open | Preparing _ -> (
              (* a branch died on its own (deadline, hard failure, vote
                 race): the whole transaction aborts *)
              match outcome with
              | Error r ->
                  if g.abort_reason = None then g.abort_reason <- Some r;
                  let others =
                    List.filter (fun s -> s <> shard) g.participants
                  in
                  Coordinator.bury t.coord ~top;
                  if others = [] then begin
                    g.phase <- Finished (Error r);
                    Ooser_sim.Stats.Counter.incr t.counters "aborts"
                  end
                  else begin
                    g.phase <-
                      Deciding { pending = others; commit = false; mixed = false };
                    List.iter
                      (fun s ->
                        Shard.send t.shards.(s)
                          (Shard.Decide { top; commit = false; reason = r }))
                      others
                  end
              | Ok _ -> () (* cannot happen before a decision *))
          | Deciding d ->
              d.pending <- List.filter (fun s -> s <> shard) d.pending;
              (match (outcome, d.commit) with
              | Error r, true ->
                  d.mixed <- true;
                  if g.abort_reason = None then g.abort_reason <- Some r
              | _ -> ());
              finish_deciding t g ~pending:d.pending ~commit:d.commit
                ~mixed:d.mixed))
  | Shard.Ev_wound { shard = _; top } -> (
      Ooser_sim.Stats.Counter.incr t.counters "wound-escalations";
      match Hashtbl.find_opt t.txns top with
      | None -> ()
      | Some g -> (
          match g.phase with
          | Preparing _ ->
              decide_abort t g ~reason:"wounded during 2PC prepare"
          | _ -> () (* decision made or not yet preparing: let it ride *)))
  | ( Shard.Ev_stats { token; _ }
    | Shard.Ev_snapshot { token; _ }
    | Shard.Ev_checkpointed { token; _ } ) as ev ->
      (* a reply to an earlier, timed-out round is dropped *)
      if token = t.token then t.replies <- ev :: t.replies
  | Shard.Ev_stopped _ as ev -> t.replies <- ev :: t.replies

let poll t =
  Shard.drain_pipe t.wake_r;
  let evs = ref [] in
  Mutex.lock t.ev_mu;
  while not (Queue.is_empty t.events) do
    evs := Queue.pop t.events :: !evs
  done;
  Mutex.unlock t.ev_mu;
  List.iter (handle_event t) (List.rev !evs)

(* -- in-process driving (model checking) -------------------------------------- *)

let step_shard t i = Shard.step t.shards.(i)
let shard_has_work t i = Shard.has_work t.shards.(i)
let set_vote_full t b = Array.iter (fun sh -> Shard.set_vote_full sh b) t.shards

let pending_events t =
  Mutex.lock t.ev_mu;
  let l = List.of_seq (Queue.to_seq t.events) in
  Mutex.unlock t.ev_mu;
  l

(* Deliver exactly the [n]-th queued event, leaving the rest queued in
   order: the model checker's per-event delivery choice, which subsumes
   every vote-arrival permutation. *)
let deliver t n =
  Shard.drain_pipe t.wake_r;
  Mutex.lock t.ev_mu;
  let l = List.of_seq (Queue.to_seq t.events) in
  Queue.clear t.events;
  List.iteri (fun i e -> if i <> n then Queue.push e t.events) l;
  Mutex.unlock t.ev_mu;
  match List.nth_opt l n with
  | Some e ->
      handle_event t e;
      true
  | None -> false

let check_deadlines t =
  let now = Unix.gettimeofday () in
  Hashtbl.iter
    (fun _ g ->
      match (g.phase, g.deadline) with
      | Open, Some d when now > d && g.participants = [] ->
          g.phase <- Finished (Error "deadline exceeded");
          Ooser_sim.Stats.Counter.incr t.counters "aborts"
      | Preparing _, Some d when now > d ->
          (* prepared branches are pinned — their shards will not abort
             them, so the coordinator enforces the deadline *)
          decide_abort t g ~reason:"deadline exceeded"
      | _ -> ())
    t.txns

let nearest_deadline t =
  Hashtbl.fold
    (fun _ g acc ->
      match (g.phase, g.deadline) with
      | (Open | Committing1 _ | Preparing _ | Deciding _), Some d ->
          Some (match acc with Some a -> Float.min a d | None -> d)
      | _ -> acc)
    t.txns None

(* -- synchronous collectors -------------------------------------------------- *)

let await t ~timeout ~done_ =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if t.in_process then Array.iter Shard.step t.shards;
    poll t;
    if done_ () then true
    else begin
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then false
      else begin
        (if not t.in_process then
           match Unix.select [ t.wake_r ] [] [] (Float.min left 0.05) with
           | _ -> ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
      end
    end
  in
  go ()

(* One synchronous round: send every shard the request built from a
   fresh token, then wait up to [timeout] for one reply per shard; a
   shard that misses the deadline is simply absent from the result. *)
let gather t ~timeout req =
  t.token <- t.token + 1;
  t.replies <- [];
  let token = t.token in
  Array.iter (fun sh -> Shard.send sh (req token)) t.shards;
  ignore
    (await t ~timeout ~done_:(fun () ->
         List.length t.replies >= Array.length t.shards));
  t.replies

type shard_stats = {
  shard : int;
  engine : (string * int) list;
  lock : (string * int) list;
  cert_depth : int;
}

let stats t ?(timeout = 5.0) () =
  gather t ~timeout (fun token -> Shard.Stats_req { token })
  |> List.filter_map (function
       | Shard.Ev_stats { shard; engine; lock; cert_depth; _ } ->
           Some { shard; engine; lock; cert_depth }
       | _ -> None)
  |> List.sort (fun a b -> Int.compare a.shard b.shard)

let snapshots t ~timeout =
  gather t ~timeout (fun token -> Shard.Snapshot_req { token })
  |> List.filter_map (function
       | Shard.Ev_snapshot { shard; serializable; trees; order; specs; _ } ->
           Some (shard, serializable, trees, order, specs)
       | _ -> None)

let certified t ?(timeout = 60.0) () =
  let snaps = snapshots t ~timeout in
  List.length snaps = Array.length t.shards
  && List.for_all (fun (_, serializable, _, _, _) -> serializable) snaps
  && Coordinator.clean t.coord

(* -- the merged global history ----------------------------------------------- *)

(* Objects are renamed with a per-shard prefix: the shards' databases
   allocate page/node names independently, so shard 0's "Page3" and
   shard 1's "Page3" are different physical objects that must not alias
   in the merged history.  The system object (Def. 4) is shared — its
   spec is all-commute everywhere. *)
let shard_obj_name i name = Printf.sprintf "s%d:%s" i name

let sys_name = Obj_id.name Call_tree.Build.default_sys

(* Inverse of [shard_obj_name] over the shards that exist. *)
let shard_obj ~shards n =
  match String.index_opt n ':' with
  | Some j when j > 0 && n.[0] = 's' -> (
      match int_of_string_opt (String.sub n 1 (j - 1)) with
      | Some i when i >= 0 && i < shards ->
          Some (i, Obj_id.v (String.sub n (j + 1) (String.length n - j - 1)))
      | _ -> None)
  | _ -> None

(* Built from the specs the shards put in their snapshots, never from
   their databases, which their domains keep mutating. *)
let merged_registry snaps =
  let specs = Obj_id.Tbl.create 256 in
  List.iter
    (fun (shard, _, _, _, shard_specs) ->
      List.iter
        (fun (o, spec) ->
          Obj_id.Tbl.replace specs
            (Obj_id.v (shard_obj_name shard (Obj_id.name o)))
            spec)
        shard_specs)
    snaps;
  Ooser_core.Commutativity.registry
    ~known:(fun o -> Obj_id.name o = sys_name || Obj_id.Tbl.mem specs o)
    (fun o ->
      if Obj_id.name o = sys_name then Ooser_core.Commutativity.all_commute
      else
        Option.value (Obj_id.Tbl.find_opt specs o)
          ~default:Ooser_core.Commutativity.all_conflict)

let shard_spec t ~shard o =
  if not t.in_process then
    invalid_arg "Dispatcher.shard_spec: shards run in their own domains";
  Shard.spec t.shards.(shard) o

(* Rewrite one shard's branch subtree of transaction [top]: rename its
   objects with the shard prefix and renumber the branch-local child
   position (the head of every action path) to the 1-based global call
   order, preserving virtual ranks. *)
let rewrite_subtree t ~shard ~top (sub : Call_tree.t) =
  let renumber id =
    (* committed call trees never contain virtual duplicates — those
       only appear in Def. 5 extensions computed from a history *)
    match Ids.Action_id.path id with
    | [] -> id
    | j :: rest -> (
        match Hashtbl.find_opt t.seqmap (top, shard, j - 1) with
        | Some gseq -> Ids.Action_id.v ~top ~path:((gseq + 1) :: rest)
        | None -> id)
  in
  let rec go (node : Call_tree.t) =
    let act = node.Call_tree.act in
    let obj = Action.obj act in
    let obj' =
      let renamed = Obj_id.v (shard_obj_name shard (Obj_id.name obj)) in
      if Obj_id.is_virtual obj then
        Obj_id.virtualize renamed ~rank:(Obj_id.rank obj)
      else renamed
    in
    let act' =
      Action.v ~id:(renumber (Action.id act)) ~obj:obj' ~meth:(Action.meth act)
        ~args:(Action.args act) ?pin:(Action.pin act)
        ~process:(Action.process act) ()
    in
    Call_tree.v ~prec:(Call_tree.prec node) act' (List.map go node.Call_tree.children)
  in
  go sub

let merged_history t ?(timeout = 60.0) () =
  let snaps = snapshots t ~timeout in
  (* group per-shard branch trees by top *)
  let by_top : (int, (int * Call_tree.t) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun (shard, _, trees, _, _) ->
      List.iter
        (fun (top, tree) ->
          let l =
            match Hashtbl.find_opt by_top top with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace by_top top l;
                l
          in
          l := (shard, tree) :: !l)
        trees)
    snaps;
  let tops = ref [] in
  let leaf_roots = ref Ids.Action_id.Set.empty in
  Hashtbl.iter
    (fun top branches ->
      let branches = !branches in
      (* global children across all branches, renumbered *)
      let children =
        List.concat_map
          (fun (shard, tree) ->
            List.map
              (fun sub -> rewrite_subtree t ~shard ~top sub)
              (Call_tree.children tree))
          branches
      in
      let children =
        List.sort
          (fun a b ->
            Ids.Action_id.compare
              (Action.id (Call_tree.act a))
              (Action.id (Call_tree.act b)))
          children
      in
      let name =
        match branches with
        | (_, tree) :: _ -> Action.meth (Call_tree.act tree)
        | [] -> "txn"
      in
      let root_act =
        Action.v
          ~id:(Ids.Action_id.root top)
          ~obj:Call_tree.Build.default_sys ~meth:name
          ~process:(Ids.Process_id.main top)
          ()
      in
      if children = [] then
        (* every branch was an empty leaf: the merged root is a leaf and
           keeps exactly one order entry *)
        leaf_roots := Ids.Action_id.Set.add (Ids.Action_id.root top) !leaf_roots;
      tops := Call_tree.seq root_act children :: !tops)
    by_top;
  let tops =
    List.sort
      (fun a b ->
        Int.compare
          (Ids.Action_id.top (Action.id (Call_tree.act a)))
          (Ids.Action_id.top (Action.id (Call_tree.act b))))
      !tops
  in
  (* interleave the stamped per-shard orders into the one global
     execution order, renumbering ids the same way; root-leaf entries of
     branches whose merged transaction gained children elsewhere are
     dropped (their root is no longer a leaf), and kept exactly once
     otherwise *)
  let entries =
    List.concat_map
      (fun (shard, _, _, order, _) ->
        List.map (fun (id, stamp) -> (shard, id, stamp)) order)
      snaps
    |> List.sort (fun (_, _, a) (_, _, b) -> Int.compare a b)
  in
  let seen_leaf = Hashtbl.create 16 in
  let order =
    List.filter_map
      (fun (shard, id, _) ->
        let top = Ids.Action_id.top id in
        match Ids.Action_id.path id with
        | [] ->
            if
              Ids.Action_id.Set.mem (Ids.Action_id.root top) !leaf_roots
              && not (Hashtbl.mem seen_leaf top)
            then begin
              Hashtbl.replace seen_leaf top ();
              Some (Ids.Action_id.root top)
            end
            else None
        | j :: rest -> (
            match Hashtbl.find_opt t.seqmap (top, shard, j - 1) with
            | Some gseq -> Some (Ids.Action_id.v ~top ~path:((gseq + 1) :: rest))
            | None -> None))
      entries
  in
  History.v ~tops ~order ~commut:(merged_registry snaps)

(* -- shutdown ----------------------------------------------------------------- *)

let shutdown t =
  if t.config.durable_dir <> None then
    ignore (gather t ~timeout:30.0 (fun token -> Shard.Checkpoint_req { token }));
  ignore (gather t ~timeout:30.0 (fun _ -> Shard.Stop));
  Array.iter Shard.join t.shards;
  Coordinator.close t.coord;
  (match t.config.durable_dir with
  | Some dir -> Decision_log.reset ~dir
  | None -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
