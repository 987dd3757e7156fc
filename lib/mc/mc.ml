(* The model checker proper: runners that drive the real engine (or the
   in-process sharded dispatcher) as a pure function of an
   {!Explore.chooser}'s answers, the invariant oracles evaluated at
   every terminal state, the footprint-based independence relation that
   feeds sleep-set DPOR, and the per-scenario exploration driver with
   its vote-window audit and witness minimisation. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Oplog = Ooser_recovery.Oplog
module Crash = Ooser_recovery.Crash
module Shard = Ooser_shard.Shard
module Dispatcher = Ooser_shard.Dispatcher
module Engine_stack = Ooser_shard.Engine_stack
module Counter = Ooser_sim.Stats.Counter
module Json = Ooser_sim.Json

let ( let* ) = Option.bind

(* -- small helpers ------------------------------------------------------------ *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let find_index p l =
  let rec go i = function
    | [] -> None
    | x :: tl -> if p x then Some i else go (i + 1) tl
  in
  go 0 l

(* One backend instantiation: the fresh database, its protocol, and how
   to read the certifiable committed history back out.  Lock scenarios
   certify the engine's execution order; occ scenarios certify the
   store's restamped multiversion order — the engine's raw interleaving
   can place a snapshot read after a concurrent commit it did not
   observe, which is not a violation under snapshot semantics. *)
type inst = {
  i_db : Database.t;
  i_protocol : Protocol.t;
  i_history : Engine.t -> History.t;
  i_certify : bool;
}

let fresh_inst (sc : Scenario.t) () =
  match sc.mode with
  | Scenario.Single { setup; protocol; _ } ->
      let db = setup () in
      {
        i_db = db;
        i_protocol = Engine_stack.protocol protocol db;
        i_history = Engine.final_history;
        i_certify = protocol = `Certify;
      }
  | Scenario.Occ { setup } ->
      let db, store = setup () in
      {
        i_db = db;
        i_protocol = Ooser_occ.Store.protocol store;
        i_history = (fun _ -> Ooser_occ.Store.history store);
        i_certify = false;
      }
  | Scenario.Sharded _ -> invalid_arg "fresh_inst: sharded scenario"

let body_of_calls calls ctx =
  Value.list
    (List.map
       (fun (c : Scenario.call) ->
         Runtime.call ctx (Obj_id.v c.Scenario.c_obj) c.c_meth c.c_args)
       calls)

(* -- independence ------------------------------------------------------------- *)

(* Transaction-pair independence from the declared footprints: two
   transactions are independent when every cross pair of their calls
   either touches disjoint objects (Def. 9's base-set argument) or
   commutes in both orders under a STABLE registered spec.  Unstable
   specs read object state, so a commute answer at probe time proves
   nothing about other states — conservatively dependent.  This makes
   [indep] step-uniform (every step of one transaction commutes with
   every step of the other), which is what sleep-set propagation
   needs.  Sharded scenarios get the always-dependent relation: their
   choices also cover message delivery, which the footprints do not
   describe. *)
let independence (sc : Scenario.t) =
  match sc.mode with
  | Scenario.Sharded _ -> fun _ _ -> false
  | Scenario.Single _ | Scenario.Occ _ ->
      let db = (fresh_inst sc ()).i_db in
      let action top (c : Scenario.call) =
        Action.v
          ~id:(Ids.Action_id.v ~top ~path:[ 1 ])
          ~obj:(Obj_id.v c.c_obj) ~meth:c.c_meth ~args:c.c_args
          ~process:(Ids.Process_id.main top) ()
      in
      let calls_indep (c1 : Scenario.call) (c2 : Scenario.call) =
        if c1.c_obj <> c2.c_obj then true
        else
          match Database.spec db (Obj_id.v c1.c_obj) with
          | None -> false
          | Some spec ->
              Commutativity.stable spec
              &&
              let a1 = action 1 c1 and a2 = action 2 c2 in
              Commutativity.test spec a1 a2 && Commutativity.test spec a2 a1
      in
      let n = List.length sc.txns in
      let footprint i = (List.nth sc.txns (i - 1)).Scenario.calls in
      let matrix = Array.make_matrix (n + 1) (n + 1) false in
      for i = 1 to n do
        for j = 1 to n do
          matrix.(i).(j) <-
            i <> j
            && List.for_all
                 (fun c1 ->
                   List.for_all (fun c2 -> calls_indep c1 c2) (footprint j))
                 (footprint i)
        done
      done;
      fun a b ->
        match (a, b) with
        | Explore.C_txn i, Explore.C_txn j
          when i >= 1 && i <= n && j >= 1 && j <= n ->
            matrix.(i).(j)
        | _ -> false

(* -- the single-engine runner ------------------------------------------------- *)

(* Serial-state oracle support: the probe fingerprint each serial order
   of a committed set produces, memoised per scenario exploration (the
   same permutation is asked about by many terminal states). *)
type serial_memo = (int list, string) Hashtbl.t

let probe_top = 1_000

let fingerprint_of_state eng probes =
  let got = ref None in
  Engine.submit eng ~top:probe_top ~name:"mc-probe" (fun ctx ->
      let v = body_of_calls probes ctx in
      got := Some v;
      v);
  ignore (Engine.pump eng);
  match Engine.txn_state eng probe_top with
  | `Committed v -> Value.to_string v
  | _ -> (
      (* a blocked probe means the lock table was not quiescent — the
         quiescence oracle reports that separately *)
      match !got with Some v -> "partial:" ^ Value.to_string v | None -> "stuck")

let serial_fingerprint (sc : Scenario.t) ~fresh memo perm =
  match Hashtbl.find_opt memo perm with
  | Some fp -> fp
  | None ->
      let inst = fresh () in
      let protocol = inst.i_protocol in
      let config =
        { (Engine.default_config protocol) with max_restarts = 0 }
      in
      let eng = Engine.create ~config inst.i_db ~protocol in
      let fp =
        try
          List.iter
            (fun top ->
              let t = List.nth sc.txns (top - 1) in
              Engine.submit eng ~top ~name:t.t_name
                (body_of_calls t.Scenario.calls);
              ignore (Engine.pump eng);
              match Engine.txn_state eng top with
              | `Committed _ -> ()
              | _ -> raise Exit)
            perm;
          fingerprint_of_state eng sc.probes
        with Exit -> "serial-abort"
      in
      Hashtbl.add memo perm fp;
      fp

let matches_some_serial_order sc ~fresh memo ~committed fp =
  List.exists
    (fun perm -> serial_fingerprint sc ~fresh memo perm = fp)
    (permutations committed)

(* The controlled pick function: forced units (mid-body continuations,
   child starts, compensation steps) are auto-advanced — preferring the
   focused transaction — so a choice point opens exactly at invocation
   boundaries, where the set of candidate transactions is offered to
   the chooser.  [live] turns the hook off for the probe phase. *)
let make_pick (chooser : Explore.chooser) ~live =
  let focus = ref (-1) in
  fun (labels : Engine.unit_label list) ->
    if not !live then -1
    else
      let forced (l : Engine.unit_label) =
        (not l.u_boundary) || (l.u_task >= 0 && l.u_obj = "")
      in
      match
        find_index (fun l -> l.Engine.u_top = !focus && forced l) labels
      with
      | Some i -> i
      | None -> (
          match find_index forced labels with
          | Some i ->
              focus := (List.nth labels i).u_top;
              i
          | None -> (
              let tops =
                List.sort_uniq compare
                  (List.map (fun (l : Engine.unit_label) -> l.u_top) labels)
              in
              let pick_top t =
                focus := t;
                match
                  find_index (fun (l : Engine.unit_label) -> l.u_top = t) labels
                with
                | Some i -> i
                | None -> -1
              in
              match tops with
              | [] -> -1
              | [ t ] ->
                  chooser.Explore.advance (Explore.C_txn t);
                  pick_top t
              | ts -> (
                  match
                    chooser.Explore.choose
                      (List.map (fun t -> Explore.C_txn t) ts)
                  with
                  | Explore.C_txn t -> pick_top t
                  | _ -> -1)))

(* One complete single-engine execution under [chooser]; returns the
   verdict fingerprint and the invariant violations at its terminal
   state. *)
let run_single (sc : Scenario.t) ~fresh ~crash memo chooser =
  let crash_plan =
    match crash with
    | [] -> None
    | plans -> (
        let cands =
          List.mapi (fun i _ -> Explore.C_crash i) (() :: List.map ignore plans)
        in
        match chooser.Explore.choose cands with
        | Explore.C_crash 0 -> None
        | Explore.C_crash i -> List.nth_opt plans (i - 1)
        | _ -> None)
  in
  let inst = fresh () in
  let protocol = inst.i_protocol in
  let live = ref true in
  let config =
    {
      (Engine.default_config protocol) with
      strategy = Engine.Controlled (make_pick chooser ~live);
      max_restarts = 2;
      certify = inst.i_certify;
    }
  in
  let eng = Engine.create ~config inst.i_db ~protocol in
  let journal =
    match crash with
    | [] -> None
    | _ ->
        let j = Oplog.create () in
        Engine.set_journal eng (Some j);
        (match crash_plan with
        | Some (site, after) -> Oplog.set_injector j (Some (Crash.arm site ~after))
        | None -> ());
        Some j
  in
  List.iteri
    (fun i (t : Scenario.txn) ->
      Engine.submit eng ~top:(i + 1) ~name:t.t_name (body_of_calls t.calls))
    sc.txns;
  match Engine.pump eng with
  | exception Crash.Crashed _ ->
      (* the armed oplog site fired mid-run: recover from the forced
         prefix on a pristine database and re-check everything there *)
      live := false;
      let stable = Oplog.crash (Option.get journal) in
      let inst2 = fresh () in
      let protocol2 = inst2.i_protocol in
      let eng2, report =
        Engine_stack.recover
          { db = inst2.i_db; protocol = protocol2;
            engine_config = Engine.default_config protocol2 }
          (Oplog.stable stable)
      in
      let violations = ref [] in
      let check name ok = if not ok then violations := name :: !violations in
      check "recovery: replayed call failed" (report.replay_failures = 0);
      check "recovery: recovered history fails certification"
        report.recertified;
      check "recovery: lock table not quiescent" (Protocol.quiescent protocol2);
      let winners = List.map fst report.rec_winners in
      let fp = fingerprint_of_state eng2 sc.probes in
      check "recovery: state matches no serial order of the winners"
        (matches_some_serial_order sc ~fresh memo ~committed:winners fp);
      let verdict =
        Printf.sprintf "crash winners=[%s] fp=%s"
          (String.concat "," (List.map string_of_int winners))
          fp
      in
      (verdict, List.rev !violations)
  | _steps ->
      live := false;
      let tops = Scenario.tops sc in
      let violations = ref [] in
      let check name ok = if not ok then violations := name :: !violations in
      let committed =
        List.filter
          (fun top ->
            match Engine.txn_state eng top with `Committed _ -> true | _ -> false)
          tops
      in
      let undecided =
        List.filter
          (fun top ->
            match Engine.txn_state eng top with
            | `Running | `Unknown -> true
            | _ -> false)
          tops
      in
      check "terminal: some transaction never decided" (undecided = []);
      check "terminal: a blocked request was grantable (lost wake-up)"
        (Counter.get (Engine.counters eng) "lost-wakeups" = 0);
      check "terminal: lock table not quiescent" (Protocol.quiescent protocol);
      let verdict_h = Serializability.check (inst.i_history eng) in
      check "history: final history fails Serializability.check"
        verdict_h.Serializability.oo_serializable;
      let fp = fingerprint_of_state eng sc.probes in
      check "state: matches no serial order of the committed set"
        (undecided <> []
        || matches_some_serial_order sc ~fresh memo ~committed fp);
      let verdict =
        Printf.sprintf "committed=[%s] fp=%s"
          (String.concat "," (List.map string_of_int committed))
          fp
      in
      (verdict, List.rev !violations)

(* -- the sharded runner ------------------------------------------------------- *)

(* Scheduling model: shard event loops are deterministic given their
   command stream, so every shard with queued work is stepped to
   quiescence between choices (a "settled" system), and the remaining
   nondeterminism — which session sends its next command, and in which
   order queued shard events (results, votes, decisions) reach the
   dispatcher — is what the chooser controls.  Per-event delivery
   subsumes every 2PC vote-arrival permutation. *)

let settle_shards d ~shards =
  let moved = ref true in
  let guard = ref 0 in
  while !moved && !guard < 100_000 do
    moved := false;
    incr guard;
    for i = 0 to shards - 1 do
      if Dispatcher.shard_has_work d i then begin
        moved := true;
        Dispatcher.step_shard d i
      end
    done
  done

(* Synchronous helpers for the serial replays and the probe phase,
   where delivery order no longer matters: step everything and drain
   all events until the condition holds. *)
let sync_until d ~shards cond =
  let guard = ref 0 in
  while (not (cond ())) && !guard < 100_000 do
    incr guard;
    settle_shards d ~shards;
    Dispatcher.poll d
  done;
  cond ()

type sharded_outcome = {
  sh_committed : int list;
  sh_fp : string;
  sh_decided : (int * bool) list;  (** (top, committed) in top order *)
  sh_vote_full : int;  (** "vote-full-history" counter across shards *)
}

(* Session command streams: step 0 sends BEGIN together with the first
   call (a begin conflicts with nothing, so splitting it off would only
   square the interleaving count), step [k] for 1 <= k < ncalls sends
   call [k] once call [k-1]'s result is back — the lock-step protocol a
   real client session follows — and step [ncalls] sends COMMIT.
   Scenario transactions must declare at least one call. *)
let steps_of (t : Scenario.txn) = 1 + List.length t.calls

let send_command d (sc : Scenario.t) sent top =
  let t = List.nth sc.txns (top - 1) in
  let k = sent.(top) in
  (if k = 0 then begin
     Dispatcher.begin_txn d ~top ~name:t.t_name ~deadline:None;
     let c = List.hd t.calls in
     Dispatcher.call d ~top ~obj:c.c_obj ~meth:c.c_meth ~args:c.c_args
   end
   else if k < List.length t.calls then begin
     let c = List.nth t.calls k in
     Dispatcher.call d ~top ~obj:c.c_obj ~meth:c.c_meth ~args:c.c_args
   end
   else Dispatcher.commit d ~top);
  sent.(top) <- k + 1

let session_enabled d (sc : Scenario.t) sent top =
  let t = List.nth sc.txns (top - 1) in
  let k = sent.(top) in
  if k = 0 then true
  else if k >= steps_of t then false
  else Dispatcher.result d ~top ~seq:(k - 1) <> None

let probe_sharded d ~shards (sc : Scenario.t) =
  let n = List.length sc.probes in
  Dispatcher.begin_txn d ~top:probe_top ~name:"mc-probe" ~deadline:None;
  List.iter
    (fun (c : Scenario.call) ->
      Dispatcher.call d ~top:probe_top ~obj:c.c_obj ~meth:c.c_meth
        ~args:c.c_args)
    sc.probes;
  let all_results () =
    List.for_all
      (fun seq -> Dispatcher.result d ~top:probe_top ~seq <> None)
      (List.init n Fun.id)
  in
  if not (sync_until d ~shards all_results) then "probe-stuck"
  else begin
    let vs =
      List.map
        (fun seq ->
          match Dispatcher.result d ~top:probe_top ~seq with
          | Some (Ok v) -> Value.to_string v
          | Some (Error e) -> "err:" ^ e
          | None -> "none")
        (List.init n Fun.id)
    in
    Dispatcher.commit d ~top:probe_top;
    ignore
      (sync_until d ~shards (fun () ->
           match Dispatcher.txn_state d probe_top with
           | `Running | `Unknown -> false
           | _ -> true));
    String.concat ";" vs
  end

let with_dispatcher config f =
  let d = Dispatcher.create ~in_process:true config in
  Fun.protect ~finally:(fun () -> Dispatcher.shutdown d) (fun () -> f d)

let sharded_config ~shards ~db_kind ~protocol =
  {
    Dispatcher.shards;
    stack =
      { Engine_stack.default with db_kind; protocol_kind = protocol; preload = 40 };
    durable_dir = None;
  }

let serial_fingerprint_sharded (sc : Scenario.t) ~shards ~db_kind ~protocol
    memo perm =
  match Hashtbl.find_opt memo perm with
  | Some fp -> fp
  | None ->
      let fp =
        with_dispatcher (sharded_config ~shards ~db_kind ~protocol) (fun d ->
            try
              List.iter
                (fun top ->
                  let t = List.nth sc.txns (top - 1) in
                  let sent = Array.make (probe_top + 1) 0 in
                  let total = steps_of t in
                  while sent.(top) < total do
                    if not (session_enabled d sc sent top) then raise Exit;
                    send_command d sc sent top;
                    ignore
                      (sync_until d ~shards (fun () ->
                           session_enabled d sc sent top
                           || sent.(top) >= total))
                  done;
                  if
                    not
                      (sync_until d ~shards (fun () ->
                           match Dispatcher.txn_state d top with
                           | `Committed _ -> true
                           | _ -> false))
                  then raise Exit)
                perm;
              probe_sharded d ~shards sc
            with Exit -> "serial-abort")
      in
      Hashtbl.add memo perm fp;
      fp

let run_sharded (sc : Scenario.t) ~shards ~db_kind ~protocol ~vote_full memo
    ?(outcome_sink = fun (_ : sharded_outcome) -> ()) chooser =
  with_dispatcher (sharded_config ~shards ~db_kind ~protocol) @@ fun d ->
  if vote_full then Dispatcher.set_vote_full d true;
  let tops = Scenario.tops sc in
  let sent = Array.make (probe_top + 1) 0 in
  let decided_events : (int, bool list) Hashtbl.t = Hashtbl.create 8 in
  let deliver_event pending i =
    (match List.nth_opt pending i with
    | Some (Shard.Ev_decided { top; outcome; _ }) ->
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt decided_events top)
        in
        Hashtbl.replace decided_events top (Result.is_ok outcome :: prev)
    | _ -> ());
    ignore (Dispatcher.deliver d i)
  in
  (* Only vote and wound arrival order feeds coordinator decisions;
     every other event (results, decisions, stats) sends no commands
     back to the shards, so its delivery commutes with everything and
     is performed eagerly in FIFO order — a sound reduction that keeps
     the delivery choice focused on the 2PC race. *)
  let interesting = function
    | Shard.Ev_vote _ | Shard.Ev_wound _ -> true
    | _ -> false
  in
  let rec quiesce guard =
    if guard > 100_000 then failwith "mc: sharded quiesce diverged"
    else begin
      settle_shards d ~shards;
      let pending = Dispatcher.pending_events d in
      match find_index (fun e -> not (interesting e)) pending with
      | Some i ->
          deliver_event pending i;
          quiesce (guard + 1)
      | None -> pending
    end
  in
  let rec drive guard =
    if guard > 100_000 then failwith "mc: sharded drive did not quiesce"
    else begin
      let pending = quiesce 0 in
      let sessions =
        List.filter_map
          (fun top ->
            if session_enabled d sc sent top then Some (Explore.C_txn top)
            else None)
          tops
      in
      let deliveries = List.mapi (fun i _ -> Explore.C_deliver i) pending in
      match sessions @ deliveries with
      | [] -> ()
      | cands ->
          let c =
            match cands with
            | [ c ] ->
                chooser.Explore.advance c;
                c
            | _ -> chooser.Explore.choose cands
          in
          (match c with
          | Explore.C_txn top -> send_command d sc sent top
          | Explore.C_deliver i -> deliver_event pending i
          | Explore.C_crash _ -> ());
          drive (guard + 1)
    end
  in
  drive 0;
  let violations = ref [] in
  let check name ok = if not ok then violations := name :: !violations in
  let state top = Dispatcher.txn_state d top in
  let undecided =
    List.filter
      (fun top -> match state top with `Running | `Unknown -> true | _ -> false)
      tops
  in
  check "terminal: some transaction never decided" (undecided = []);
  check "terminal: some session never drained"
    (List.for_all
       (fun top -> sent.(top) = steps_of (List.nth sc.txns (top - 1)))
       tops);
  (* 2PC atomicity: the per-shard decisions delivered for one
     transaction must agree — a top committed on one participant and
     aborted on another is exactly the violation 2PC exists to rule
     out. *)
  Hashtbl.iter
    (fun top outs ->
      check
        (Printf.sprintf "2pc: mixed per-shard outcomes for txn %d" top)
        (List.for_all Fun.id outs || List.for_all not outs))
    decided_events;
  check "history: a shard or the coordinator decertified"
    (Dispatcher.certified d ());
  let merged = Dispatcher.merged_history d () in
  check "history: merged history malformed" (History.validate merged = Ok ());
  check "history: merged history not oo-serializable"
    (Serializability.oo_serializable merged);
  let committed =
    List.filter
      (fun top -> match state top with `Committed _ -> true | _ -> false)
      tops
  in
  let fp = probe_sharded d ~shards sc in
  check "state: matches no serial order of the committed set"
    (undecided <> []
    || List.exists
         (fun perm ->
           serial_fingerprint_sharded sc ~shards ~db_kind ~protocol memo perm
           = fp)
         (permutations committed));
  let shard_total key =
    List.fold_left
      (fun acc (s : Dispatcher.shard_stats) ->
        acc + Option.value ~default:0 (List.assoc_opt key s.engine))
      0
      (Dispatcher.stats d ())
  in
  check "terminal: a blocked request was grantable (lost wake-up)"
    (shard_total "lost-wakeups" = 0);
  let vote_full_count = shard_total "vote-full-history" in
  let decided =
    List.map
      (fun top ->
        (top, match state top with `Committed _ -> true | _ -> false))
      tops
  in
  outcome_sink
    {
      sh_committed = committed;
      sh_fp = fp;
      sh_decided = decided;
      sh_vote_full = vote_full_count;
    };
  let verdict =
    Printf.sprintf "committed=[%s] fp=%s"
      (String.concat "," (List.map string_of_int committed))
      fp
  in
  (verdict, List.rev !violations)

(* -- scenario drivers --------------------------------------------------------- *)

type runner = Explore.chooser -> string * string list

(* [make_runner] builds the run function once per scenario; the memo
   table for serial fingerprints is shared across every schedule of the
   exploration. *)
let make_runner ?(vote_full = false) ?outcome_sink (sc : Scenario.t) : runner =
  match sc.mode with
  | Scenario.Single { crash; _ } ->
      let memo : serial_memo = Hashtbl.create 16 in
      let fresh = fresh_inst sc in
      fun chooser -> run_single sc ~fresh ~crash memo chooser
  | Scenario.Occ _ ->
      let memo : serial_memo = Hashtbl.create 16 in
      let fresh = fresh_inst sc in
      fun chooser -> run_single sc ~fresh ~crash:[] memo chooser
  | Scenario.Sharded { shards; db_kind; protocol } ->
      let memo : serial_memo = Hashtbl.create 16 in
      fun chooser ->
        run_sharded sc ~shards ~db_kind ~protocol ~vote_full memo
          ?outcome_sink chooser

(* -- vote-window audit -------------------------------------------------------- *)

(* DESIGN §17 claims the per-vote dependency window is equivalent to
   full-history votes: the pending-retirement window under the lock
   protocols, the validation-frontier watermark window under
   [`Certify].  The audit re-runs each explored sharded schedule with
   {!Dispatcher.set_vote_full} and compares the per-transaction
   verdicts; the shards' ["vote-full-history"] counter must stay zero
   during the windowed exploration itself — a fallback vote there would
   mean the window never engaged. *)
type audit = {
  audited : int;
  recorded : int;  (** schedules whose traces were captured *)
  mismatches : int;
  vote_full_votes : int;
      (** full-history votes observed during the WINDOWED exploration —
          nonzero means the window never engaged *)
}

let audit_cap = 64

let audit_sharded (sc : Scenario.t) ~traces ~vote_full_seen =
  match sc.mode with
  | Scenario.Single _ | Scenario.Occ _ -> None
  | Scenario.Sharded { shards; db_kind; protocol } ->
      let memo : serial_memo = Hashtbl.create 16 in
      let mismatches = ref 0 in
      let audited = ref 0 in
      List.iter
        (fun (trace, (decided : (int * bool) list)) ->
          if !audited < audit_cap then begin
            incr audited;
            let full = ref None in
            let sink (o : sharded_outcome) = full := Some o.sh_decided in
            (match
               run_sharded sc ~shards ~db_kind ~protocol ~vote_full:true memo
                 ~outcome_sink:sink
                 (Explore.replay_chooser trace)
             with
            | _ -> ()
            | exception _ -> ());
            match !full with
            | Some decided' when decided' = decided -> ()
            | _ -> incr mismatches
          end)
        traces;
      Some
        {
          audited = !audited;
          recorded = List.length traces;
          mismatches = !mismatches;
          vote_full_votes = vote_full_seen;
        }

(* -- exploration of one scenario ---------------------------------------------- *)

type exploration = {
  stats : Explore.stats;
  verdicts : string list;  (** distinct, sorted *)
  failure : Explore.failure option;
}

let explore_once (sc : Scenario.t) ~dpor ~seed ~max_schedules
    ~(record : (Explore.choice list * (int * bool) list) list ref option)
    ~vote_full_seen =
  let verdicts = Hashtbl.create 16 in
  let last_outcome = ref [] in
  let sink (o : sharded_outcome) =
    last_outcome := o.sh_decided;
    match vote_full_seen with
    | Some r -> r := max !r o.sh_vote_full
    | None -> ()
  in
  let runner = make_runner ~outcome_sink:sink sc in
  let d = Explore.create ~dpor ~seed ~indep:(independence sc) () in
  let run chooser =
    (* capture the choice trace of each completed schedule for the
       vote-window audit *)
    let log = ref [] in
    let logging =
      {
        Explore.choose =
          (fun cands ->
            let c = chooser.Explore.choose cands in
            log := c :: !log;
            c);
        advance =
          (fun c ->
            chooser.Explore.advance c;
            log := c :: !log);
      }
    in
    let r = runner logging in
    (match record with
    | Some traces when List.length !traces < audit_cap ->
        traces := (List.rev !log, !last_outcome) :: !traces
    | _ -> ());
    r
  in
  let stats, failure =
    Explore.explore ~max_schedules
      ~on_verdict:(fun v -> Hashtbl.replace verdicts v ())
      d run
  in
  {
    stats;
    verdicts =
      List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) verdicts []);
    failure;
  }

type report = {
  r_scenario : string;
  r_descr : string;
  r_mode : string;
  r_expect_failure : bool;
  r_naive : exploration option;
  r_dpor : exploration option;
  r_verdicts_agree : bool;
  r_reduction : float option;  (** naive schedules / dpor schedules *)
  r_witness : Explore.choice list option;  (** minimised failing trace *)
  r_violations : string list;  (** of the witness run *)
  r_audit : audit option;
  r_ok : bool;
  r_seconds : float;
  r_problems : string list;  (** why [r_ok] is false *)
}

let mode_name (sc : Scenario.t) =
  match sc.mode with
  | Scenario.Single { crash = []; _ } -> "single"
  | Scenario.Single _ -> "crash"
  | Scenario.Occ _ -> "occ"
  | Scenario.Sharded _ -> "sharded"

(* Run one scenario to exhaustion.  [mode] selects naive enumeration,
   DPOR, or both (the default: both, so the reduction factor and the
   verdict-set agreement are measured).  Expect-failure scenarios are
   explored naively: DPOR trusts the very spec the mutant breaks, so
   reduction would prune the interleavings that expose it. *)
let run_scenario ?(mode = `Both) ?(seed = 0) ?(max_schedules = 20_000)
    (sc : Scenario.t) =
  let t0 = Unix.gettimeofday () in
  let is_sharded =
    match sc.mode with Scenario.Sharded _ -> true | _ -> false
  in
  let record = if is_sharded then Some (ref []) else None in
  let vote_full_seen = if is_sharded then Some (ref 0) else None in
  let want_naive = mode <> `Dpor || sc.expect_failure in
  let want_dpor = mode <> `Naive && not sc.expect_failure in
  let naive =
    if want_naive then
      Some
        (explore_once sc ~dpor:false ~seed ~max_schedules ~record
           ~vote_full_seen)
    else None
  in
  let dpor =
    if want_dpor then
      Some
        (explore_once sc ~dpor:true ~seed ~max_schedules
           ~record:None ~vote_full_seen)
    else None
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let failure =
    match (naive, dpor) with
    | Some { failure = Some f; _ }, _ -> Some f
    | _, Some { failure = Some f; _ } -> Some f
    | _ -> None
  in
  (* acceptance per scenario *)
  (match failure with
  | Some f when not sc.expect_failure ->
      problem "invariant violated: %s" (String.concat "; " f.violations)
  | None when sc.expect_failure ->
      problem "planted violation not found"
  | _ -> ());
  List.iter
    (fun (name, e) ->
      match e with
      | Some e when (not e.stats.Explore.exhausted) && e.failure = None ->
          problem "%s exploration hit the %d-schedule cap" name max_schedules
      | _ -> ())
    [ ("naive", naive); ("dpor", dpor) ];
  let verdicts_agree =
    match (naive, dpor) with
    | Some n, Some p -> n.verdicts = p.verdicts
    | _ -> true
  in
  if not verdicts_agree then
    problem "DPOR and naive explorations disagree on terminal verdicts";
  (match (naive, dpor) with
  | Some n, Some p
    when p.stats.Explore.schedules > n.stats.Explore.schedules ->
      problem "DPOR explored more schedules than naive"
  | _ -> ());
  let reduction =
    match (naive, dpor) with
    | Some n, Some p when p.stats.Explore.schedules > 0 ->
        Some
          (float_of_int n.stats.Explore.schedules
          /. float_of_int p.stats.Explore.schedules)
    | _ -> None
  in
  (* minimise the witness of an expected failure so the replay flag has
     a short deterministic script to reproduce *)
  let witness, violations =
    match failure with
    | None -> (None, [])
    | Some f ->
        let runner = make_runner sc in
        let w = Explore.minimise ~run:runner f.witness in
        (Some w, f.violations)
  in
  let audit =
    match record with
    | None -> None
    | Some traces ->
        audit_sharded sc ~traces:(List.rev !traces)
          ~vote_full_seen:
            (match vote_full_seen with Some r -> !r | None -> 0)
  in
  (match audit with
  | Some a when a.mismatches > 0 ->
      problem "vote-window audit: %d schedule(s) changed verdicts" a.mismatches
  | Some a when a.vote_full_votes > 0 ->
      problem
        "vote-window audit: windowed exploration paid %d full-history vote(s)"
        a.vote_full_votes
  | _ -> ());
  {
    r_scenario = sc.name;
    r_descr = sc.descr;
    r_mode = mode_name sc;
    r_expect_failure = sc.expect_failure;
    r_naive = naive;
    r_dpor = dpor;
    r_verdicts_agree = verdicts_agree;
    r_reduction = reduction;
    r_witness = witness;
    r_violations = violations;
    r_audit = audit;
    r_ok = !problems = [];
    r_seconds = Unix.gettimeofday () -. t0;
    r_problems = List.rev !problems;
  }

(* Replay a recorded witness: one deterministic run, no exploration. *)
let replay (sc : Scenario.t) trace =
  let runner = make_runner sc in
  runner (Explore.replay_chooser trace)

(* -- JSON report -------------------------------------------------------------- *)

let exploration_json e =
  let s = e.stats in
  Json.(
    Obj
      [ "schedules", Int s.Explore.schedules;
        "pruned", Int s.Explore.pruned_runs;
        "deepest", Int s.Explore.deepest; "exhausted", Bool s.Explore.exhausted;
        "verdicts", Int (List.length e.verdicts) ])

let audit_json a =
  Json.(
    Obj
      [ "audited", Int a.audited; "recorded", Int a.recorded;
        "mismatches", Int a.mismatches;
        "vote_full_votes", Int a.vote_full_votes ])

let report_json r =
  Json.(
    Obj
      [ "scenario", String r.r_scenario; "mode", String r.r_mode;
        "ok", Bool r.r_ok; "expect_failure", Bool r.r_expect_failure;
        "naive", opt exploration_json r.r_naive;
        "dpor", opt exploration_json r.r_dpor;
        "verdicts_agree", Bool r.r_verdicts_agree;
        "reduction", opt (fun f -> Float f) r.r_reduction;
        ( "witness",
          opt (fun w -> String (Explore.trace_to_string w)) r.r_witness );
        "violations", strings r.r_violations; "audit", opt audit_json r.r_audit;
        "problems", strings r.r_problems; "seconds", Float r.r_seconds ])

let to_json rs =
  Json.Obj
    [ "reports", Json.List (List.map report_json rs);
      "ok", Json.Bool (List.for_all (fun r -> r.r_ok) rs) ]
