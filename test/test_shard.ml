(* The sharded engine: router placement properties, the coordinator's
   decision log, dispatcher-level commits (single- and cross-shard), the
   planted cross-shard cycle that Def. 15 edge exchange must catch, and
   an end-to-end sharded server exchange over a loopback socket. *)

open Ooser_core
open Ooser_oodb
open Ooser_server
module Router = Ooser_shard.Router
module Dispatcher = Ooser_shard.Dispatcher
module Engine_stack = Ooser_shard.Engine_stack
module Decision_log = Ooser_recovery.Decision_log
module Oplog = Ooser_recovery.Oplog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let o = Obj_id.v

(* -- router placement --------------------------------------------------------- *)

(* Stability across sessions: the router is a pure function of the
   shard count, so two independently created instances (two server
   incarnations, the load generator, a recovered boot) must agree on
   every placement. *)
let prop_router_stable =
  QCheck2.Test.make ~name:"router: placement is stable and in range"
    ~count:500
    QCheck2.Gen.(
      triple (int_range 1 16)
        (string_size ~gen:printable (int_bound 24))
        (string_size ~gen:printable (int_bound 24)))
    (fun (shards, obj, key) ->
      let r1 = Router.create ~shards in
      let r2 = Router.create ~shards in
      let args = [ Value.str key ] in
      let s1 = Router.shard_of_call r1 ~obj ~args in
      let s2 = Router.shard_of_call r2 ~obj ~args in
      s1 = s2 && s1 >= 0 && s1 < shards
      (* key-based placement ignores the method's other arguments *)
      && Router.shard_of_call r1 ~obj ~args:(args @ [ Value.int 7 ]) = s1)

let test_router_spread () =
  let r = Router.create ~shards:4 in
  let hit = Array.make 4 0 in
  for i = 0 to 199 do
    let s =
      Router.shard_of_call r ~obj:"Enc"
        ~args:[ Value.str (Printf.sprintf "k%05d" i) ]
    in
    hit.(s) <- hit.(s) + 1
  done;
  Array.iteri
    (fun i n -> check_bool (Printf.sprintf "shard %d owns keys" i) true (n > 10))
    hit;
  (* non-string-keyed calls route by object name alone *)
  check_int "object-only placement is arg-independent"
    (Router.shard_of_call r ~obj:"Account7" ~args:[ Value.int 3 ])
    (Router.shard_of_call r ~obj:"Account7" ~args:[])

(* -- decision log ------------------------------------------------------------- *)

let temp_dir () =
  let d = Filename.temp_file "oosdb_shard" "" in
  Sys.remove d;
  d

let test_decision_log_roundtrip () =
  let dir = temp_dir () in
  let t = Decision_log.open_dir ~dir in
  let ds =
    [
      { Decision_log.top = 3; commit = true; participants = [ 0; 2 ] };
      { Decision_log.top = 9; commit = false; participants = [ 1 ] };
      { Decision_log.top = 12; commit = true; participants = [ 0; 1; 3 ] };
    ]
  in
  List.iter (Decision_log.append t) ds;
  Decision_log.force t;
  Decision_log.close t;
  let loaded = Decision_log.load ~dir in
  check_int "all decisions back" 3 (List.length loaded);
  check_bool "identical" true (loaded = ds);
  (* a torn final frame is dropped, stable prefix survives *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (Decision_log.log_file ~dir)
  in
  output_string oc "\004\000\000";
  close_out oc;
  check_int "torn tail dropped" 3 (List.length (Decision_log.load ~dir));
  Decision_log.reset ~dir;
  check_int "reset empties" 0 (List.length (Decision_log.load ~dir))

let test_decision_log_resolve () =
  let records =
    [
      Oplog.Begin { top = 5; attempt = 0; name = "in-doubt" };
      Oplog.Begin { top = 6; attempt = 0; name = "loser" };
      Oplog.Begin { top = 7; attempt = 0; name = "already-closed" };
      Oplog.Commit { top = 7; attempt = 0 };
    ]
  in
  let decisions =
    [
      { Decision_log.top = 5; commit = true; participants = [ 0; 1 ] };
      { Decision_log.top = 6; commit = false; participants = [ 0; 1 ] };
    ]
  in
  let resolved = Decision_log.resolve ~decisions records in
  let commits =
    List.filter_map
      (function Oplog.Commit { top; _ } -> Some top | _ -> None)
      resolved
  in
  check_bool "in-doubt top 5 gets a synthetic commit" true
    (List.mem 5 commits);
  check_bool "presumed abort leaves top 6 open" true
    (not (List.mem 6 commits));
  check_int "top 7 not duplicated" 1
    (List.length (List.filter (( = ) 7) commits))

(* -- dispatcher-level transactions -------------------------------------------- *)

let disp_config ?(shards = 2) ?(protocol_kind = `Open) ?durable_dir () =
  {
    Dispatcher.shards;
    stack = { Engine_stack.default with protocol_kind; preload = 40 };
    durable_dir;
  }

let with_dispatcher config f =
  let d = Dispatcher.create config in
  Fun.protect ~finally:(fun () -> Dispatcher.shutdown d) (fun () -> f d)

let settle d ~top ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    Dispatcher.poll d;
    match Dispatcher.txn_state d top with
    | (`Running | `Unknown) when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [ Dispatcher.wake_fd d ] [] [] 0.01);
        go ()
    | s -> s
  in
  go ()

let await_result d ~top ~seq ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    Dispatcher.poll d;
    match Dispatcher.result d ~top ~seq with
    | Some r -> r
    | None when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [ Dispatcher.wake_fd d ] [] [] 0.01);
        go ()
    | None -> Alcotest.failf "no result for txn %d call %d" top seq
  in
  go ()

let key_of i = Printf.sprintf "k%05d" i

(* the first preloaded key the router places on [shard] *)
let key_on router shard =
  let rec go i =
    if i >= 40 then Alcotest.failf "no preloaded key on shard %d" shard
    else if
      Router.shard_of_call router ~obj:"Enc" ~args:[ Value.str (key_of i) ]
      = shard
    then key_of i
    else go (i + 1)
  in
  go 0

(* Step every core-mode shard until none has queued work. *)
let settle_shards d =
  for i = 0 to Dispatcher.shards d - 1 do
    while Dispatcher.shard_has_work d i do
      Dispatcher.step_shard d i
    done
  done

(* One committed single-call transaction: [Enc.search k]. *)
let commit_search d ~top k =
  Dispatcher.begin_txn d ~top ~name:(Printf.sprintf "t%d" top) ~deadline:None;
  Dispatcher.call d ~top ~obj:"Enc" ~meth:"search" ~args:[ Value.str k ];
  (match await_result d ~top ~seq:0 ~timeout:5.0 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "search failed: %s" e);
  Dispatcher.commit d ~top;
  (match settle d ~top ~timeout:5.0 with
  | `Committed _ -> ()
  | `Aborted r -> Alcotest.failf "aborted: %s" r
  | _ -> Alcotest.fail "still running");
  Dispatcher.retire d ~top

(* Merged-history object names: ["s<i>:<name>"] resolves to shard i's
   object only when shard i exists and its committed trees touch it; the
   system object is known and all-commute; every other name falls back
   to all-conflict. *)
let test_merged_object_names () =
  let parse = Dispatcher.shard_obj ~shards:2 in
  check_bool "s0:Enc parses" true
    (match parse "s0:Enc" with
    | Some (0, o) -> Obj_id.equal o (Obj_id.v "Enc")
    | _ -> false);
  let others = [ "s9:Enc"; "x0:Enc"; "s:Enc"; "Enc"; ":Enc" ] in
  let sys = Obj_id.name Call_tree.Build.default_sys in
  List.iter
    (fun n -> check_bool (n ^ " does not parse") true (parse n = None))
    (sys :: others);
  with_dispatcher (disp_config ()) (fun d ->
      commit_search d ~top:1 (key_on (Dispatcher.router d) 0);
      let reg = History.commut (Dispatcher.merged_history d ()) in
      let known n = Commutativity.known reg (Obj_id.v n) in
      let spec n = Commutativity.name (Commutativity.spec_for reg (Obj_id.v n)) in
      check_bool "s0:Enc known" true (known "s0:Enc");
      check_bool "s0:Enc has the shard's spec" true (spec "s0:Enc" <> "all-conflict");
      check_bool "system object known" true (known sys);
      Alcotest.(check string) "system object commutes" "all-commute" (spec sys);
      List.iter
        (fun n ->
          check_bool (n ^ " unknown") false (known n);
          Alcotest.(check string) (n ^ " conflicts") "all-conflict" (spec n))
        others)

(* The merged registry reads the specs each shard put in its snapshot,
   in its own domain, never the shards' databases.  For every object of
   the merged history it must give the very spec that shard's database
   registers. *)
let test_merged_registry_specs () =
  let d = Dispatcher.create ~in_process:true (disp_config ()) in
  Fun.protect ~finally:(fun () -> Dispatcher.shutdown d) @@ fun () ->
  (* the caller runs the shards: step them and hand their events over
     until the transaction is decided *)
  let run ~top calls =
    Dispatcher.begin_txn d ~top ~name:(Printf.sprintf "t%d" top) ~deadline:None;
    List.iter
      (fun (meth, args) -> Dispatcher.call d ~top ~obj:"Enc" ~meth ~args)
      calls;
    settle_shards d;
    Dispatcher.poll d;
    Dispatcher.commit d ~top;
    let rec decide n =
      settle_shards d;
      Dispatcher.poll d;
      match Dispatcher.txn_state d top with
      | `Committed _ -> Dispatcher.retire d ~top
      | `Aborted r -> Alcotest.failf "t%d aborted: %s" top r
      | _ when n > 0 -> decide (n - 1)
      | _ -> Alcotest.failf "t%d undecided" top
    in
    decide 10
  in
  let r = Dispatcher.router d in
  let ka = key_on r 0 and kb = key_on r 1 in
  run ~top:1 [ ("search", [ Value.str ka ]) ];
  run ~top:2
    [
      ("update", [ Value.str ka; Value.str "a'" ]);
      ("update", [ Value.str kb; Value.str "b'" ]);
    ];
  let h = Dispatcher.merged_history d () in
  let reg = History.commut h in
  let sys = Obj_id.name Call_tree.Build.default_sys in
  let objs =
    List.sort_uniq Obj_id.compare
      (List.map (fun a -> Obj_id.original (Action.obj a)) (History.all_actions h))
  in
  let on_shard i =
    List.exists
      (fun o ->
        match Dispatcher.shard_obj ~shards:2 (Obj_id.name o) with
        | Some (j, _) -> i = j
        | None -> false)
      objs
  in
  check_bool "objects of both shards" true (on_shard 0 && on_shard 1);
  List.iter
    (fun o ->
      let n = Obj_id.name o in
      match Dispatcher.shard_obj ~shards:2 n with
      | Some (i, local) ->
          check_bool (n ^ " known") true (Commutativity.known reg o);
          check_bool (n ^ " has its shard's own spec") true
            (match Dispatcher.shard_spec d ~shard:i local with
            | Some s -> s == Commutativity.spec_for reg o
            | None -> false)
      | None -> Alcotest.(check string) "only the system object is unprefixed" sys n)
    objs

let counter d k =
  match List.assoc_opt k (Dispatcher.counters d) with Some v -> v | None -> 0

let test_single_shard_commit () =
  with_dispatcher (disp_config ()) (fun d ->
      let k = key_on (Dispatcher.router d) 0 in
      Dispatcher.begin_txn d ~top:1 ~name:"t1" ~deadline:None;
      Dispatcher.call d ~top:1 ~obj:"Enc" ~meth:"search"
        ~args:[ Value.str k ];
      (match await_result d ~top:1 ~seq:0 ~timeout:5.0 with
      | Ok (Value.Pair (Value.Str "found", _)) -> ()
      | Ok v -> Alcotest.failf "search: %a" Value.pp v
      | Error e -> Alcotest.failf "search failed: %s" e);
      Dispatcher.commit d ~top:1;
      (match settle d ~top:1 ~timeout:5.0 with
      | `Committed _ -> ()
      | `Aborted r -> Alcotest.failf "aborted: %s" r
      | _ -> Alcotest.fail "still running");
      check_int "committed on the shard-local fast path" 1
        (counter d "single-shard-commits");
      check_int "no 2PC round" 0 (counter d "cross-shard-commits");
      Dispatcher.retire d ~top:1;
      check_bool "certified" true (Dispatcher.certified d ()))

let test_cross_shard_commit () =
  with_dispatcher (disp_config ()) (fun d ->
      let r = Dispatcher.router d in
      let ka = key_on r 0 and kb = key_on r 1 in
      Dispatcher.begin_txn d ~top:1 ~name:"both" ~deadline:None;
      Dispatcher.call d ~top:1 ~obj:"Enc" ~meth:"update"
        ~args:[ Value.str ka; Value.str "a'" ];
      Dispatcher.call d ~top:1 ~obj:"Enc" ~meth:"update"
        ~args:[ Value.str kb; Value.str "b'" ];
      (match await_result d ~top:1 ~seq:1 ~timeout:5.0 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "update failed: %s" e);
      Dispatcher.commit d ~top:1;
      (match settle d ~top:1 ~timeout:5.0 with
      | `Committed _ -> ()
      | `Aborted r -> Alcotest.failf "aborted: %s" r
      | _ -> Alcotest.fail "still running");
      check_int "went through 2PC" 1 (counter d "cross-shard-commits");
      check_int "coordinator committed it" 1 (counter d "2pc-commits");
      Dispatcher.retire d ~top:1;
      check_bool "certified" true (Dispatcher.certified d ());
      (* the stitched global history must satisfy the from-scratch
         oracle *)
      let h = Dispatcher.merged_history d () in
      check_bool "merged history validates" true (History.validate h = Ok ());
      check_bool "merged history oo-serializable" true
        (Serializability.oo_serializable h))

(* A clean-drain checkpoint folds winners into the shard snapshots and
   restarts the oplog empty, so a restarted dispatcher sees no replayed
   winners — its fresh-top floor must come from the snapshots'
   [next_top], or the next incarnation reuses committed top numbers and
   the recovered history decertifies. *)
let test_durable_restart_top_floor () =
  let dir = temp_dir () in
  let config = disp_config ~durable_dir:dir () in
  let commit_one d ~top =
    let k = key_on (Dispatcher.router d) 1 in
    Dispatcher.begin_txn d ~top ~name:"t" ~deadline:None;
    Dispatcher.call d ~top ~obj:"Enc" ~meth:"update"
      ~args:[ Value.str k; Value.str "v" ];
    (match await_result d ~top ~seq:0 ~timeout:5.0 with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "update failed: %s" e);
    Dispatcher.commit d ~top;
    (match settle d ~top ~timeout:5.0 with
    | `Committed _ -> ()
    | `Aborted r -> Alcotest.failf "aborted: %s" r
    | _ -> Alcotest.fail "still running");
    Dispatcher.retire d ~top
  in
  with_dispatcher config (fun d ->
      check_int "fresh store starts at 1" 1 (Dispatcher.next_top_floor d);
      commit_one d ~top:1);
  (* the shutdown checkpointed: the winner now lives in a snapshot only *)
  with_dispatcher config (fun d ->
      let floor = Dispatcher.next_top_floor d in
      check_bool "restart floor clears the checkpointed winner" true
        (floor > 1);
      commit_one d ~top:floor;
      check_bool "recovered + new history certifies" true
        (Dispatcher.certified d ()));
  with_dispatcher config (fun d ->
      check_bool "floor keeps rising across incarnations" true
        (Dispatcher.next_top_floor d > 2);
      check_bool "still certified" true (Dispatcher.certified d ()))

(* Two transactions with opposing Def. 15 edges on two shards: T11
   precedes T12 on shard A's key, T12 precedes T11 on shard B's key.
   Each shard's schedule is locally fine; only the exchanged edges
   reveal the global cycle, so the coordinator must abort whichever
   transaction prepares first — and the survivor must commit. *)
let test_planted_cross_shard_cycle () =
  with_dispatcher (disp_config ~protocol_kind:`Certify ()) (fun d ->
      let r = Dispatcher.router d in
      let ka = key_on r 0 and kb = key_on r 1 in
      Dispatcher.begin_txn d ~top:11 ~name:"t11" ~deadline:None;
      Dispatcher.begin_txn d ~top:12 ~name:"t12" ~deadline:None;
      let upd top key text seq =
        Dispatcher.call d ~top ~obj:"Enc" ~meth:"update"
          ~args:[ Value.str key; Value.str text ];
        match await_result d ~top ~seq ~timeout:5.0 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "txn %d update %s: %s" top key e
      in
      (* interleave so each shard sees the opposite order *)
      upd 11 ka "t11a" 0;
      upd 12 kb "t12b" 0;
      upd 12 ka "t12a" 1;
      upd 11 kb "t11b" 1;
      Dispatcher.commit d ~top:11;
      let s11 = settle d ~top:11 ~timeout:5.0 in
      Dispatcher.commit d ~top:12;
      let s12 = settle d ~top:12 ~timeout:5.0 in
      let committed = function `Committed _ -> true | _ -> false in
      check_bool "exactly one of the pair survives" true
        (committed s11 <> committed s12);
      check_int "coordinator aborted one" 1 (counter d "2pc-aborts");
      Dispatcher.retire d ~top:11;
      Dispatcher.retire d ~top:12;
      (* the abort kept the union acyclic: no violation latched, and
         the actual merged history passes the oracle *)
      check_bool "certified after the abort" true (Dispatcher.certified d ());
      check_bool "merged history oo-serializable" true
        (Serializability.oo_serializable (Dispatcher.merged_history d ()));
      (* the §17 vote window now covers [`Certify] too, anchored on the
         engine's validation-frontier watermark: every prepare voted
         over the windowed history, none paid the full-history fallback
         the pre-watermark implementation was forced into *)
      let vote_counter name =
        List.fold_left
          (fun acc (s : Dispatcher.shard_stats) ->
            acc + Option.value ~default:0 (List.assoc_opt name s.engine))
          0
          (Dispatcher.stats d ())
      in
      check_bool "windowed votes counted" true (vote_counter "vote-windowed" >= 1);
      check_int "no full-history fallback votes" 0
        (vote_counter "vote-full-history"))

(* The 2PC decision must not depend on which shard's vote reaches the
   coordinator first.  On an in-process dispatcher the test steps the
   shards itself, so both votes are queued before either is handled;
   [Dispatcher.deliver] then hands them to the coordinator first-to-last
   and last-to-first, and the same cross-shard transaction must commit
   either way. *)
let test_cross_shard_delivery_orders () =
  List.iter
    (fun (name, order) ->
      let d = Dispatcher.create ~in_process:true (disp_config ()) in
      Fun.protect ~finally:(fun () -> Dispatcher.shutdown d) @@ fun () ->
      let r = Dispatcher.router d in
      let ka = key_on r 0 and kb = key_on r 1 in
      Dispatcher.begin_txn d ~top:1 ~name:"both" ~deadline:None;
      Dispatcher.call d ~top:1 ~obj:"Enc" ~meth:"update"
        ~args:[ Value.str ka; Value.str "a'" ];
      Dispatcher.call d ~top:1 ~obj:"Enc" ~meth:"update"
        ~args:[ Value.str kb; Value.str "b'" ];
      settle_shards d;
      Dispatcher.poll d;
      List.iter
        (fun seq ->
          match Dispatcher.result d ~top:1 ~seq with
          | Some (Ok _) -> ()
          | Some (Error e) -> Alcotest.failf "%s: update failed: %s" name e
          | None -> Alcotest.failf "%s: no result for call %d" name seq)
        [ 0; 1 ];
      Dispatcher.commit d ~top:1;
      settle_shards d;
      let pending = Dispatcher.pending_events d in
      let votes =
        List.filter_map
          (function
            | Ooser_shard.Shard.Ev_vote { shard; _ } -> Some shard | _ -> None)
          pending
      in
      check_int (name ^ ": only the two votes queued") 2 (List.length pending);
      check_bool (name ^ ": one vote per shard") true
        (List.sort Int.compare votes = [ 0; 1 ]);
      List.iter
        (fun n ->
          check_bool (name ^ ": vote delivered") true (Dispatcher.deliver d n))
        order;
      settle_shards d;
      Dispatcher.poll d;
      (match Dispatcher.txn_state d 1 with
      | `Committed _ -> ()
      | `Aborted r -> Alcotest.failf "%s: aborted: %s" name r
      | _ -> Alcotest.failf "%s: still running" name);
      check_int (name ^ ": one 2PC commit") 1 (counter d "2pc-commits");
      Dispatcher.retire d ~top:1;
      check_bool (name ^ ": certified") true (Dispatcher.certified d ()))
    (* the two votes are the only queued events; delivering index 0
       twice takes them first-to-last, 1 then 0 last-to-first *)
    [ ("first-to-last", [ 0; 0 ]); ("last-to-first", [ 1; 0 ]) ]

(* What the coordinator prevented, built by hand: both transactions
   committed, objects carrying the per-shard rename.  The from-scratch
   check must reject the stitched history. *)
let test_handbuilt_cycle_rejected () =
  let t1 =
    Call_tree.Build.(
      top ~n:1 [ call (o "s0:X") "m" []; call (o "s1:Y") "m" [] ])
  in
  let t2 =
    Call_tree.Build.(
      top ~n:2 [ call (o "s1:Y") "m" []; call (o "s0:X") "m" [] ])
  in
  let reg = Commutativity.uniform Commutativity.all_conflict in
  let a1 = Action_id.v ~top:1 ~path:[ 1 ] (* X *)
  and a2 = Action_id.v ~top:1 ~path:[ 2 ] (* Y *)
  and b1 = Action_id.v ~top:2 ~path:[ 1 ] (* Y *)
  and b2 = Action_id.v ~top:2 ~path:[ 2 ] (* X *) in
  (* X: T1 before T2; Y: T2 before T1 — a cross-shard cycle *)
  let cyclic =
    History.v ~tops:[ t1; t2 ] ~order:[ a1; b1; b2; a2 ] ~commut:reg
  in
  check_bool "valid history" true (History.validate cyclic = Ok ());
  check_bool "both-committed merge rejected" false
    (Serializability.oo_serializable cyclic);
  let serial =
    History.v ~tops:[ t1; t2 ] ~order:[ a1; a2; b1; b2 ] ~commut:reg
  in
  check_bool "serial stitching accepted" true
    (Serializability.oo_serializable serial)

(* -- end-to-end sharded server ------------------------------------------------ *)

let with_server config f =
  let srv = Server.create config in
  Fun.protect ~finally:(fun () -> Server.close srv) (fun () -> f srv)

let temp_sock () =
  let path = Filename.temp_file "oosdb_shardsrv" ".sock" in
  Sys.remove path;
  path

let connect srv config =
  Client.connect
    ~on_wait:(fun () -> Server.step srv ~timeout:0.005)
    ~recv_timeout:10.0
    (Server.sockaddr_of config.Server.addr)

let test_e2e_sharded_server () =
  let config =
    {
      (Server.default_config (Server.Unix_sock (temp_sock ()))) with
      Server.preload = 20;
      shards = 2;
    }
  in
  with_server config (fun srv ->
      let c = connect srv config in
      (match Client.request c (Wire.Hello "shard-test") with
      | Wire.Welcome _ -> ()
      | r -> Alcotest.failf "HELLO: %a" Wire.pp_response r);
      (match Client.request c (Wire.Begin { name = "t"; timeout_ms = 0 }) with
      | Wire.Begun _ -> ()
      | r -> Alcotest.failf "BEGIN: %a" Wire.pp_response r);
      (match
         Client.request c
           (Wire.Call
              { obj = "Enc"; meth = "search"; args = [ Value.str "k00003" ] })
       with
      | Wire.Result (Value.Pair (Value.Str "found", _)) -> ()
      | r -> Alcotest.failf "CALL search: %a" Wire.pp_response r);
      (match
         Client.request c
           (Wire.Call
              {
                obj = "Enc";
                meth = "insert";
                args = [ Value.str "zz001"; Value.str "fresh" ];
              })
       with
      | Wire.Result _ -> ()
      | r -> Alcotest.failf "CALL insert: %a" Wire.pp_response r);
      (match Client.request c Wire.Commit with
      | Wire.Committed _ -> ()
      | r -> Alcotest.failf "COMMIT: %a" Wire.pp_response r);
      (match Client.request c Wire.Stats with
      | Wire.Stats_json json ->
          let contains needle hay =
            let n = String.length needle and h = String.length hay in
            let rec go i =
              i + n <= h && (String.sub hay i n = needle || go (i + 1))
            in
            go 0
          in
          check_bool "per-shard breakdown in STATS" true
            (contains "\"shards\"" json)
      | r -> Alcotest.failf "STATS: %a" Wire.pp_response r);
      check_bool "sharded history certified" true (Server.certified srv);
      (match Client.request c Wire.Bye with
      | Wire.Closing -> ()
      | r -> Alcotest.failf "BYE: %a" Wire.pp_response r);
      Client.close c)

let suites =
  [
    ( "shard",
      [
        QCheck_alcotest.to_alcotest prop_router_stable;
        Alcotest.test_case "router spread" `Quick test_router_spread;
        Alcotest.test_case "decision log round-trip" `Quick
          test_decision_log_roundtrip;
        Alcotest.test_case "decision log resolve" `Quick
          test_decision_log_resolve;
        Alcotest.test_case "single-shard commit" `Quick
          test_single_shard_commit;
        Alcotest.test_case "cross-shard commit" `Quick test_cross_shard_commit;
        Alcotest.test_case "durable restart top floor" `Quick
          test_durable_restart_top_floor;
        Alcotest.test_case "planted cross-shard cycle" `Quick
          test_planted_cross_shard_cycle;
        Alcotest.test_case "delivery order pinned both ways" `Quick
          test_cross_shard_delivery_orders;
        Alcotest.test_case "hand-built cycle rejected" `Quick
          test_handbuilt_cycle_rejected;
        Alcotest.test_case "e2e sharded server" `Quick
          test_e2e_sharded_server;
        Alcotest.test_case "merged registry carries shard specs" `Quick
          test_merged_registry_specs;
        Alcotest.test_case "merged-history object names" `Quick
          test_merged_object_names;
      ] );
  ]
