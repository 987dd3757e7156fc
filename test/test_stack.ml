(* Tests for the shared engine stack: the command-log bridge every
   driver feeds the engine through, replay failure accounting, and the
   offline replay of a sharded durable directory. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Oplog = Ooser_recovery.Oplog
module Decision_log = Ooser_recovery.Decision_log
module Router = Ooser_shard.Router
module Engine_stack = Ooser_shard.Engine_stack

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let o = Obj_id.v

let temp_dir () =
  let d = Filename.temp_file "oosdb_stack" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* -- the command log ------------------------------------------------------------ *)

(* A read/write cell whose [write] returns the value it overwrote; every
   execution is recorded as (top, method), aborted attempts included. *)
let register_cell db name runs =
  let state = ref 0 in
  let read (ctx : Runtime.ctx) _ =
    runs := (ctx.Runtime.top, "read") :: !runs;
    Value.int !state
  in
  let write (ctx : Runtime.ctx) args =
    runs := (ctx.Runtime.top, "write") :: !runs;
    match args with
    | [ Value.Int v ] ->
        let old = !state in
        Runtime.on_undo ctx (fun () -> state := old);
        state := v;
        Value.int old
    | _ -> invalid_arg "write"
  in
  Database.register db (o name)
    ~spec:(Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ])
    [ ("read", Database.primitive read); ("write", Database.primitive write) ];
  state

let test_call_log_retry () =
  let db = Database.create () in
  let runs = ref [] in
  let x = register_cell db "X" runs in
  let protocol = Protocol.flat_2pl ~reg:(Database.spec_registry db) () in
  let config =
    { (Engine.default_config protocol) with Engine.deadlock = Engine.Wound_wait }
  in
  let eng = Engine.create ~config db ~protocol in
  (* the younger transaction (top 2) logs two calls and parks *)
  let log = Call_log.create () in
  Engine.submit eng ~top:2 ~name:"logged" (Call_log.body log);
  Call_log.push log (o "X") "write" [ Value.int 7 ];
  Call_log.push log (o "X") "read" [];
  ignore (Engine.poke eng 2);
  ignore (Engine.pump eng);
  check_bool "first attempt overwrote 0" true
    (Call_log.result log 0 = Some (Ok (Value.int 0)));
  (* the older transaction (top 1) wants X: it wounds top 2 *)
  Engine.submit eng ~top:1 ~name:"older" (fun ctx ->
      Runtime.call ctx (o "X") "write" [ Value.int 1 ]);
  ignore (Engine.pump eng);
  check_bool "older committed" true
    (match Engine.txn_state eng 1 with `Committed _ -> true | _ -> false);
  check_bool "wounded" true
    (Ooser_sim.Stats.Counter.get (Engine.counters eng) "wounds" >= 1);
  let runs_of meth =
    List.length (List.filter (( = ) (2, meth)) !runs)
  in
  check_bool "retry re-executed call 0" true (runs_of "write" >= 2);
  check_bool "retry re-executed call 1" true (runs_of "read" >= 2);
  check_bool "results are the final attempt's" true
    (Call_log.result log 0 = Some (Ok (Value.int 1))
    && Call_log.result log 1 = Some (Ok (Value.int 7)));
  (* a failing third call, then finish: the commit value is the last
     successful call's *)
  Call_log.push log (o "X") "no-such-method" [];
  Call_log.finish log;
  Call_log.push log (o "X") "write" [ Value.int 99 ];
  check_int "pushes after finish are ignored" 3 (Call_log.length log);
  ignore (Engine.poke eng 2);
  ignore (Engine.pump eng);
  check_bool "third call failed" true
    (match Call_log.result log 2 with Some (Error _) -> true | _ -> false);
  check_int "one failed call" 1 (Call_log.errors log);
  check_bool "committed with the last successful call's value" true
    (Engine.txn_state eng 2 = `Committed (Value.int 7));
  check_int "final state" 7 !x

(* -- replay failure accounting --------------------------------------------------- *)

let write_oplog ~dir records =
  let log = Oplog.open_dir ~dir in
  List.iter (fun r -> ignore (Oplog.append log r)) records;
  Oplog.force log;
  Oplog.close log

let enc_call key =
  { Oplog.obj = o "Enc"; meth = "insert"; args = [ Value.str key; Value.str "v" ] }

let test_replay_failure_counted () =
  let dir = temp_dir () in
  write_oplog ~dir
    [
      Oplog.Begin { top = 1; attempt = 0; name = "good" };
      Oplog.Call { top = 1; attempt = 0; seq = 0; inv = enc_call "fresh"; comp = None };
      Oplog.Commit { top = 1; attempt = 0 };
      Oplog.Begin { top = 2; attempt = 0; name = "bad" };
      Oplog.Call
        {
          top = 2;
          attempt = 0;
          seq = 0;
          inv = { Oplog.obj = o "Enc"; meth = "no-such-method"; args = [] };
          comp = None;
        };
      Oplog.Commit { top = 2; attempt = 0 };
    ];
  let config = { Engine_stack.default with preload = 8 } in
  let r = Engine_stack.replay ~dir (Engine_stack.build config) in
  check_int "replayed calls" 2 r.report.Engine.replayed_calls;
  check_int "one replay failure" 1 r.report.Engine.replay_failures;
  check_bool "recover is not ok" false (Engine_stack.ok r.report)

(* -- sharded offline replay ------------------------------------------------------ *)

let rec files_under dir =
  List.concat_map
    (fun name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then files_under path
      else
        [ (path, In_channel.with_open_bin path In_channel.input_all) ])
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let test_sharded_offline_replay () =
  let dir = temp_dir () in
  let router = Router.create ~shards:2 in
  (* one fresh key per shard for each transaction *)
  let key_on shard prefix =
    let rec go i =
      let k = Printf.sprintf "%s%d" prefix i in
      if Engine_stack.shard_keep router shard k then k else go (i + 1)
    in
    go 0
  in
  for shard = 0 to 1 do
    let call top seq prefix =
      Oplog.Call
        { top; attempt = 0; seq; inv = enc_call (key_on shard prefix); comp = None }
    in
    write_oplog ~dir:(Engine_stack.shard_dir dir shard)
      [
        (* both prepared, neither committed in the shard log *)
        Oplog.Begin { top = 1; attempt = 0; name = "decided" };
        call 1 0 "win";
        Oplog.Begin { top = 2; attempt = 0; name = "in-doubt" };
        call 2 0 "lose";
      ]
  done;
  let dl = Decision_log.open_dir ~dir in
  Decision_log.append dl { Decision_log.top = 1; commit = true; participants = [ 0; 1 ] };
  Decision_log.force dl;
  Decision_log.close dl;
  let before = files_under dir in
  let config = { Engine_stack.default with preload = 8 } in
  let decisions, replays = Engine_stack.replay_shards ~dir ~shards:2 config in
  check_int "one logged decision" 1 (List.length decisions);
  check_int "both shards replayed" 2 (List.length replays);
  List.iteri
    (fun i (r : Engine_stack.replayed) ->
      let name s = Printf.sprintf "shard %d: %s" i s in
      check_bool (name "top 1 wins") true
        (r.report.Engine.rec_winners = [ (1, 0) ]);
      check_bool (name "top 2 undone (presumed abort)") true
        (r.report.Engine.undone = [ (2, 0) ]);
      check_bool (name "only top 1 committed") true
        (List.map fst (Engine.committed_trees r.engine) = [ 1 ]);
      check_bool (name "ok") true (Engine_stack.ok r.report))
    replays;
  check_bool "directory tree byte-identical" true (files_under dir = before)

let suites =
  [
    ( "engine-stack",
      [
        Alcotest.test_case "command log: wounded retry" `Quick
          test_call_log_retry;
        Alcotest.test_case "replay failure counted" `Quick
          test_replay_failure_counted;
        Alcotest.test_case "sharded offline replay" `Quick
          test_sharded_offline_replay;
      ] );
  ]
