(* The record log under every byte format: golden bytes, the loader's
   torn-tail and corruption rules, and fsync error propagation.

   The golden images were written by the implementation that predates
   the shared record log, which kept a private codec per format.  A
   round-trip test cannot catch a change made to an encoder and its
   decoder at once; comparing against these bytes can. *)

open Ooser_core
open Ids
module Record_log = Ooser_recovery.Record_log
module Oplog = Ooser_recovery.Oplog
module Decision_log = Ooser_recovery.Decision_log
module Snapshot = Ooser_recovery.Snapshot
module Trace = Ooser_certify.Trace
module Wire = Ooser_server.Wire
module Server = Ooser_server.Server

let tmp_dir () =
  let d = Filename.temp_file "ooser_golden" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let read path = In_channel.with_open_bin path In_channel.input_all

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* ---------- fixtures: one value of every record kind ---------- *)

let inv =
  {
    Oplog.obj = Obj_id.v "Enc";
    meth = "insert";
    args = [ Value.Str "k1"; Value.Int (-2) ];
  }

let comp =
  { Oplog.obj = Obj_id.v "Enc"; meth = "delete"; args = [ Value.Str "k1" ] }

let oplog_records =
  [
    ("begin", Oplog.Begin { top = 1; attempt = 0; name = "t1" });
    ("call", Oplog.Call { top = 1; attempt = 0; seq = 1; inv; comp = Some comp });
    ( "subcommit",
      Oplog.Subcommit { top = 1; attempt = 2; path = [ 1; 3 ]; comp = None } );
    ("commit", Oplog.Commit { top = 1; attempt = 0 });
    ("abort", Oplog.Abort { top = 70000; attempt = 1; reason = "deadlock" });
  ]

let oplog_bytes r =
  let dir = tmp_dir () in
  let j = Oplog.open_dir ~dir in
  ignore (Oplog.append j r);
  Oplog.force j;
  Oplog.close j;
  read (Oplog.log_file ~dir)

let decisions =
  [
    { Decision_log.top = 7; commit = true; participants = [ 0; 1 ] };
    { Decision_log.top = 8; commit = false; participants = [] };
  ]

let decision_bytes () =
  let dir = tmp_dir () in
  let d = Decision_log.open_dir ~dir in
  List.iter (Decision_log.append d) decisions;
  Decision_log.force d;
  Decision_log.close d;
  read (Decision_log.log_file ~dir)

(* a transfer whose two primitives carry execution-time pins *)
let trace_record =
  let p = Process_id.main 3 in
  let root_id = Action_id.root 3 in
  let act k obj meth pin =
    Action.v ~id:(Action_id.child root_id k) ~obj:(Obj_id.v obj) ~meth
      ~args:[ Value.Int 5 ] ?pin ~process:p ()
  in
  let root =
    Action.v ~id:root_id ~obj:(Obj_id.v "Bank") ~meth:"transfer"
      ~args:[ Value.Str "a"; Value.Str "b" ] ~process:p ()
  in
  {
    Trace.top = 3;
    tree =
      Call_tree.seq root
        [
          Call_tree.v (act 1 "Account1" "withdraw" (Some (Value.Int 100))) [];
          Call_tree.v (act 2 "Account2" "deposit" None) [];
        ];
    prims =
      [ (Action_id.child root_id 1, 4); (Action_id.child root_id 2, 9) ];
  }

let trace_bytes () =
  let path = Filename.temp_file "ooser_golden" ".trc" in
  let w = Trace.create_writer ~registry:"banking" path in
  Trace.append w trace_record;
  Trace.close w;
  read path

let snapshot =
  {
    Snapshot.next_top = 3;
    entries =
      [
        { Snapshot.top = 1; attempt = 0; name = "t1"; calls = [ inv; comp ] };
        { Snapshot.top = 2; attempt = 1; name = "t2"; calls = [] };
      ];
  }

let values =
  [
    Value.Unit;
    Value.Bool true;
    Value.Bool false;
    Value.Int (-1);
    Value.Int max_int;
    Value.Str "s";
    Value.Pair (Value.Int 1, Value.Str "p");
    Value.List [ Value.Unit; Value.List [] ];
  ]

let requests =
  [
    ("hello", Wire.Hello "cli");
    ("begin", Wire.Begin { name = "b"; timeout_ms = 250 });
    ("call", Wire.Call { obj = "Enc"; meth = "m"; args = values });
    ("commit", Wire.Commit);
    ("abort", Wire.Abort "r");
    ("stats", Wire.Stats);
    ("shutdown", Wire.Shutdown);
    ("bye", Wire.Bye);
  ]

let responses =
  [
    ("welcome", Wire.Welcome { server = "s"; db = "d"; protocol = "open" });
    ("begun", Wire.Begun { top = 9 });
    ("result", Wire.Result (Value.List values));
    ("failed", Wire.Failed "f");
    ("committed", Wire.Committed (Value.Pair (Value.Unit, Value.Bool true)));
    ("aborted", Wire.Aborted "a");
    ("stats", Wire.Stats_json "{}");
    ("error", Wire.Error { code = "E"; msg = "m" });
    ("closing", Wire.Closing);
  ]

let request_bytes q = Wire.frame (Wire.encode_request q)
let response_bytes p = Wire.frame (Wire.encode_response p)

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let write path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let check_hex label want got = Alcotest.(check string) label want (hex got)

(* ---------- golden images ---------- *)

let golden_oplog =
  [
    ("begin", "0b0000000101000000000002007431");
    ( "call",
      "3f0000000201000000000001000300456e630600696e73657274020003020000\
      006b3102feffffffffffffff010300456e63060064656c657465010003020000\
      006b31" );
    ("subcommit", "0e0000000301000000020002000100030000");
    ("commit", "0700000004010000000000");
    ("abort", "11000000057011010001000800646561646c6f636b");
  ]

let golden_decisions =
  "0b00000007000000010200000001000700000008000000000000"

let golden_trace =
  "1500000008004f4f5345525452430200070062616e6b696e67e8000000030000\
    0004000000000000000900000000000000010002000000010100000000000400\
    000000000000010200000000000900000000000000000000040042616e6b0000\
    08007472616e7366657202000301000000610301000000620003000000000000\
    0001000000000001000000020000000101000000000008004163636f756e7431\
    0000080077697468647261770100020500000000000000010264000000000000\
    0003000000000000000000000000000102000000000008004163636f756e7432\
    000007006465706f736974010002050000000000000000030000000000000000\
    0000000000"

let golden_snapshot =
  "030000000200000001000000000002007431020000001f0000000300456e6306\
    00696e73657274020003020000006b3102feffffffffffffff16000000030045\
    6e63060064656c657465010003020000006b3102000000010002007432000000\
    00"

let golden_requests =
  [
    ("hello", "06000000000300636c69");
    ("begin", "0c00000001010062fa00000000000000");
    ( "call",
      "45000000020300456e6301006d08000000000101010002ffffffffffffffff02\
      ffffffffffffff3f030100000073040201000000000000000301000000700502\
      000000000500000000" );
    ("commit", "0100000003");
    ("abort", "0400000004010072");
    ("stats", "0100000005");
    ("shutdown", "0100000006");
    ("bye", "0100000007");
  ]

let golden_responses =
  [
    ("welcome", "0d0000000001007301006404006f70656e");
    ("begun", "09000000010900000000000000");
    ( "result",
      "3e000000020508000000000101010002ffffffffffffffff02ffffffffffffff\
      3f03010000007304020100000000000000030100000070050200000000050000\
      0000" );
    ("failed", "06000000030100000066");
    ("committed", "050000000404000101");
    ("aborted", "06000000050100000061");
    ("stats", "0700000006020000007b7d");
    ("error", "0900000007010045010000006d");
    ("closing", "0100000008");
  ]

let snapshot_bytes () =
  let dir = tmp_dir () in
  Snapshot.checkpoint ~dir snapshot;
  read (Snapshot.file ~dir)

let test_golden_writes () =
  List.iter
    (fun (label, r) ->
      check_hex ("oplog " ^ label) (List.assoc label golden_oplog)
        (oplog_bytes r))
    oplog_records;
  check_hex "decisions" golden_decisions (decision_bytes ());
  check_hex "trace" golden_trace (trace_bytes ());
  check_hex "snapshot" golden_snapshot (snapshot_bytes ());
  List.iter
    (fun (label, q) ->
      check_hex ("request " ^ label) (List.assoc label golden_requests)
        (request_bytes q))
    requests;
  List.iter
    (fun (label, p) ->
      check_hex ("response " ^ label) (List.assoc label golden_responses)
        (response_bytes p))
    responses

(* files the older implementation wrote load to the same values *)
let test_golden_loads () =
  let dir = tmp_dir () in
  write (Oplog.log_file ~dir)
    (String.concat "" (List.map (fun (_, h) -> unhex h) golden_oplog));
  Alcotest.(check bool) "oplog records" true
    (Oplog.load ~dir = List.map snd oplog_records);
  write (Decision_log.log_file ~dir) (unhex golden_decisions);
  Alcotest.(check bool) "decisions" true (Decision_log.load ~dir = decisions);
  write (Snapshot.file ~dir) (unhex golden_snapshot);
  Alcotest.(check bool) "snapshot" true (Snapshot.load ~dir = Some snapshot);
  let path = Filename.concat dir "golden.trc" in
  write path (unhex golden_trace);
  let t = Trace.load path in
  Alcotest.(check string) "trace registry" "banking" (Trace.registry_name t);
  Alcotest.(check int) "trace length" 1 (Trace.length t);
  Alcotest.(check string) "trace record"
    (hex (Trace.encode_record trace_record))
    (hex (Trace.encode_record (Trace.record t 0)));
  let payload h =
    let b = unhex h in
    String.sub b 4 (String.length b - 4)
  in
  List.iter
    (fun (label, q) ->
      Alcotest.(check bool) ("request " ^ label) true
        (Wire.decode_request (payload (List.assoc label golden_requests)) = q))
    requests;
  List.iter
    (fun (label, p) ->
      Alcotest.(check bool) ("response " ^ label) true
        (Wire.decode_response (payload (List.assoc label golden_responses)) = p))
    responses

(* ---------- loader rules ---------- *)

let three_records =
  [
    Oplog.Begin { top = 1; attempt = 0; name = "a" };
    Oplog.Commit { top = 1; attempt = 0 };
    Oplog.Begin { top = 2; attempt = 0; name = "b" };
  ]

let write_oplog records =
  let dir = tmp_dir () in
  let j = Oplog.open_dir ~dir in
  List.iter (fun r -> ignore (Oplog.append j r)) records;
  Oplog.force j;
  Oplog.close j;
  dir

let test_mid_log_corruption () =
  let dir = write_oplog three_records in
  let path = Oplog.log_file ~dir in
  let b = Bytes.of_string (read path) in
  (* the middle frame starts right after the first one *)
  let first =
    String.length
      (Record_log.frame (Oplog.encode_record (List.hd three_records)))
  in
  Bytes.set b (first + 4) '\xff';
  write path (Bytes.to_string b);
  Alcotest.check_raises "corrupt middle record"
    (Failure (Printf.sprintf "%s: corrupt record at byte offset %d" path first))
    (fun () -> ignore (Oplog.load ~dir))

let test_zero_filled_tail () =
  let dir = write_oplog three_records in
  let path = Oplog.log_file ~dir in
  write path (read path ^ String.make 16 '\000');
  Alcotest.(check bool) "valid prefix kept" true (Oplog.load ~dir = three_records)

(* A snapshot that frames but does not decode must stop the boot: the
   log it replaced is gone, so starting empty would lose its winners. *)
let test_undecodable_snapshot () =
  let dir = tmp_dir () in
  let path = Snapshot.file ~dir in
  write path "\x00\x00";
  Alcotest.(check bool) "file read" true (Record_log.read_file path <> None);
  let raises_with_path f =
    match f () with
    | _ -> false
    | exception Failure msg -> String.starts_with ~prefix:path msg
  in
  Alcotest.(check bool) "Snapshot.load raises" true
    (raises_with_path (fun () -> ignore (Snapshot.load ~dir)));
  let config =
    {
      (Server.default_config (Server.Unix_sock (Filename.concat dir "s.sock")))
      with
      Server.durable_dir = Some dir;
    }
  in
  Alcotest.(check bool) "durable Server.create raises" true
    (raises_with_path (fun () -> Server.close (Server.create config)))

let test_fsync_error_propagates () =
  (* fsync on /dev/null fails (EINVAL on Linux): a force that returned
     normally would acknowledge a commit the disk never took *)
  let j = Oplog.create ~file:"/dev/null" () in
  ignore (Oplog.append j (Oplog.Commit { top = 1; attempt = 0 }));
  let raised =
    match Oplog.force j with () -> false | exception Unix.Unix_error _ -> true
  in
  Oplog.close j;
  Alcotest.(check bool) "force raises" true raised;
  Alcotest.(check int) "nothing stable" 0 (List.length (Oplog.stable j))

let suites =
  [
    ( "record_log",
      [
        Alcotest.test_case "golden bytes written" `Quick test_golden_writes;
        Alcotest.test_case "golden files load" `Quick test_golden_loads;
        Alcotest.test_case "mid-log corruption raises" `Quick
          test_mid_log_corruption;
        Alcotest.test_case "zero-filled tail dropped" `Quick
          test_zero_filled_tail;
        Alcotest.test_case "undecodable snapshot raises" `Quick
          test_undecodable_snapshot;
        Alcotest.test_case "fsync error propagates" `Quick
          test_fsync_error_propagates;
      ] );
  ]
