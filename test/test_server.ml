(* The network server stack: wire-codec round-trips (property),
   truncated-frame rejection, the incremental framer, session deadline
   expiry through the engine (fake clock), and full client/server
   exchanges over a loopback unix socket — driven single-threaded by
   stepping the server from the client's wait callback.  Admission,
   wire deadlines and the drain run once on the single engine and once
   through the sharded dispatcher. *)

open Ooser_core
open Ooser_oodb
open Ooser_server
module Protocol = Ooser_cc.Protocol
module Lock_table = Ooser_cc.Lock_table
module Banking = Ooser_workload.Banking
module Escrow = Ooser_adts.Escrow_counter
module Stats = Ooser_sim.Stats
module Dispatcher = Ooser_shard.Dispatcher

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- codec round-trip properties ---------------------------------------------- *)

let gen_value =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 pure Value.Unit;
                 map Value.bool bool;
                 map Value.int int;
                 map Value.str (string_size ~gen:printable (int_bound 12));
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map2 Value.pair (self (n / 2)) (self (n / 2)));
                 (1, map Value.list (list_size (int_bound 4) (self (n / 3))));
               ]))

let gen_request =
  QCheck2.Gen.(
    let str = string_size ~gen:printable (int_bound 16) in
    oneof
      [
        map (fun c -> Wire.Hello c) str;
        map2
          (fun name timeout_ms -> Wire.Begin { name; timeout_ms })
          str (int_bound 100_000);
        map3
          (fun obj meth args -> Wire.Call { obj; meth; args })
          str str
          (list_size (int_bound 3) gen_value);
        pure Wire.Commit;
        map (fun r -> Wire.Abort r) str;
        pure Wire.Stats;
        pure Wire.Shutdown;
        pure Wire.Bye;
      ])

let gen_response =
  QCheck2.Gen.(
    let str = string_size ~gen:printable (int_bound 16) in
    oneof
      [
        map3
          (fun server db protocol -> Wire.Welcome { server; db; protocol })
          str str str;
        map (fun top -> Wire.Begun { top }) (int_bound 1_000_000);
        map (fun v -> Wire.Result v) gen_value;
        map (fun m -> Wire.Failed m) str;
        map (fun v -> Wire.Committed v) gen_value;
        map (fun r -> Wire.Aborted r) str;
        map (fun s -> Wire.Stats_json s) str;
        map2 (fun code msg -> Wire.Error { code; msg }) str str;
        pure Wire.Closing;
      ])

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"wire requests round-trip" ~count:500
    ~print:(Fmt.str "%a" Wire.pp_request) gen_request (fun q ->
      Wire.decode_request (Wire.encode_request q) = q)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"wire responses round-trip" ~count:500
    ~print:(Fmt.str "%a" Wire.pp_response) gen_response (fun p ->
      Wire.decode_response (Wire.encode_response p) = p)

let prop_value_roundtrip =
  (* nested/empty shapes travel through [Result] *)
  QCheck2.Test.make ~name:"values round-trip (incl. nested/empty)" ~count:500
    ~print:(Fmt.str "%a" Value.pp) gen_value (fun v ->
      Wire.decode_response (Wire.encode_response (Wire.Result v))
      = Wire.Result v)

let prop_truncation_rejected =
  (* no strict prefix of an encoded response decodes: the codec must
     fail rather than silently accept a short frame *)
  QCheck2.Test.make ~name:"truncated frames rejected" ~count:300
    ~print:(Fmt.str "%a" Wire.pp_response) gen_response (fun p ->
      let s = Wire.encode_response p in
      let n = String.length s in
      List.for_all
        (fun cut ->
          match Wire.decode_response (String.sub s 0 cut) with
          | _ -> false
          | exception Failure _ -> true)
        (List.sort_uniq Int.compare [ 0; n / 2; n - 1 ]))

let explicit_values =
  [
    Value.unit;
    Value.list [];
    Value.str "";
    Value.int min_int;
    Value.int max_int;
    Value.pair (Value.list [ Value.unit ]) (Value.list [ Value.list [] ]);
    Value.list [ Value.pair Value.unit (Value.str "\x00\xff\n") ];
  ]

let test_explicit_roundtrips () =
  List.iter
    (fun v ->
      check_bool
        (Fmt.str "%a" Value.pp v)
        true
        (Wire.decode_response (Wire.encode_response (Wire.Result v))
        = Wire.Result v))
    explicit_values

let test_framer () =
  let f = Wire.Framer.create () in
  let p1 = Wire.encode_request (Wire.Hello "a") in
  let p2 = Wire.encode_request Wire.Commit in
  let stream = Wire.frame p1 ^ Wire.frame p2 in
  (* trickle in byte by byte: frames appear exactly at their boundaries *)
  let popped = ref [] in
  String.iter
    (fun c ->
      Wire.Framer.feed f (String.make 1 c);
      match Wire.Framer.pop f with
      | Ok (Some payload) -> popped := payload :: !popped
      | Ok None -> ()
      | Error e -> Alcotest.failf "poisoned: %s" e)
    stream;
  (match List.rev !popped with
  | [ a; b ] ->
      check_bool "first frame" true (a = p1);
      check_bool "second frame" true (b = p2)
  | l -> Alcotest.failf "expected 2 frames, got %d" (List.length l));
  (* an oversized length prefix poisons the stream *)
  let f = Wire.Framer.create () in
  let w = Ooser_storage.Codec.Writer.create () in
  Ooser_storage.Codec.Writer.u32 w (Wire.max_frame + 1);
  Wire.Framer.feed f (Ooser_storage.Codec.Writer.contents w);
  (match Wire.Framer.pop f with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted")

(* -- session deadline expiry (fake clock, no sockets) ------------------------- *)

let test_deadline_expiry () =
  let db = Database.create () in
  let acct =
    Banking.register_account db ~semantics:`Escrow 0 ~balance:100 ~low:0
      ~high:1000
  in
  let reg = Database.spec_registry db in
  let protocol = Protocol.open_nested ~reg () in
  let clock = ref 0.0 in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.deadlock = Engine.Wound_wait;
      now = (fun () -> !clock);
    }
  in
  let eng = Engine.create ~config db ~protocol in
  let tr = Session.new_txn ~top:1 ~began:0.0 in
  Engine.submit eng ~top:1 ~name:"s1" ~deadline:10.0 (Session.body tr);
  ignore (Engine.pump eng);
  Session.push_call tr ~now:0.0 (Banking.account_obj 0) "withdraw"
    [ Value.int 40 ];
  ignore (Engine.poke eng 1);
  ignore (Engine.pump eng);
  (* the call committed at its level: money moved, semantic lock held,
     transaction parked awaiting its next command *)
  check_bool "still running" true (Engine.txn_state eng 1 = `Running);
  check_int "balance debited" 60 (Escrow.value acct);
  let table =
    match Protocol.table protocol with
    | Some lt -> lt
    | None -> Alcotest.fail "open nested protocol has a lock table"
  in
  check_bool "locks held while awaiting" true
    (Lock_table.live_for_top table 1 <> []);
  (* the clock passes the deadline; the next pump must abort the
     transaction through the normal compensation path *)
  clock := 11.0;
  ignore (Engine.pump eng);
  (match Engine.txn_state eng 1 with
  | `Aborted _ -> ()
  | `Running -> Alcotest.fail "deadline ignored"
  | _ -> Alcotest.fail "unexpected state");
  check_int "compensation restored the balance" 100 (Escrow.value acct);
  check_int "lock table holds nothing for the dead transaction" 0
    (List.length (Lock_table.live_for_top table 1));
  check_int "deadline abort counted" 1
    (Stats.Counter.get (Engine.counters eng) "deadline-aborts")

(* -- loopback client/server exchanges ----------------------------------------- *)

let with_server config f =
  let srv = Server.create config in
  Fun.protect
    ~finally:(fun () -> Server.close srv)
    (fun () -> f srv)

let temp_sock () =
  let path = Filename.temp_file "oosdb_test" ".sock" in
  Sys.remove path;
  path

let connect srv config =
  Client.connect
    ~on_wait:(fun () -> Server.step srv ~timeout:0.005)
    ~recv_timeout:10.0
    (Server.sockaddr_of config.Server.addr)

let test_e2e_commit () =
  let config =
    {
      (Server.default_config (Server.Unix_sock (temp_sock ()))) with
      Server.preload = 20;
    }
  in
  with_server config (fun srv ->
      let c = connect srv config in
      (match Client.request c (Wire.Hello "test") with
      | Wire.Welcome { db; protocol; _ } ->
          Alcotest.(check string) "db" "encyclopedia" db;
          Alcotest.(check string) "protocol" "open" protocol
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
      check_bool "history certified" true (Server.certified srv);
      (match Client.request c Wire.Bye with
      | Wire.Closing -> ()
      | r -> Alcotest.failf "BYE: %a" Wire.pp_response r);
      Client.close c)

(* A single-engine certify server answers [certified] (and STATS) from
   its live incremental certifier in O(1), with no sweep; the answer must
   equal the from-scratch oracle on the drained history.  Two sessions
   interleave escrow transfers, so the certifier sees crossing work. *)
let test_e2e_certify_live_verdict () =
  let config =
    {
      (Server.default_config (Server.Unix_sock (temp_sock ()))) with
      Server.db_kind = `Banking;
      protocol_kind = `Certify;
      accounts = 3;
    }
  in
  with_server config (fun srv ->
      let c1 = connect srv config and c2 = connect srv config in
      let ok c req =
        match Client.request c req with
        | Wire.Error _ as r -> Alcotest.failf "%a" Wire.pp_response r
        | _ -> ()
      in
      let call obj meth n = Wire.Call { obj; meth; args = [ Value.int n ] } in
      ok c1 (Wire.Hello "a");
      ok c2 (Wire.Hello "b");
      for i = 1 to 6 do
        ok c1 (Wire.Begin { name = "a"; timeout_ms = 0 });
        ok c2 (Wire.Begin { name = "b"; timeout_ms = 0 });
        ok c1 (call "Account0" "withdraw" i);
        ok c2 (call "Account1" "withdraw" i);
        ok c1 (call "Account1" "deposit" i);
        ok c2 (call "Account0" "deposit" i);
        ignore (Client.request c1 Wire.Commit);
        ignore (Client.request c2 Wire.Commit)
      done;
      let eng = Server.engine srv in
      check_bool "commits happened" true
        (Stats.Counter.get (Engine.counters eng) "commits" > 0);
      check_bool "answered by the live certifier" true
        (Engine.live_certified eng = Some true);
      check_int "no oracle certification" 0
        (Stats.Counter.get (Engine.counters eng) "cert-oracle");
      check_bool "live verdict = oracle" true
        (Server.certified srv
        = Serializability.oo_serializable (Engine.final_history eng));
      Client.close c1;
      Client.close c2)

(* Durable server: commit through incarnation one, drop it WITHOUT
   draining (the kill -9 model — no checkpoint runs), then boot a second
   incarnation on the same directory: recovery must replay the committed
   transaction from the journal alone, and the value must be readable
   over the wire. *)
let test_e2e_durable_restart () =
  let dir = Filename.temp_file "oosdb_dur" "" in
  Sys.remove dir;
  let mk_config () =
    {
      (Server.default_config (Server.Unix_sock (temp_sock ()))) with
      Server.preload = 10;
      durable_dir = Some dir;
    }
  in
  let config1 = mk_config () in
  let srv1 = Server.create config1 in
  let c = connect srv1 config1 in
  (match Client.request c (Wire.Hello "dur") with
  | Wire.Welcome _ -> ()
  | r -> Alcotest.failf "HELLO: %a" Wire.pp_response r);
  (match Client.request c (Wire.Begin { name = "t"; timeout_ms = 0 }) with
  | Wire.Begun _ -> ()
  | r -> Alcotest.failf "BEGIN: %a" Wire.pp_response r);
  (match
     Client.request c
       (Wire.Call
          {
            obj = "Enc";
            meth = "insert";
            args = [ Value.str "zz-dur"; Value.str "persisted" ];
          })
   with
  | Wire.Result _ -> ()
  | r -> Alcotest.failf "CALL insert: %a" Wire.pp_response r);
  (match Client.request c Wire.Commit with
  | Wire.Committed _ -> ()
  | r -> Alcotest.failf "COMMIT: %a" Wire.pp_response r);
  Client.close c;
  (* srv1 is abandoned here: no drain, no checkpoint — only the forced
     journal survives, exactly as after kill -9 *)
  let config2 = mk_config () in
  with_server config2 (fun srv2 ->
      (match Server.last_recovery srv2 with
      | Some r ->
          check_int "one winner recovered" 1
            (List.length r.Engine.rec_winners);
          check_bool "recovered history re-certifies" true
            r.Engine.recertified
      | None -> Alcotest.fail "durable boot produced no recovery report");
      let c2 = connect srv2 config2 in
      (match Client.request c2 (Wire.Hello "dur2") with
      | Wire.Welcome _ -> ()
      | r -> Alcotest.failf "HELLO2: %a" Wire.pp_response r);
      (match Client.request c2 (Wire.Begin { name = "t2"; timeout_ms = 0 }) with
      | Wire.Begun _ -> ()
      | r -> Alcotest.failf "BEGIN2: %a" Wire.pp_response r);
      (match
         Client.request c2
           (Wire.Call
              { obj = "Enc"; meth = "search"; args = [ Value.str "zz-dur" ] })
       with
      | Wire.Result (Value.Pair (Value.Str "found", Value.Str "persisted")) ->
          ()
      | r -> Alcotest.failf "CALL search: %a" Wire.pp_response r);
      (match Client.request c2 Wire.Commit with
      | Wire.Committed _ -> ()
      | r -> Alcotest.failf "COMMIT2: %a" Wire.pp_response r);
      (match Client.request c2 Wire.Bye with
      | Wire.Closing -> ()
      | r -> Alcotest.failf "BYE2: %a" Wire.pp_response r);
      Client.close c2)

let test_e2e_admission_backpressure ~shards () =
  let config =
    {
      (Server.default_config (Server.Unix_sock (temp_sock ()))) with
      Server.preload = 10;
      max_inflight = 1;
      shards;
    }
  in
  with_server config (fun srv ->
      let c1 = connect srv config in
      let c2 = connect srv config in
      ignore (Client.request c1 (Wire.Hello "one"));
      ignore (Client.request c2 (Wire.Hello "two"));
      (match Client.request c1 (Wire.Begin { name = "a"; timeout_ms = 0 }) with
      | Wire.Begun _ -> ()
      | r -> Alcotest.failf "BEGIN a: %a" Wire.pp_response r);
      (* the second BEGIN must queue: its Begun reply is withheld *)
      Client.send c2 (Wire.Begin { name = "b"; timeout_ms = 0 });
      for _ = 1 to 20 do
        Server.step srv ~timeout:0.002
      done;
      check_int "one transaction admitted" 1 (Server.inflight srv);
      (* finishing the first admits the queued one *)
      (match Client.request c1 Wire.Commit with
      | Wire.Committed _ -> ()
      | r -> Alcotest.failf "COMMIT a: %a" Wire.pp_response r);
      (match Client.recv c2 with
      | Wire.Begun _ -> ()
      | r -> Alcotest.failf "queued BEGIN b: %a" Wire.pp_response r);
      (match Client.request c2 Wire.Commit with
      | Wire.Committed _ -> ()
      | r -> Alcotest.failf "COMMIT b: %a" Wire.pp_response r);
      Client.close c1;
      Client.close c2)

let test_e2e_deadline_over_wire ~shards () =
  let config =
    {
      (Server.default_config (Server.Unix_sock (temp_sock ()))) with
      Server.preload = 10;
      shards;
    }
  in
  with_server config (fun srv ->
      let c = connect srv config in
      ignore (Client.request c (Wire.Hello "late"));
      (match Client.request c (Wire.Begin { name = "t"; timeout_ms = 40 }) with
      | Wire.Begun _ -> ()
      | r -> Alcotest.failf "BEGIN: %a" Wire.pp_response r);
      (* outlive the deadline while the server keeps stepping; the
         parked abort must answer the next command *)
      let until = Unix.gettimeofday () +. 0.12 in
      while Unix.gettimeofday () < until do
        Server.step srv ~timeout:0.01
      done;
      check_int "expired while the client was idle" 0 (Server.inflight srv);
      (match
         Client.request c
           (Wire.Call
              { obj = "Enc"; meth = "search"; args = [ Value.str "k00001" ] })
       with
      | Wire.Aborted _ -> ()
      | r -> Alcotest.failf "expected parked abort, got %a" Wire.pp_response r);
      (* a zero-call sharded transaction expires in the dispatcher *)
      (match Server.dispatcher srv with
      | None ->
          check_int "deadline abort counted" 1
            (Stats.Counter.get (Engine.counters (Server.engine srv))
               "deadline-aborts")
      | Some d ->
          check_int "dispatcher abort counted" 1
            (List.assoc "aborts" (Dispatcher.counters d)));
      check_int "no transactions left in flight" 0 (Server.inflight srv);
      (* the session is usable again *)
      (match Client.request c (Wire.Begin { name = "t2"; timeout_ms = 0 }) with
      | Wire.Begun _ -> ()
      | r -> Alcotest.failf "re-BEGIN: %a" Wire.pp_response r);
      (match Client.request c Wire.Commit with
      | Wire.Committed _ -> ()
      | r -> Alcotest.failf "COMMIT: %a" Wire.pp_response r);
      Client.close c)

let test_e2e_graceful_shutdown ~shards () =
  let config =
    {
      (Server.default_config (Server.Unix_sock (temp_sock ()))) with
      Server.preload = 10;
      drain_grace = 1.0;
      shards;
    }
  in
  let srv = Server.create config in
  let c1 = connect srv config in
  let c2 = connect srv config in
  let c3 = connect srv config in
  ignore (Client.request c1 (Wire.Hello "worker"));
  ignore (Client.request c2 (Wire.Hello "admin"));
  ignore (Client.request c3 (Wire.Hello "idler"));
  let begin_search c key =
    (match Client.request c (Wire.Begin { name = "w"; timeout_ms = 0 }) with
    | Wire.Begun _ -> ()
    | r -> Alcotest.failf "BEGIN: %a" Wire.pp_response r);
    ignore
      (Client.request c
         (Wire.Call { obj = "Enc"; meth = "search"; args = [ Value.str key ] }))
  in
  begin_search c1 "k00002";
  begin_search c3 "k00003";
  (* SHUTDOWN drains: the in-flight transactions may still finish *)
  (match Client.request c2 Wire.Shutdown with
  | Wire.Closing -> ()
  | r -> Alcotest.failf "SHUTDOWN: %a" Wire.pp_response r);
  check_bool "still draining" true (Server.running srv);
  (match Client.request c1 Wire.Commit with
  | Wire.Committed _ -> ()
  | r -> Alcotest.failf "COMMIT during drain: %a" Wire.pp_response r);
  (* the idler never commits: the drain grace aborts it, and with the
     last transaction decided the server stops *)
  check_bool "waiting for the idler" true (Server.running srv);
  let until = Unix.gettimeofday () +. 5.0 in
  while Server.running srv && Unix.gettimeofday () < until do
    Server.step srv ~timeout:0.05
  done;
  check_bool "server stopped" false (Server.running srv);
  check_int "idler aborted" 1
    (Stats.Counter.get (Server.metrics srv).Metrics.counters "aborts");
  check_bool "drained history certified" true (Server.certified srv);
  Client.close c1;
  Client.close c2;
  Client.close c3

(* An occ server's STATS carries its protocol counters under "occ.", the
   prefix a validating protocol gets, and none under "lock.". *)
let test_e2e_occ_stats () =
  let config =
    {
      (Server.default_config (Server.Unix_sock (temp_sock ()))) with
      Server.db_kind = `Banking;
      protocol_kind = `Occ;
      accounts = 2;
    }
  in
  with_server config (fun srv ->
      let c = connect srv config in
      ignore (Client.request c (Wire.Hello "occ"));
      ignore (Client.request c (Wire.Begin { name = "t"; timeout_ms = 0 }));
      ignore
        (Client.request c
           (Wire.Call
              { obj = "Account0"; meth = "deposit"; args = [ Value.int 5 ] }));
      (match Client.request c Wire.Commit with
      | Wire.Committed _ -> ()
      | r -> Alcotest.failf "COMMIT: %a" Wire.pp_response r);
      (match Client.request c Wire.Stats with
      | Wire.Stats_json json ->
          let has needle =
            let n = String.length needle in
            let rec go i =
              i + n <= String.length json
              && (String.sub json i n = needle || go (i + 1))
            in
            go 0
          in
          check_bool "occ.validations counted" true
            (has (Ooser_sim.Json.member "occ.validations" (Ooser_sim.Json.Int 1)));
          check_bool "no lock. counters" false (has "\"lock.")
      | r -> Alcotest.failf "STATS: %a" Wire.pp_response r);
      Client.close c)

(* the single engine, then two shards behind the dispatcher *)
let both_backends name f =
  [
    Alcotest.test_case name `Quick (f ~shards:0);
    Alcotest.test_case ("2 shards: " ^ name) `Quick (f ~shards:2);
  ]

let suites =
  [
    ( "server",
      [
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        QCheck_alcotest.to_alcotest prop_response_roundtrip;
        QCheck_alcotest.to_alcotest prop_value_roundtrip;
        QCheck_alcotest.to_alcotest prop_truncation_rejected;
        Alcotest.test_case "explicit value shapes round-trip" `Quick
          test_explicit_roundtrips;
        Alcotest.test_case "framer reassembles a trickled stream" `Quick
          test_framer;
        Alcotest.test_case "session deadline aborts and compensates" `Quick
          test_deadline_expiry;
        Alcotest.test_case "loopback commit end to end" `Quick test_e2e_commit;
        Alcotest.test_case "certify: live O(1) verdict = oracle" `Quick
          test_e2e_certify_live_verdict;
        Alcotest.test_case "durable restart recovers committed state" `Quick
          test_e2e_durable_restart;
        Alcotest.test_case "occ STATS counters under occ." `Quick
          test_e2e_occ_stats;
      ]
      @ both_backends "admission control delays BEGIN"
          test_e2e_admission_backpressure
      @ both_backends "deadline abort over the wire" test_e2e_deadline_over_wire
      @ both_backends "graceful shutdown drains in-flight"
          test_e2e_graceful_shutdown );
  ]
