(* Per-commit cost must not grow with history length.  A commit hands
   validation, certification and the trace sink only its own attempt's
   primitives, and a lock probe only meets the classes held now, so the
   work one transaction does is the same at the 3,000th commit as at the
   first.  Time is too noisy to assert on, so the tests count instead:
   minor-heap words allocated per commit, and on the encyclopedia the
   lock classes each Enc probe visits.  Over the last 500 commits both
   must stay within 1.5x of the first 500.

   Minor words never see a large block: OCaml allocates those straight
   into the major heap, where every major cycle must mark them.  The
   second half of this file gates the serving path on those direct
   major words — the framer, the in-process server's read loop, and
   the buffer pool's page misses. *)

open Ooser_core
open Ooser_oodb
open Ooser_server
module Disk = Ooser_storage.Disk
module Buffer_pool = Ooser_storage.Buffer_pool
module Protocol = Ooser_cc.Protocol
module Lock_table = Ooser_cc.Lock_table
module Store = Ooser_occ.Store
module Workloads = Ooser_occ.Workloads
module Enc_workload = Ooser_workload.Enc_workload
module Rng = Ooser_sim.Rng

let commits = 3000
let window = 500

(* Run [commits] transactions one after another, each submitted, pumped
   to its commit and retired; every meter is a cumulative count, read
   after each commit, whose growth per commit must not rise between the
   first and the last [window] commits. *)
let check_flat ?(ceilings = []) name eng ~meters body =
  let marks = List.map (fun (_, read) -> (read, Array.make (commits + 1) 0.)) meters in
  List.iter (fun (read, a) -> a.(0) <- read ()) marks;
  for top = 1 to commits do
    Engine.submit eng ~top ~name (body top);
    ignore (Engine.pump eng);
    (match Engine.txn_state eng top with
    | `Committed _ -> ()
    | _ -> Alcotest.failf "%s: transaction %d did not commit" name top);
    ignore (Engine.retire eng ~top);
    List.iter (fun (read, a) -> a.(top) <- read ()) marks
  done;
  List.iter2
    (fun (what, _) (_, a) ->
      let per lo hi = (a.(hi) -. a.(lo)) /. float_of_int (hi - lo) in
      let first = per 0 window and last = per (commits - window) commits in
      if last > 1.5 *. first then
        Alcotest.failf "%s: %.1f %s per commit over the last %d commits, %.1f over the first"
          name last what window first;
      match List.assoc_opt what ceilings with
      | Some ceiling when per 0 commits > ceiling ->
          Alcotest.failf "%s: %.1f %s per commit, above the ceiling of %.0f" name
            (per 0 commits) what ceiling
      | _ -> ())
    meters marks

let test_occ_banking () =
  let accounts = 8 in
  let db, store =
    Workloads.setup_banking ~mode:Store.Commute ~accounts ~balance:500_000 ()
  in
  let eng = Engine.create db ~protocol:(Store.protocol store) in
  let rng = Rng.create ~seed:11 in
  check_flat "occ banking" eng
    ~meters:[ ("minor words", Gc.minor_words) ]
    (fun _ ctx ->
      for _ = 1 to 4 do
        let meth = if Rng.bool rng then "deposit" else "withdraw" in
        ignore
          (Runtime.call ctx
             (Workloads.account_obj (Rng.int rng accounts))
             meth
             [ Value.int (1 + Rng.int rng 5) ])
      done;
      Value.unit)

let test_open_encyclopedia () =
  let rng = Rng.create ~seed:12 in
  let params =
    { Enc_workload.default_params with Enc_workload.n_txns = 0; preload = 1000 }
  in
  (* a wide fanout keeps the B-tree's depth, and with it the page work
     per call, nearly constant while 3,000 keys are added *)
  let db, enc, _ = Enc_workload.setup ~fanout:16 ~rng params in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let table = Option.get (Protocol.table protocol) in
  let eng = Engine.create db ~protocol in
  (* the trace recorder is on the commit path of a traced server *)
  Engine.set_trace_sink eng (Some (fun ~top:_ ~tree:_ ~prims:_ -> ()));
  let obj = Encyclopedia.enc_object enc in
  let probed = ref 0 in
  let call ctx meth args =
    probed := !probed + Lock_table.classes table obj;
    ignore (Runtime.call ctx obj meth args)
  in
  let key () = Enc_workload.key_of (Rng.int rng 1000) in
  (* An absolute ceiling besides the flatness check: the invocation path
     (hashed object lookup, memo-free lock probes, LRU-list eviction)
     allocates 21,945 minor words per commit here, and 31,097 before it;
     the ceiling is the former plus 10%. *)
  check_flat "open encyclopedia" eng
    ~ceilings:[ ("minor words", 24_140.) ]
    ~meters:
      [
        ("minor words", Gc.minor_words);
        ("lock classes probed on Enc", fun () -> float_of_int !probed);
      ]
    (fun top ctx ->
      (* every transaction inserts a fresh key: a lock class on Enc that
         no later transaction asks for again *)
      call ctx "insert"
        [ Value.str (Printf.sprintf "%s.%d" (key ()) top); Value.str "fresh" ];
      call ctx "search" [ Value.str (key ()) ];
      call ctx "update" [ Value.str (key ()); Value.str "updated" ];
      Value.unit)

(* The work a blocked lock request costs.  This is the engine run of
   [oosdb run -n 60 -p open] (encyclopedia, seed 1, random picks): 60
   concurrent transactions, 269 waits.  A blocked request is asked
   again only when its answer could have changed, so the lock table
   sees about two requests per grant; asking every blocked request again
   on every engine step made 270,001 requests for 4,076 grants.  The
   commits, steps and waits pin the schedule, which the rule must not
   change. *)
let test_open_requests_per_grant () =
  let params =
    {
      Enc_workload.default_params with
      Enc_workload.n_txns = 60;
      mix = Enc_workload.insert_heavy;
    }
  in
  let db, _, bodies = Enc_workload.setup ~fanout:8 ~rng:(Rng.create ~seed:1) params in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let config =
    { (Engine.default_config protocol) with Engine.strategy = Engine.Random_pick (Rng.create ~seed:2) }
  in
  let out = Engine.run ~config db ~protocol bodies in
  let metric k = try List.assoc k out.Engine.metrics with Not_found -> 0 in
  Alcotest.(check int) "commits" 60 (metric "commits");
  Alcotest.(check int) "steps" 12_348 out.Engine.steps;
  Alcotest.(check int) "waits" 269 (metric "waits");
  let requests = metric "lock.requests" and grants = metric "lock.grants" in
  if requests > 3 * grants then
    Alcotest.failf "%d lock requests for %d grants: more than 3 per grant" requests grants

(* -- large blocks on the serving path ------------------------------------------ *)

(* Words allocated directly in the major heap: [major_words] counts
   promoted words too.  [Gc.quick_stat] folds in a domain's allocation
   at its minor collections, so force one to read an exact count. *)
let direct_major_words () =
  Gc.minor ();
  let g = Gc.quick_stat () in
  g.Gc.major_words -. g.Gc.promoted_words

let direct_major_of f =
  let before = direct_major_words () in
  f ();
  direct_major_words () -. before

let word_bytes = Sys.word_size / 8

(* The framer copies each byte a bounded number of times, so a stream's
   direct major allocation stays within a small multiple of its own
   size however it is cut into reads. *)
let test_framer_bounded_copies () =
  let framed what stream run =
    let f = Wire.Framer.create () in
    let spent = direct_major_of (fun () -> run f) in
    let words = float_of_int (String.length stream / word_bytes) in
    if spent > 3. *. words then
      Alcotest.failf "%s: %.0f direct major words for a %.0f-word stream" what
        spent words
  in
  let pop_exn f =
    match Wire.Framer.pop f with
    | Ok (Some p) -> p
    | Ok None -> Alcotest.fail "frame incomplete"
    | Error e -> Alcotest.fail e
  in
  (* one frame of the largest accepted size, fed in 64 KB reads *)
  let big = String.make Wire.max_frame 'x' in
  let stream = Wire.frame big in
  let read = 65536 in
  let reads =
    List.init
      ((String.length stream + read - 1) / read)
      (fun i ->
        String.sub stream (i * read) (min read (String.length stream - (i * read))))
  in
  let got = ref "" in
  framed "one 16 MB frame in 64 KB reads" stream (fun f ->
      List.iter
        (fun r ->
          Wire.Framer.feed f r;
          match Wire.Framer.pop f with
          | Ok None -> ()
          | Ok (Some p) -> got := p
          | Error e -> Alcotest.fail e)
        reads);
  Alcotest.(check bool) "large payload intact" true (!got = big);
  (* 10,000 pipelined 5-byte frames arriving in one read *)
  let n = 10_000 in
  let payload i = Printf.sprintf "%05d" i in
  let stream = String.concat "" (List.init n (fun i -> Wire.frame (payload i))) in
  let popped = Array.make n "" in
  framed "10,000 pipelined frames in one read" stream (fun f ->
      Wire.Framer.feed f stream;
      for i = 0 to n - 1 do
        popped.(i) <- pop_exn f
      done;
      match Wire.Framer.pop f with
      | Ok None -> ()
      | _ -> Alcotest.fail "bytes left after the last frame");
  Array.iteri
    (fun i p -> Alcotest.(check string) "pipelined payload" (payload i) p)
    popped

(* The in-process server over a Unix socket, driven by a client that
   steps it while it waits: a bank-occ transaction (BEGIN, four escrow
   calls, COMMIT) must not allocate a large block per socket read. *)
let test_server_major_words () =
  let path = Filename.temp_file "oosdb_flat" ".sock" in
  Sys.remove path;
  let config =
    {
      (Server.default_config (Server.Unix_sock path)) with
      Server.db_kind = `Banking;
      protocol_kind = `Occ;
      accounts = 64;
    }
  in
  let srv = Server.create config in
  Fun.protect
    ~finally:(fun () -> Server.close srv)
    (fun () ->
      let c =
        Client.connect
          ~on_wait:(fun () -> Server.step srv ~timeout:0.005)
          ~recv_timeout:10.0
          (Server.sockaddr_of config.Server.addr)
      in
      let rng = Rng.create ~seed:13 in
      let expect what ok req =
        let r = Client.request c req in
        if not (ok r) then Alcotest.failf "%s: %a" what Wire.pp_response r
      in
      let txn () =
        expect "BEGIN"
          (function Wire.Begun _ -> true | _ -> false)
          (Wire.Begin { name = "t"; timeout_ms = 0 });
        for _ = 1 to 4 do
          expect "CALL"
            (function Wire.Result _ | Wire.Failed _ -> true | _ -> false)
            (Wire.Call
               {
                 obj = Printf.sprintf "Account%d" (Rng.int rng 64);
                 meth = (if Rng.bool rng then "deposit" else "withdraw");
                 args = [ Value.int (1 + Rng.int rng 5) ];
               })
        done;
        expect "COMMIT" (function Wire.Committed _ -> true | _ -> false) Wire.Commit
      in
      expect "HELLO" (function Wire.Welcome _ -> true | _ -> false) (Wire.Hello "flat");
      for _ = 1 to 200 do txn () done;
      let txns = 2000 in
      let spent = direct_major_of (fun () -> for _ = 1 to txns do txn () done) in
      Client.close c;
      let per = spent /. float_of_int txns in
      if per > 1000. then
        Alcotest.failf "bank-occ over the wire: %.0f direct major words per transaction"
          per)

(* An encyclopedia four times larger than its buffer pool: past
   warm-up, every page miss reads into an evicted frame's bytes, so a
   disk read costs far less than the page image it moves. *)
let test_enc_pool_misses () =
  let db = Database.create () in
  let enc = Encyclopedia.create ~fanout:4 ~pool_capacity:32 db in
  Enc_workload.preload db enc ~keys:400;
  let disk = Buffer_pool.disk (Encyclopedia.pool enc) in
  let pages = Disk.page_count disk in
  if pages < 4 * 32 then Alcotest.failf "only %d pages for a 32-frame pool" pages;
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let eng = Engine.create db ~protocol in
  let rng = Rng.create ~seed:14 in
  let obj = Encyclopedia.enc_object enc in
  let run first last =
    for top = first to last do
      Engine.submit eng ~top ~name:"enc" (fun ctx ->
          let key () = Value.str (Enc_workload.key_of (Rng.int rng 400)) in
          ignore (Runtime.call ctx obj "search" [ key () ]);
          ignore (Runtime.call ctx obj "update" [ key (); Value.str "updated" ]);
          Value.unit);
      ignore (Engine.pump eng);
      (match Engine.txn_state eng top with
      | `Committed _ -> ()
      | _ -> Alcotest.failf "encyclopedia: transaction %d did not commit" top);
      ignore (Engine.retire eng ~top)
    done
  in
  run 1 200;
  let reads0 = Disk.reads disk in
  let spent = direct_major_of (fun () -> run 201 1200) in
  let reads = Disk.reads disk - reads0 in
  if reads < 1000 then Alcotest.failf "only %d disk reads: the pool never filled" reads;
  let per = spent /. float_of_int reads in
  if per >= 64. then
    Alcotest.failf "%.0f direct major words per disk read (%d reads)" per reads

let suites =
  [
    ( "flat-cost",
      [
        Alcotest.test_case "occ banking: words per commit stay flat" `Quick
          test_occ_banking;
        Alcotest.test_case "open encyclopedia: words and probes stay flat"
          `Quick test_open_encyclopedia;
        Alcotest.test_case "open encyclopedia: lock requests per grant" `Quick
          test_open_requests_per_grant;
        Alcotest.test_case "framer: bounded copies per byte" `Quick
          test_framer_bounded_copies;
        Alcotest.test_case "server: direct major words per transaction" `Quick
          test_server_major_words;
        Alcotest.test_case "buffer pool: direct major words per disk read"
          `Quick test_enc_pool_misses;
      ] );
  ]
