(* The network transaction server: a single-threaded [Unix.select] event
   loop multiplexing many client sessions onto one transaction backend —
   the effects engine, or the sharded dispatcher in front of several.

   Each connection owns a {!Session.t}; its transaction is submitted to
   the backend on admission and every frame is passed on as it arrives.
   After every batch of socket events the loop pumps the backend to
   quiescence and then flushes responses: call results strictly in call
   order, then the transaction's commit/abort decision once it resolves.

   Admission control: at most [max_inflight] transactions run at once;
   further BEGINs queue FIFO and their [Begun] reply is delayed — the
   delayed response IS the backpressure, since a session cannot proceed
   without its transaction id.

   Graceful shutdown (SHUTDOWN frame or {!initiate_shutdown}): new
   BEGINs are refused, queued admissions are cancelled, in-flight
   transactions get a drain-grace deadline, and the loop exits once the
   last one decides. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Dispatcher = Ooser_shard.Dispatcher
module Engine_stack = Ooser_shard.Engine_stack
module Trace = Ooser_certify.Trace
module Occ = Ooser_occ

type addr = Unix_sock of string | Tcp of int  (* loopback only *)

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let pp_addr ppf = function
  | Unix_sock path -> Fmt.pf ppf "unix:%s" path
  | Tcp port -> Fmt.pf ppf "tcp:127.0.0.1:%d" port

type protocol_kind = [ Engine_stack.lock_kind | `Occ | `Occ_rw ]

let protocol_kind_name = function
  | `Open -> "open"
  | `Flat -> "flat"
  | `Closed -> "closed"
  | `Certify -> "certify"
  | `Occ -> "occ"
  | `Occ_rw -> "occ-rw"

type config = {
  addr : addr;
  db_kind : Engine_stack.db_kind;
  protocol_kind : protocol_kind;
  shards : int;
      (* 0 = classic single-engine path; N >= 1 partitions objects
         across N shard engines, each on its own domain, behind the
         {!Ooser_shard.Dispatcher} *)
  max_inflight : int;  (* admission limit; BEGINs queue beyond it *)
  default_timeout_ms : int;  (* for BEGIN with timeout_ms = 0; 0 = none *)
  drain_grace : float;  (* seconds granted to in-flight txns on shutdown *)
  preload : int;  (* encyclopedia seed keys *)
  fanout : int;
  accounts : int;  (* banking *)
  products : int;  (* inventory *)
  name : string;  (* announced in WELCOME *)
  durable_dir : string option;
      (* journal commits to DIR/oplog.bin; boot recovers DIR and
         checkpoints it into DIR/snapshot.bin *)
  trace_path : string option;
      (* record the committed history to FILE as an offline-certifiable
         trace ({!Ooser_certify.Trace}): single-shard servers stream
         each commit; sharded servers export the merged history at
         drain *)
}

let default_config addr =
  let d = Engine_stack.default in
  {
    addr;
    db_kind = d.db_kind;
    protocol_kind = (d.protocol_kind :> protocol_kind);
    shards = 0;
    max_inflight = 32;
    default_timeout_ms = 0;
    drain_grace = 5.0;
    preload = d.preload;
    fanout = d.fanout;
    accounts = d.accounts;
    products = d.products;
    name = "oosdb";
    durable_dir = None;
    trace_path = None;
  }

type conn = {
  fd : Unix.file_descr;
  framer : Wire.Framer.t;
  session : Session.t;
  mutable out : string;  (* bytes queued for the socket *)
  mutable closing : bool;  (* close once [out] drains *)
  mutable dead : bool;
}

(* What the event loop needs from whatever runs its transactions: the
   single engine (the lock protocols and occ) or the sharded dispatcher.
   The loop never asks which one it holds. *)
type backend = {
  submit : Session.txn -> name:string -> deadline:float option -> unit;
  call : top:int -> obj:string -> meth:string -> args:Value.t list -> unit;
      (* after the call joined the session's log *)
  commit : top:int -> unit;  (* after the log was finished *)
  abort : top:int -> string -> unit;
  result : Session.txn -> int -> (Value.t, string) result option;
  state : int -> [ `Running | `Committed of Value.t | `Aborted of string | `Unknown ];
  retire : int -> unit;
  set_deadline : top:int -> float option -> unit;
  nearest_deadline : unit -> float option;
  wake_fds : Unix.file_descr list;  (* select on these besides the sockets *)
  pump : unit -> unit;  (* run to quiescence, firing expired deadlines *)
  counters : unit -> (string * int) list * (int * (string * int) list) list;
      (* the engine view, and the per-shard breakdown behind it *)
  certified : unit -> bool;
  finish : unit -> unit;  (* at drain: flush, checkpoint, stop *)
}

type t = {
  config : config;
  engine : Engine.t;
  protocol : Protocol.t;
  dispatcher : Dispatcher.t option;
      (* sharded backend; when [Some], [engine]/[protocol] are an inert
         placeholder stack *)
  occ_store : Occ.Store.t option;
      (* the multiversion store behind [protocol] when [protocol_kind]
         is an occ mode *)
  backend : backend;
  metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  mutable next_sid : int;
  mutable next_top : int;
  admit_queue : conn Queue.t;
  mutable inflight : int;
  mutable draining : bool;
  mutable stopped : bool;
  recovery : Engine.recovery_report option;  (* boot report, if durable *)
  rbuf : Bytes.t;
      (* every socket read lands here: one receive buffer for the
         server's lifetime, not a fresh major-heap block per read *)
}

(* -- backends ----------------------------------------------------------------- *)

let stack_config config protocol_kind =
  {
    Engine_stack.db_kind = config.db_kind;
    protocol_kind;
    preload = config.preload;
    fanout = config.fanout;
    accounts = config.accounts;
    products = config.products;
  }

(* The occ backend: the store registers the database's objects itself
   (store-backed methods, model-derived specs), so the whole (db,
   protocol) pair comes from here rather than from {!Engine_stack}.
   Only the banking kind has occ models so far — it is the escrow
   workload the commute-vs-rw abort gap shows up on. *)
let build_occ config =
  (match config.db_kind with
  | `Banking -> ()
  | k ->
      invalid_arg
        (Printf.sprintf "-p occ supports the banking database only (got %s)"
           (Engine_stack.db_kind_name k)));
  if config.shards > 0 then invalid_arg "-p occ does not support --shards";
  if config.durable_dir <> None then
    invalid_arg "-p occ is in-memory only (no --durable)";
  if config.trace_path <> None then
    invalid_arg
      "-p occ does not record execution-order traces (its certifiable \
       history is the store's multiversion order; see STATS certified)";
  let mode =
    match config.protocol_kind with
    | `Occ_rw -> Occ.Store.Rw
    | _ -> Occ.Store.Commute
  in
  Occ.Workloads.setup_banking ~mode ~accounts:config.accounts ~balance:100
    ~low:0 ~high:1_000_000 ()

(* The single engine.  It owns the streaming trace writer and the
   durable journal, and checkpoints at drain. *)
let engine_backend config metrics ~occ_store ~durable engine =
  let trace =
    Option.map
      (fun path ->
        let w =
          Trace.create_writer
            ~registry:(Engine_stack.db_kind_name config.db_kind) path
        in
        Engine.set_trace_sink engine
          (Some
             (fun ~top ~tree ~prims -> Trace.append w { Trace.top; tree; prims }));
        w)
      config.trace_path
  in
  let poke ~top = ignore (Engine.poke engine top) in
  {
    submit =
      (fun tr ~name ~deadline ->
        Engine.submit engine ~top:tr.Session.top ~name ?deadline (Session.body tr));
    call = (fun ~top ~obj:_ ~meth:_ ~args:_ -> poke ~top);
    commit = poke;
    abort = (fun ~top reason -> ignore (Engine.abort_top engine ~top reason));
    result = (fun tr seq -> Call_log.result tr.Session.log seq);
    state = Engine.txn_state engine;
    retire = (fun top -> ignore (Engine.retire engine ~top));
    set_deadline = Engine.set_deadline engine;
    nearest_deadline = (fun () -> Engine.nearest_deadline engine);
    wake_fds = [];
    pump = (fun () -> ignore (Engine.pump engine));
    counters = (fun () -> (Engine.metrics engine, []));
    certified =
      (fun () ->
        match (occ_store, Engine.live_certified engine) with
        | Some store, _ ->
            (* the store's multiversion order, not the engine's raw
               execution order: a snapshot read executes after
               concurrent commits it legitimately did not observe *)
            Serializability.oo_serializable (Occ.Store.history store)
        | None, Some v -> v
        | None, None ->
            Serializability.oo_serializable (Engine.final_history engine));
    finish =
      (fun () ->
        Option.iter
          (fun w ->
            Engine.set_trace_sink engine None;
            Trace.close w)
          trace;
        Option.iter
          (fun d ->
            Engine_stack.checkpoint engine d;
            Metrics.incr metrics "checkpoints")
          durable);
  }

(* Sum per-shard counters key-wise into one merged engine view; the
   per-shard breakdown rides along so imbalance stays visible. *)
let merge_counters per_shard =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (List.iter (fun (k, v) ->
         match Hashtbl.find_opt tbl k with
         | Some r -> r := !r + v
         | None ->
             Hashtbl.add tbl k (ref v);
             order := k :: !order))
    per_shard;
  List.rev_map (fun k -> (k, !(Hashtbl.find tbl k))) !order

(* The sharded dispatcher.  Its shard domains are joined at drain, after
   which no counter or snapshot round can reach them, so [finish] first
   takes the last per-shard counter round and the verdict, and those
   answer every later STATS and [certified]. *)
let dispatcher_backend config d =
  let final = ref None in
  let per_shard () =
    match !final with Some (s, _) -> s | None -> Dispatcher.stats d ()
  in
  {
    submit =
      (fun tr ~name ~deadline ->
        Dispatcher.begin_txn d ~top:tr.Session.top ~name ~deadline);
    call = Dispatcher.call d;
    commit = Dispatcher.commit d;
    abort = (fun ~top reason -> Dispatcher.abort d ~top ~reason);
    result = (fun tr seq -> Dispatcher.result d ~top:tr.Session.top ~seq);
    state = Dispatcher.txn_state d;
    retire = (fun top -> Dispatcher.retire d ~top);
    set_deadline = Dispatcher.set_deadline d;
    nearest_deadline = (fun () -> Dispatcher.nearest_deadline d);
    wake_fds = [ Dispatcher.wake_fd d ];
    pump =
      (fun () ->
        Dispatcher.poll d;
        Dispatcher.check_deadlines d;
        Dispatcher.poll d);
    counters =
      (fun () ->
        let per_shard = per_shard () in
        let flat =
          List.map
            (fun s ->
              s.Dispatcher.engine
              @ List.map (fun (k, v) -> ("lock." ^ k, v)) s.Dispatcher.lock
              @ [ ("cert-depth", s.Dispatcher.cert_depth) ])
            per_shard
        in
        ( merge_counters flat
          @ List.map (fun (k, v) -> ("dispatch." ^ k, v)) (Dispatcher.counters d),
          List.map2 (fun s flat -> (s.Dispatcher.shard, flat)) per_shard flat ));
    certified =
      (fun () ->
        match !final with Some (_, v) -> v | None -> Dispatcher.certified d ());
    finish =
      (fun () ->
        final := Some (Dispatcher.stats d (), Dispatcher.certified d ());
        Option.iter
          (fun path ->
            (* the merged history's objects carry "s%d:" shard prefixes;
               [oosdb certify] resolves the "sharded:" header by wrapping
               the rebuilt database registry with the same renaming *)
            Trace.write_history
              ~registry:("sharded:" ^ Engine_stack.db_kind_name config.db_kind)
              path
              (Dispatcher.merged_history d ()))
          config.trace_path;
        Dispatcher.shutdown d (* checkpoints each shard when durable *));
  }

(* a peer closing mid-write must surface as EPIPE, not kill the process *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let create config =
  ignore_sigpipe ();
  let (parts : Engine_stack.parts), occ_store, dispatcher =
    match config.protocol_kind with
    | `Occ | `Occ_rw ->
        let db, store = build_occ config in
        let protocol = Occ.Store.protocol store in
        let engine_config = Engine_stack.engine_config `Occ protocol in
        ({ db; protocol; engine_config }, Some store, None)
    | #Engine_stack.lock_kind as k when config.shards > 0 ->
        (* an inert placeholder stack; the shards own the data *)
        let db = Database.create () in
        let protocol = Engine_stack.protocol k db in
        let engine_config = Engine_stack.engine_config k protocol in
        ( { db; protocol; engine_config },
          None,
          Some
            (Dispatcher.create
               {
                 Dispatcher.shards = config.shards;
                 stack = stack_config config k;
                 durable_dir = config.durable_dir;
               }) )
    | #Engine_stack.lock_kind as k ->
        (Engine_stack.build (stack_config config k), None, None)
  in
  let engine, durable =
    Engine_stack.start
      ?dir:(if Option.is_none dispatcher then config.durable_dir else None)
      parts
  in
  let listen_fd =
    match config.addr with
    | Unix_sock path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        fd
    | Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd
  in
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let metrics = Metrics.create ~now:(Unix.gettimeofday ()) () in
  let backend, next_top =
    match dispatcher with
    | Some d -> (dispatcher_backend config d, Dispatcher.next_top_floor d)
    | None ->
        ( engine_backend config metrics ~occ_store ~durable engine,
          Option.fold ~none:1 ~some:Engine_stack.next_top durable )
  in
  let recovery = Option.map Engine_stack.boot_report durable in
  if recovery <> None || next_top > 1 then Metrics.incr metrics "recoveries";
  (match recovery with
  | Some r when not r.Engine.recertified ->
      Fmt.epr "oosdb: WARNING: recovered history failed re-certification@."
  | _ -> ());
  {
    config;
    engine;
    protocol = parts.protocol;
    dispatcher;
    occ_store;
    backend;
    metrics;
    listen_fd;
    conns = [];
    next_sid = 0;
    next_top = max 1 next_top;
    admit_queue = Queue.create ();
    inflight = 0;
    draining = false;
    stopped = false;
    recovery;
    rbuf = Bytes.create 65536;
  }

let port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> invalid_arg "Server.port: not a TCP listener"

(* -- responses ---------------------------------------------------------------- *)

let send conn resp =
  if not conn.dead then
    conn.out <- conn.out ^ Wire.frame (Wire.encode_response resp)

(* The phase is left alone: a dead connection's In_txn session still
   owns an admission slot, released by [flush_session] once the abort
   started here resolves. *)
let kill t conn =
  if not conn.dead then begin
    conn.dead <- true;
    match conn.session.Session.phase with
    | Session.In_txn tr -> t.backend.abort ~top:tr.Session.top "client gone"
    | _ -> ()
  end

(* -- observability ------------------------------------------------------------ *)

let certified t = t.backend.certified ()

(* [certified] lets a caller that already ran the (expensive,
   from-scratch) history check pass its verdict in instead of paying for
   a second sweep. *)
let stats_json ?certified:(verdict = None) t =
  let admission =
    [ ("inflight", t.inflight); ("queued", Queue.length t.admit_queue) ]
  in
  let engine, shards = t.backend.counters () in
  let verdict = match verdict with Some _ -> verdict | None -> Some (certified t) in
  Ooser_sim.Json.indented
    (Metrics.to_json ~shards t.metrics ~now:(Unix.gettimeofday ())
       ~engine:(engine @ admission) ~certified:verdict)

(* -- shutdown ----------------------------------------------------------------- *)

let initiate_shutdown t =
  if not t.draining then begin
    t.draining <- true;
    Metrics.incr t.metrics "shutdowns";
    let now = Unix.gettimeofday () in
    let grace = now +. t.config.drain_grace in
    List.iter
      (fun conn ->
        match conn.session.Session.phase with
        | Session.In_txn tr -> t.backend.set_deadline ~top:tr.Session.top (Some grace)
        | Session.Begun_wait _ ->
            (* cancelled: the admission queue is not drained *)
            conn.session.Session.phase <- Session.Idle;
            send conn
              (Wire.Error { code = "shutting-down"; msg = "server draining" })
        | _ -> ())
      t.conns;
    Queue.clear t.admit_queue
  end

(* -- request handling --------------------------------------------------------- *)

let proto_error conn msg = send conn (Wire.Error { code = "protocol"; msg })

let handle_request t conn (req : Wire.request) =
  let session = conn.session in
  match (req, session.Session.phase) with
  | Wire.Hello client, Session.Fresh ->
      session.Session.client <- client;
      session.Session.phase <- Session.Idle;
      send conn
        (Wire.Welcome
           {
             server = t.config.name;
             db = Engine_stack.db_kind_name t.config.db_kind;
             protocol = protocol_kind_name t.config.protocol_kind;
           })
  | Wire.Hello _, _ -> proto_error conn "HELLO already received"
  | _, Session.Fresh -> proto_error conn "HELLO must come first"
  | (Wire.Call _ | Wire.Commit | Wire.Abort _), Session.Dead_txn reason ->
      (* the parked abort of a transaction that died between commands
         answers whatever the client asked of it *)
      session.Session.phase <- Session.Idle;
      send conn (Wire.Aborted reason)
  | Wire.Begin _, _ when t.draining ->
      send conn (Wire.Error { code = "shutting-down"; msg = "server draining" })
  | Wire.Begin { name; timeout_ms }, (Session.Idle | Session.Dead_txn _) ->
      session.Session.phase <- Session.Begun_wait { name; timeout_ms };
      Queue.add conn t.admit_queue;
      Metrics.incr t.metrics "begins"
  | Wire.Begin _, _ -> proto_error conn "transaction already in progress"
  | Wire.Call { obj; meth; args }, Session.In_txn tr ->
      Metrics.incr t.metrics "calls";
      Session.push_call tr ~now:(Unix.gettimeofday ()) (Obj_id.v obj) meth args;
      t.backend.call ~top:tr.Session.top ~obj ~meth ~args
  | Wire.Commit, Session.In_txn tr ->
      if Call_log.finished tr.Session.log then proto_error conn "COMMIT already sent"
      else begin
        Call_log.finish tr.Session.log;
        t.backend.commit ~top:tr.Session.top
      end
  | Wire.Abort reason, Session.In_txn tr ->
      tr.Session.abort_requested <- true;
      t.backend.abort ~top:tr.Session.top reason
  | (Wire.Call _ | Wire.Commit | Wire.Abort _), _ ->
      proto_error conn "no transaction in progress"
  | Wire.Stats, _ -> send conn (Wire.Stats_json (stats_json t))
  | Wire.Shutdown, _ ->
      initiate_shutdown t;
      send conn Wire.Closing
  | Wire.Bye, _ ->
      (match session.Session.phase with
      | Session.In_txn tr -> t.backend.abort ~top:tr.Session.top "client left"
      | _ -> ());
      send conn Wire.Closing;
      conn.closing <- true

(* -- admission ---------------------------------------------------------------- *)

let admit t =
  let admitted = ref 0 in
  while
    t.inflight < t.config.max_inflight && not (Queue.is_empty t.admit_queue)
  do
    let conn = Queue.pop t.admit_queue in
    match conn.session.Session.phase with
    | Session.Begun_wait { name; timeout_ms } when not conn.dead ->
        let now = Unix.gettimeofday () in
        let top = t.next_top in
        t.next_top <- top + 1;
        let ms =
          if timeout_ms > 0 then timeout_ms else t.config.default_timeout_ms
        in
        let deadline =
          if ms > 0 then Some (now +. (float_of_int ms /. 1000.)) else None
        in
        let tr = Session.new_txn ~top ~began:now in
        t.backend.submit tr ~name ~deadline;
        conn.session.Session.phase <- Session.In_txn tr;
        t.inflight <- t.inflight + 1;
        incr admitted;
        send conn (Wire.Begun { top })
    | _ -> ()  (* died or was cancelled while queued *)
  done;
  !admitted

(* -- response flushing -------------------------------------------------------- *)

(* Release call results strictly in call order, then the transaction's
   decision once the engine has one.  A decision frees the admission
   slot; unflushed provisional results are dropped on abort — the single
   [Aborted] frame answers whatever the client still had outstanding. *)
let flush_session t conn =
  match conn.session.Session.phase with
  | Session.In_txn tr ->
      let open Session in
      let continue = ref true in
      while !continue && tr.calls_flushed < tr.calls_sent do
        match t.backend.result tr tr.calls_flushed with
        | Some r ->
            (match Hashtbl.find_opt tr.call_at tr.calls_flushed with
            | Some t0 ->
                Metrics.observe_call t.metrics (Unix.gettimeofday () -. t0)
            | None -> ());
            send conn
              (match r with
              | Ok v -> Wire.Result v
              | Error msg -> Wire.Failed msg);
            tr.calls_flushed <- tr.calls_flushed + 1
        | None -> continue := false
      done;
      (match t.backend.state tr.top with
      | `Committed v ->
          Metrics.incr t.metrics "commits";
          Metrics.observe_commit t.metrics (Unix.gettimeofday () -. tr.began);
          send conn (Wire.Committed v);
          t.backend.retire tr.top;
          t.inflight <- t.inflight - 1;
          conn.session.Session.phase <- Session.Idle
      | `Aborted reason ->
          Metrics.incr t.metrics "aborts";
          Metrics.observe_commit t.metrics (Unix.gettimeofday () -. tr.began);
          t.backend.retire tr.top;
          t.inflight <- t.inflight - 1;
          (* answer the outstanding request if there is one; otherwise
             park the reason — pushing it unsolicited would cross a
             request already in flight and desynchronise the pairing *)
          let outstanding =
            tr.calls_flushed < tr.calls_sent || Call_log.finished tr.log
            || tr.abort_requested
          in
          if outstanding then begin
            send conn (Wire.Aborted reason);
            conn.session.Session.phase <- Session.Idle
          end
          else conn.session.Session.phase <- Session.Dead_txn reason
      | `Running | `Unknown -> ())
  | _ -> ()

(* -- socket events ------------------------------------------------------------ *)

let accept_loop t =
  let again = ref true in
  while !again do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (match t.config.addr with
        | Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
        | Unix_sock _ -> ());
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        Metrics.incr t.metrics "connections";
        t.conns <-
          t.conns
          @ [
              {
                fd;
                framer = Wire.Framer.create ();
                session = Session.create ~sid;
                out = "";
                closing = false;
                dead = false;
              };
            ]
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        again := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let handle_read t conn =
  let buf = t.rbuf in
  let closed = ref false in
  let again = ref true in
  while !again && not !closed do
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | 0 ->
        closed := true;
        again := false
    | n -> Wire.Framer.feed conn.framer (Bytes.sub_string buf 0 n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        again := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        closed := true;
        again := false
  done;
  let popping = ref true in
  while !popping do
    match Wire.Framer.pop conn.framer with
    | Ok (Some payload) -> (
        match Wire.decode_request payload with
        | req -> handle_request t conn req
        | exception Failure msg ->
            send conn (Wire.Error { code = "bad-frame"; msg });
            conn.closing <- true;
            popping := false)
    | Ok None -> popping := false
    | Error msg ->
        send conn (Wire.Error { code = "bad-frame"; msg });
        conn.closing <- true;
        popping := false
  done;
  if !closed then kill t conn

let handle_write t conn =
  if conn.out <> "" then begin
    match
      Unix.write_substring conn.fd conn.out 0 (String.length conn.out)
    with
    | n -> conn.out <- String.sub conn.out n (String.length conn.out - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> kill t conn
  end

(* -- the loop ----------------------------------------------------------------- *)

let reap t =
  List.iter
    (fun conn ->
      let idle =
        match conn.session.Session.phase with
        | Session.In_txn _ -> false
        | _ -> true
      in
      if (conn.dead || (conn.closing && conn.out = "")) && idle then begin
        (try Unix.close conn.fd with Unix.Unix_error _ -> ());
        conn.dead <- true;
        t.conns <- List.filter (fun c -> c != conn) t.conns
      end)
    t.conns

let finish_drain t =
  (* everything decided: tell the remaining clients, flush what the
     kernel will take in one pass, and stop *)
  List.iter
    (fun conn ->
      if not conn.dead then begin
        send conn Wire.Closing;
        handle_write t conn;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)
    t.conns;
  t.conns <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.config.addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  t.backend.finish ();
  t.stopped <- true

let step t ~timeout =
  if t.stopped then ()
  else begin
    let now = Unix.gettimeofday () in
    let timeout =
      match t.backend.nearest_deadline () with
      | Some d -> Float.max 0.0 (Float.min timeout (d -. now +. 0.001))
      | None -> timeout
    in
    let live = List.filter (fun c -> not c.dead) t.conns in
    let rfds = t.backend.wake_fds @ (t.listen_fd :: List.map (fun c -> c.fd) live) in
    let wfds =
      List.filter_map (fun c -> if c.out <> "" then Some c.fd else None) live
    in
    (match Unix.select rfds wfds [] timeout with
    | r, w, _ ->
        if List.mem t.listen_fd r then accept_loop t;
        List.iter (fun c -> if List.mem c.fd r then handle_read t c) live;
        ignore w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* deadlines fire even when no socket event woke us *)
    t.backend.pump ();
    List.iter (fun c -> flush_session t c) t.conns;
    (* freed slots admit queued BEGINs; their first attempt runs to its
       first await immediately *)
    while admit t > 0 do
      t.backend.pump ();
      List.iter (fun c -> flush_session t c) t.conns
    done;
    List.iter (fun c -> if not c.dead then handle_write t c) t.conns;
    reap t;
    if t.draining && t.inflight = 0 && Queue.is_empty t.admit_queue then
      finish_drain t
  end

let running t = not t.stopped

let serve t =
  while running t do
    step t ~timeout:0.1
  done

let close t = if not t.stopped then finish_drain t
let engine t = t.engine
let protocol t = t.protocol
let dispatcher t = t.dispatcher
let occ_store t = t.occ_store
let metrics t = t.metrics
let inflight t = t.inflight
let last_recovery t = t.recovery
