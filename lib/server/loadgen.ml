(* Closed-loop load generator: N concurrent sessions over one
   [Unix.select] loop, each running BEGIN → k CALLs → COMMIT in lock
   step (a session issues its next request only after the previous
   response arrives — the classic closed-loop client model, so offered
   load adapts to server latency).

   The op mix is driven by the deterministic [Ooser_sim] machinery:
   a seeded splitmix64 stream per session and a Zipf distribution over
   the server's preloaded key range, so runs are reproducible.

   After every session finishes, a control connection fetches STATS
   (whose [certified] field is the server's full oo-serializability
   check over everything this run committed) and optionally sends
   SHUTDOWN. *)

module Rng = Ooser_sim.Rng
module Dist = Ooser_sim.Dist
module Stats = Ooser_sim.Stats
module Json = Ooser_sim.Json
module Router = Ooser_shard.Router
open Ooser_core

type cfg = {
  sockaddr : Unix.sockaddr;
  sessions : int;
  txns_per_session : int;
  calls_per_txn : int;
  db_kind : Ooser_shard.Engine_stack.db_kind;  (* shapes the op mix *)
  seed : int;
  timeout_ms : int;  (* BEGIN timeout; 0 = server default *)
  key_universe : int;  (* encyclopedia: the server's preload count *)
  theta : float;  (* Zipf skew over existing keys *)
  accounts : int;
  products : int;
  shutdown : bool;  (* send SHUTDOWN after the run *)
  rate : float;
      (* > 0: open-loop mode — transactions arrive on a global schedule
         of [rate] per second and idle sessions pull the next arrival;
         latency is then measured from the scheduled arrival, so it
         includes any backlog queueing.  0 = classic closed loop. *)
  route_shards : int;
      (* > 0: shard-affine encyclopedia mix — each session homes on
         shard [sid mod route_shards] (same router as the server) and
         picks keys placed there, so its transactions stay single-shard
         except for deliberate excursions *)
  cross : float;  (* probability a routed call targets a foreign shard *)
  trace_path : string option;
      (* record the client-observed committed history to FILE as an
         offline-certifiable trace: each committed transaction becomes
         a flat record of its successful calls, stamped in the order
         their results were observed.  A black-box audit — the server's
         own --trace is the authoritative execution order *)
}

let default_cfg sockaddr =
  {
    sockaddr;
    sessions = 16;
    txns_per_session = 8;
    calls_per_txn = 4;
    db_kind = `Encyclopedia;
    seed = 42;
    timeout_ms = 0;
    key_universe = 200;
    theta = 0.8;
    accounts = 10;
    products = 4;
    shutdown = false;
    rate = 0.0;
    route_shards = 0;
    cross = 0.05;
    trace_path = None;
  }

type result = {
  db : string;
  protocol : string;
  n_sessions : int;
  committed : int;
  aborted : int;
  calls : int;
  failed_calls : int;
  elapsed : float;
  throughput : float;  (* committed transactions per second *)
  latency : Stats.Histogram.t;
      (* seconds to decision, from the BEGIN actually hitting the
         socket (closed loop) or from the scheduled arrival (open
         loop) *)
  offered_rate : float;  (* 0 = closed loop *)
  certified : bool option;  (* None when no STATS round ran *)
  stats_json : string option;
}

(* -- per-session state machine ------------------------------------------------ *)

type sess_state =
  | Awaiting_welcome
  | Idle_wait  (* open loop: between transactions, waiting for an arrival *)
  | Awaiting_begun
  | Awaiting_result of int  (* calls still to issue after this response *)
  | Awaiting_commit
  | Awaiting_closing
  | Done

type sess = {
  sid : int;
  fd : Unix.file_descr;
  framer : Wire.Framer.t;
  rng : Rng.t;
  existing : Dist.t;  (* skewed choice among preloaded keys *)
  home : int;  (* home shard when routing; 0 otherwise *)
  mutable out : string;
  mutable state : sess_state;
  mutable txns_left : int;
  mutable began : float;
  mutable begin_unsent : bool;
      (* closed loop: the BEGIN is still queued; [began] is stamped
         when it actually reaches the socket, so latency measures the
         server, not our own buffering *)
  mutable fresh : int;  (* fresh-key counter for inserts *)
  mutable last_call : (string * string * Value.t list) option;
      (* the in-flight call, stashed for the tracer *)
  mutable observed : (string * string * Value.t list * int) list;
      (* this transaction's successful calls with observation stamps,
         newest first *)
}

type tracer = {
  tw : Ooser_certify.Trace.writer;
  mutable t_stamp : int;  (* global observation counter *)
  mutable t_top : int;  (* client-side transaction numbering *)
}

type acc = {
  mutable committed : int;
  mutable aborted : int;
  mutable calls : int;
  mutable failed_calls : int;
  mutable db : string;
  mutable protocol : string;
  latency : Stats.Histogram.t;
  tracer : tracer option;
}

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* STATS is ours (Metrics through Json): a substring probe for the
   member as Json prints it beats a parser *)
let certified_of_stats j =
  let has b = contains j (Json.member "certified" (Json.Bool b)) in
  if has true then Some true else if has false then Some false else None

let queue_req sess req = sess.out <- sess.out ^ Wire.frame (Wire.encode_request req)

let key_of i = Printf.sprintf "k%05d" i

(* the router the server uses, when shard-affine routing is on *)
let router_of cfg =
  if cfg.route_shards > 0 then Some (Router.create ~shards:cfg.route_shards)
  else None

let on_shard router shard key =
  Router.shard_of_call router ~obj:"Enc" ~args:[ Value.str key ] = shard

(* Zipf-sample a preloaded key; under routing, probe forward from the
   sample until one placed on [shard] comes up (placement is dense
   enough that this terminates quickly). *)
let existing_key cfg router sess ~shard =
  let i0 = Dist.sample sess.rng sess.existing in
  match router with
  | None -> key_of i0
  | Some r ->
      let n = max 1 cfg.key_universe in
      let rec probe d =
        if d >= n then key_of i0
        else
          let k = key_of ((i0 + d) mod n) in
          if on_shard r shard k then k else probe (d + 1)
      in
      probe 0

(* a fresh key the router places on [shard] *)
let fresh_key router sess ~shard =
  let rec go () =
    sess.fresh <- sess.fresh + 1;
    let k = Printf.sprintf "s%02dn%04d" sess.sid sess.fresh in
    match router with
    | None -> k
    | Some r -> if on_shard r shard k then k else go ()
  in
  go ()

let gen_call cfg router sess : Wire.request =
  match cfg.db_kind with
  | `Encyclopedia ->
      (* stay on the home shard, with an occasional deliberate
         cross-shard excursion *)
      let shard =
        match router with
        | None -> 0
        | Some _ ->
            if
              cfg.route_shards > 1
              && Rng.int sess.rng 10_000 < int_of_float (cfg.cross *. 10_000.)
            then
              (sess.home + 1 + Rng.int sess.rng (cfg.route_shards - 1))
              mod cfg.route_shards
            else sess.home
      in
      let pick = Rng.int sess.rng 100 in
      if pick < 30 then
        Wire.Call
          {
            obj = "Enc";
            meth = "insert";
            args = [ Value.str (fresh_key router sess ~shard); Value.str "fresh" ];
          }
      else if pick < 70 then
        Wire.Call
          {
            obj = "Enc";
            meth = "search";
            args = [ Value.str (existing_key cfg router sess ~shard) ];
          }
      else
        Wire.Call
          {
            obj = "Enc";
            meth = "update";
            args =
              [
                Value.str (existing_key cfg router sess ~shard);
                Value.str "updated";
              ];
          }
  | `Banking ->
      let acct () = Rng.int sess.rng cfg.accounts in
      let meth = if Rng.bool sess.rng then "deposit" else "withdraw" in
      Wire.Call
        {
          obj = Printf.sprintf "Account%d" (acct ());
          meth;
          args = [ Value.int (1 + Rng.int sess.rng 5) ];
        }
  | `Inventory ->
      Wire.Call
        {
          obj = "Store";
          meth = "place";
          args =
            [
              Value.str (Printf.sprintf "p%d" (Rng.int sess.rng cfg.products));
              Value.int (1 + Rng.int sess.rng 3);
            ];
        }

let issue_call cfg router acc sess remaining =
  acc.calls <- acc.calls + 1;
  let req = gen_call cfg router sess in
  (match (acc.tracer, req) with
  | Some _, Wire.Call { obj; meth; args } ->
      sess.last_call <- Some (obj, meth, args)
  | _ -> ());
  queue_req sess req;
  sess.state <- Awaiting_result remaining

(* One committed transaction as a flat trace record: root on S, one
   primitive child per successful call, stamped by observation order. *)
let trace_commit tr sess =
  let ops = List.rev sess.observed in
  sess.observed <- [];
  if ops <> [] then begin
    tr.t_top <- tr.t_top + 1;
    let top = tr.t_top in
    let module Trace = Ooser_certify.Trace in
    let root = Ids.Action_id.root top in
    let root_act =
      Action.v ~id:root ~obj:Call_tree.Build.default_sys ~meth:"txn"
        ~process:(Ids.Process_id.main top) ()
    in
    let children =
      List.mapi
        (fun k (obj, meth, args, _) ->
          Call_tree.v
            (Action.v
               ~id:(Ids.Action_id.child root (k + 1))
               ~obj:(Ids.Obj_id.v obj) ~meth ~args
               ~process:(Ids.Process_id.main top) ())
            [])
        ops
    in
    let prims =
      List.mapi (fun k (_, _, _, s) -> (Ids.Action_id.child root (k + 1), s)) ops
    in
    Trace.append tr.tw
      { Trace.top; tree = Call_tree.seq root_act children; prims }
  end

(* [began = 0.0] means "stamp when the BEGIN reaches the socket"
   (closed loop); an open-loop caller passes the scheduled arrival. *)
let begin_txn cfg sess ~began =
  sess.txns_left <- sess.txns_left - 1;
  sess.began <- began;
  sess.begin_unsent <- began = 0.0;
  queue_req sess
    (Wire.Begin
       {
         name = Printf.sprintf "lg%d.%d" sess.sid (sess.txns_left + 1);
         timeout_ms = cfg.timeout_ms;
       });
  sess.state <- Awaiting_begun

let next_txn cfg sess =
  if sess.txns_left > 0 then begin
    if cfg.rate > 0.0 then sess.state <- Idle_wait
    else begin_txn cfg sess ~began:0.0
  end
  else begin
    queue_req sess Wire.Bye;
    sess.state <- Awaiting_closing
  end

let decide acc sess ~ok =
  Stats.Histogram.add acc.latency (Unix.gettimeofday () -. sess.began);
  if ok then acc.committed <- acc.committed + 1
  else acc.aborted <- acc.aborted + 1

let on_response cfg router acc sess (resp : Wire.response) =
  match (resp, sess.state) with
  | Wire.Welcome { db; protocol; _ }, Awaiting_welcome ->
      acc.db <- db;
      acc.protocol <- protocol;
      next_txn cfg sess
  | Wire.Begun _, Awaiting_begun ->
      issue_call cfg router acc sess (cfg.calls_per_txn - 1)
  | (Wire.Result _ | Wire.Failed _), Awaiting_result remaining ->
      (match resp with
      | Wire.Failed _ ->
          acc.failed_calls <- acc.failed_calls + 1;
          (* a failed call's subtransaction rolled back: not part of
             the committed history *)
          sess.last_call <- None
      | _ -> (
          match (acc.tracer, sess.last_call) with
          | Some tr, Some (obj, meth, args) ->
              tr.t_stamp <- tr.t_stamp + 1;
              sess.observed <- (obj, meth, args, tr.t_stamp) :: sess.observed;
              sess.last_call <- None
          | _ -> ()));
      if remaining > 0 then issue_call cfg router acc sess (remaining - 1)
      else begin
        queue_req sess Wire.Commit;
        sess.state <- Awaiting_commit
      end
  | Wire.Committed _, Awaiting_commit ->
      (match acc.tracer with
      | Some tr -> trace_commit tr sess
      | None -> ());
      decide acc sess ~ok:true;
      next_txn cfg sess
  | Wire.Aborted _, (Awaiting_result _ | Awaiting_commit | Awaiting_begun) ->
      (* the engine's decision ends the transaction wherever we were *)
      sess.observed <- [];
      sess.last_call <- None;
      decide acc sess ~ok:false;
      next_txn cfg sess
  | Wire.Error { code = "shutting-down"; _ }, _ ->
      queue_req sess Wire.Bye;
      sess.state <- Awaiting_closing
  | Wire.Closing, _ -> sess.state <- Done
  | resp, _ ->
      failwith
        (Fmt.str "loadgen session %d: unexpected %a" sess.sid Wire.pp_response
           resp)

(* -- the loop ----------------------------------------------------------------- *)

let run ?(tick = fun () -> ()) cfg =
  if cfg.sessions <= 0 then invalid_arg "Loadgen.run: sessions";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let connect sid =
    let fd = Unix.socket (Unix.domain_of_sockaddr cfg.sockaddr) Unix.SOCK_STREAM 0 in
    (try Unix.connect fd cfg.sockaddr
     with e ->
       Unix.close fd;
       raise e);
    Unix.set_nonblock fd;
    (match cfg.sockaddr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
    | _ -> ());
    let rng = Rng.create ~seed:(cfg.seed + (1000 * sid)) in
    let sess =
      {
        sid;
        fd;
        framer = Wire.Framer.create ();
        rng;
        existing = Dist.zipf ~theta:cfg.theta (max 1 cfg.key_universe);
        home = (if cfg.route_shards > 0 then sid mod cfg.route_shards else 0);
        out = "";
        state = Awaiting_welcome;
        txns_left = cfg.txns_per_session;
        began = 0.0;
        begin_unsent = false;
        fresh = 0;
        last_call = None;
        observed = [];
      }
    in
    queue_req sess (Wire.Hello (Printf.sprintf "loadgen-%d" sid));
    sess
  in
  let router = router_of cfg in
  let sessions = List.init cfg.sessions connect in
  let acc =
    {
      committed = 0;
      aborted = 0;
      calls = 0;
      failed_calls = 0;
      db = "?";
      protocol = "?";
      latency = Stats.Histogram.create ();
      tracer =
        (match cfg.trace_path with
        | Some path ->
            Some
              {
                tw =
                  Ooser_certify.Trace.create_writer
                    ~registry:("client:" ^ Ooser_shard.Engine_stack.db_kind_name cfg.db_kind)
                    path;
                t_stamp = 0;
                t_top = 0;
              }
        | None -> None);
    }
  in
  let started = Unix.gettimeofday () in
  let give_up = started +. 300.0 in
  let live () = List.filter (fun s -> s.state <> Done) sessions in
  let flush_out s =
    if s.out <> "" then begin
      match Unix.write_substring s.fd s.out 0 (String.length s.out) with
      | n ->
          s.out <- String.sub s.out n (String.length s.out - n);
          (* the BEGIN is on the wire: latency starts now *)
          if s.begin_unsent && s.out = "" then begin
            s.begin_unsent <- false;
            s.began <- Unix.gettimeofday ()
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> s.state <- Done  (* peer gone *)
    end
  in
  let drain_frames s =
    let popping = ref true in
    while !popping && s.state <> Done do
      match Wire.Framer.pop s.framer with
      | Ok (Some payload) ->
          on_response cfg router acc s (Wire.decode_response payload)
      | Ok None -> popping := false
      | Error msg -> failwith ("loadgen: " ^ msg)
    done
  in
  let buf = Bytes.create 65536 in
  let read_sock s =
    match Unix.read s.fd buf 0 (Bytes.length buf) with
    | 0 -> s.state <- Done  (* server went away *)
    | n ->
        Wire.Framer.feed s.framer (Bytes.sub_string buf 0 n);
        drain_frames s
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  (* open loop: one global Poisson-free (deterministic) arrival
     schedule; each idle session claims the next due arrival *)
  let next_arrival = ref 0 in
  let sched i = started +. (float_of_int i /. cfg.rate) in
  let dispatch_arrivals () =
    if cfg.rate > 0.0 then begin
      let now = Unix.gettimeofday () in
      List.iter
        (fun s ->
          if s.state = Idle_wait && now >= sched !next_arrival then begin
            let began = sched !next_arrival in
            incr next_arrival;
            begin_txn cfg s ~began
          end)
        sessions
    end
  in
  while live () <> [] do
    if Unix.gettimeofday () > give_up then
      failwith "loadgen: run timed out after 300s";
    tick ();
    dispatch_arrivals ();
    let ss = live () in
    let rfds = List.map (fun s -> s.fd) ss in
    let wfds = List.filter_map (fun s -> if s.out <> "" then Some s.fd else None) ss in
    let sel_timeout =
      if cfg.rate > 0.0 && List.exists (fun s -> s.state = Idle_wait) ss then
        Float.max 0.001
          (Float.min 0.05 (sched !next_arrival -. Unix.gettimeofday ()))
      else 0.05
    in
    (match Unix.select rfds wfds [] sel_timeout with
    | r, w, _ ->
        List.iter (fun s -> if List.mem s.fd w then flush_out s) ss;
        List.iter (fun s -> if List.mem s.fd r then read_sock s) ss
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  let elapsed = Unix.gettimeofday () -. started in
  List.iter (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ()) sessions;
  (match acc.tracer with
  | Some tr -> Ooser_certify.Trace.close tr.tw
  | None -> ());
  (* control round: STATS (with the server-side certification verdict),
     then SHUTDOWN when asked *)
  let certified, stats_json =
    let on_wait () =
      tick ();
      Unix.sleepf 0.0005
    in
    match Client.connect ~on_wait cfg.sockaddr with
    | exception Unix.Unix_error _ -> (None, None)
    | c ->
        let fin =
          match Client.request c (Wire.Hello "loadgen-control") with
          | Wire.Welcome _ -> (
              match Client.request c Wire.Stats with
              | Wire.Stats_json j ->
                  (certified_of_stats j, Some j)
              | _ -> (None, None))
          | _ -> (None, None)
        in
        if cfg.shutdown then ignore (Client.request c Wire.Shutdown);
        Client.close c;
        fin
  in
  {
    db = acc.db;
    protocol = acc.protocol;
    n_sessions = cfg.sessions;
    committed = acc.committed;
    aborted = acc.aborted;
    calls = acc.calls;
    failed_calls = acc.failed_calls;
    elapsed;
    throughput = (if elapsed > 0.0 then float_of_int acc.committed /. elapsed else 0.0);
    latency = acc.latency;
    offered_rate = cfg.rate;
    certified;
    stats_json;
  }

let to_json (r : result) =
  Json.(
    Obj
      [ "db", String r.db; "protocol", String r.protocol;
        "sessions", Int r.n_sessions; "txns_committed", Int r.committed;
        "txns_aborted", Int r.aborted; "calls", Int r.calls;
        "failed_calls", Int r.failed_calls; "elapsed_seconds", Float r.elapsed;
        "throughput_txn_per_s", Float r.throughput;
        "mode", String (if r.offered_rate > 0.0 then "open" else "closed");
        "offered_rate_txn_per_s", Float r.offered_rate;
        "latency_seconds", Stats.Histogram.to_json r.latency;
        "certified", opt (fun b -> Bool b) r.certified ])
