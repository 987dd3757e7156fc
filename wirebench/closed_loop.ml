(* The benchmark's closed-loop client.  It shares one thread with an
   in-process [Server]: each round writes what the sessions owe, runs one
   [Server.step], then reads every reply that arrived.  A session sends
   its next request only after the previous reply (the wire protocol is
   strict request/response), so the loop is closed.

   Built on [Wire] and [Wire.Framer] rather than [Loadgen.run], which
   ends every run with a STATS round that certifies the whole history
   from scratch and returns only a bucketed histogram. *)

module Wire = Ooser_server.Wire
module Server = Ooser_server.Server

type state = Await_welcome | Idle | Await_begun | Await_reply of int | Await_commit

type session = {
  fd : Unix.file_descr;
  framer : Wire.Framer.t;
  mutable out : string;  (* bytes the socket has not taken yet *)
  mutable state : state;
  mutable script : Checks.txn array;
  mutable next : int;  (* index into [script] of the next transaction *)
}

(* Layer attribution, filled only by a traced run. *)
type trace = {
  mutable server_s : float;  (* inside Server.step *)
  mutable client_s : float;  (* the harness's own encode, decode and syscalls *)
  mutable requests : string list;  (* request payloads sent, newest first *)
  mutable responses : string list;  (* response payloads received *)
}

type t = {
  server : Server.t;
  sessions : session array;
  trace : trace option;
  mutable steps : int;  (* Server.step calls *)
  mutable bytes : int;  (* through the client's sockets, both directions *)
  mutable decided : Checks.txn list;  (* this run's, newest first *)
  mutable n_decided : int;
  buf : Bytes.t;
}

let new_trace () = { server_s = 0.0; client_s = 0.0; requests = []; responses = [] }

let now = Unix.gettimeofday

let timed t f x =
  match t.trace with
  | None -> f x
  | Some tr ->
      let t0 = now () in
      let r = f x in
      tr.client_s <- tr.client_s +. (now () -. t0);
      r

let flush t s =
  if s.out <> "" then
    match Unix.write_substring s.fd s.out 0 (String.length s.out) with
    | n ->
        t.bytes <- t.bytes + n;
        s.out <- String.sub s.out n (String.length s.out - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let send t s req =
  timed t
    (fun req ->
      let payload = Wire.encode_request req in
      (match t.trace with Some tr -> tr.requests <- payload :: tr.requests | None -> ());
      s.out <- s.out ^ Wire.frame payload;
      flush t s)
    req

let current s = s.script.(s.next)

let start_txn t s =
  if s.next < Array.length s.script then begin
    (current s).Checks.began <- now ();
    s.state <- Await_begun;
    send t s (Wire.Begin { name = "wb"; timeout_ms = 0 })
  end
  else s.state <- Idle

let finish t s outcome =
  let txn = current s in
  txn.Checks.ended <- now ();
  txn.outcome <- Some outcome;
  t.decided <- txn :: t.decided;
  t.n_decided <- t.n_decided + 1;
  s.next <- s.next + 1;
  start_txn t s

let send_call t s i =
  s.state <- Await_reply i;
  send t s (current s).Checks.calls.(i)

let on_response t s (resp : Wire.response) =
  match (s.state, resp) with
  | Await_welcome, Wire.Welcome _ -> s.state <- Idle
  | Await_begun, Wire.Begun { top } ->
      (current s).Checks.top <- top;
      send_call t s 0
  | Await_reply i, (Wire.Result _ | Wire.Failed _) ->
      let txn = current s in
      txn.Checks.replies.(i) <- Some resp;
      if i + 1 < Array.length txn.calls then send_call t s (i + 1)
      else begin
        s.state <- Await_commit;
        send t s Wire.Commit
      end
  | Await_commit, Wire.Committed _ -> finish t s Checks.Committed
  | (Await_begun | Await_reply _ | Await_commit), Wire.Aborted reason ->
      finish t s (Checks.Aborted reason)
  | (Await_begun | Await_reply _ | Await_commit), resp ->
      finish t s (Checks.Proto_error (Fmt.str "%a" Wire.pp_response resp))
  | (Await_welcome | Idle), resp ->
      failwith (Fmt.str "unexpected reply %a" Wire.pp_response resp)

let receive t s =
  if s.state <> Idle then begin
    let rec read () =
      match Unix.read s.fd t.buf 0 (Bytes.length t.buf) with
      | 0 -> failwith "server closed the connection"
      | n ->
          t.bytes <- t.bytes + n;
          Wire.Framer.feed s.framer (Bytes.sub_string t.buf 0 n);
          if n = Bytes.length t.buf then read ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
    in
    timed t read ();
    let rec pop () =
      match timed t Wire.Framer.pop s.framer with
      | Ok None -> ()
      | Error msg -> failwith ("poisoned reply stream: " ^ msg)
      | Ok (Some payload) ->
          (match t.trace with Some tr -> tr.responses <- payload :: tr.responses | None -> ());
          on_response t s (timed t Wire.decode_response payload);
          pop ()
    in
    pop ()
  end

let step t =
  t.steps <- t.steps + 1;
  match t.trace with
  | None -> Server.step t.server ~timeout:0.0
  | Some tr ->
      let t0 = now () in
      Server.step t.server ~timeout:0.0;
      tr.server_s <- tr.server_s +. (now () -. t0)

(* Rounds until [quiet]; [patience] seconds without a decided
   transaction is a failure. *)
let drive ?(patience = 60.0) t ~quiet =
  let last = ref (now ()) and seen = ref (-1) in
  while not (quiet ()) do
    Array.iter (fun s -> if s.out <> "" then timed t (flush t) s) t.sessions;
    step t;
    Array.iter (receive t) t.sessions;
    if t.n_decided <> !seen then begin
      seen := t.n_decided;
      last := now ()
    end
    else if now () -. !last > patience then failwith "client stalled: no transaction decided"
  done

let connect ?trace server ~socket ~sessions =
  let open_session _ =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Unix.set_nonblock fd;
    { fd; framer = Wire.Framer.create (); out = ""; state = Await_welcome; script = [||]; next = 0 }
  in
  let t =
    {
      server;
      sessions = Array.init sessions open_session;
      trace;
      steps = 0;
      bytes = 0;
      decided = [];
      n_decided = 0;
      buf = Bytes.create 65536;
    }
  in
  Array.iteri (fun i s -> send t s (Wire.Hello (Printf.sprintf "wirebench-%d" i))) t.sessions;
  drive t ~quiet:(fun () -> Array.for_all (fun s -> s.state = Idle) t.sessions);
  t

(* Run every session's script to the end; returns the wall time. *)
let run t scripts =
  Array.iteri
    (fun i s ->
      s.script <- scripts.(i);
      s.next <- 0)
    t.sessions;
  t.decided <- [];
  t.steps <- 0;
  t.bytes <- 0;
  let t0 = now () in
  Array.iter (start_txn t) t.sessions;
  drive t ~quiet:(fun () -> Array.for_all (fun s -> s.state = Idle) t.sessions);
  now () -. t0

(* One transaction on session 0, for the untimed read-backs. *)
let run_one t calls =
  let txn = Checks.txn calls in
  let others = Array.map (fun _ -> [||]) t.sessions in
  others.(0) <- [| txn |];
  ignore (run t others);
  txn

let close t = Array.iter (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ()) t.sessions
