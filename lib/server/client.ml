(* A deliberately simple blocking client: one request, one response.
   [recv] spins on a non-blocking socket and calls [on_wait] between
   attempts — a sleep for a remote server, or [Server.step] when the
   server lives in the same process (how the tests drive a full
   client/server exchange single-threaded). *)

type t = {
  fd : Unix.file_descr;
  framer : Wire.Framer.t;
  on_wait : unit -> unit;
  recv_timeout : float;  (* seconds before [recv] gives up *)
  buf : Bytes.t;  (* receive buffer, reused by every [recv] *)
}

let connect ?(on_wait = fun () -> Unix.sleepf 0.001) ?(recv_timeout = 30.0)
    sockaddr =
  (* a server closing mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  (match sockaddr with
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
  | _ -> ());
  {
    fd;
    framer = Wire.Framer.create ();
    on_wait;
    recv_timeout;
    buf = Bytes.create 65536;
  }

let send t req =
  let bytes = Wire.frame (Wire.encode_request req) in
  let len = String.length bytes in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring t.fd bytes !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        t.on_wait ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let recv t =
  let deadline = Unix.gettimeofday () +. t.recv_timeout in
  let buf = t.buf in
  let rec loop () =
    match Wire.Framer.pop t.framer with
    | Ok (Some payload) -> Wire.decode_response payload
    | Error msg -> failwith ("Client: " ^ msg)
    | Ok None -> (
        if Unix.gettimeofday () > deadline then
          failwith "Client: receive timeout";
        match Unix.read t.fd buf 0 (Bytes.length buf) with
        | 0 -> failwith "Client: connection closed"
        | n ->
            Wire.Framer.feed t.framer (Bytes.sub_string buf 0 n);
            loop ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            t.on_wait ();
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

let request t req =
  send t req;
  recv t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
