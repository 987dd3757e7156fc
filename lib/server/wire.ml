(* The wire protocol of the transaction server.

   Frames are length-prefixed: a little-endian u32 payload length
   followed by the payload; payloads above [max_frame] are rejected
   before allocation, so a corrupt or hostile peer cannot make the
   server buffer unbounded input.  Frames and values are those of
   [Ooser_recovery.Record_log] — the bytes of a value on the wire are its
   bytes in the operation log — with a tag byte selecting the message
   constructor.

   The protocol is a strict request/response alternation per session:
   every request gets exactly one response, and the server never pushes
   unsolicited frames.  When a transaction dies while its client owes no
   response (a deadline firing between commands), the abort is parked
   and delivered as the answer to the client's next request — pushing it
   eagerly could cross a request already in flight and desynchronise the
   pairing.  Clients must treat [Aborted] answering any in-transaction
   request as the end of that transaction. *)

open Ooser_core
module Codec = Ooser_storage.Codec
module Record_log = Ooser_recovery.Record_log

let max_frame = 16 * 1024 * 1024

(* -- Value.t ----------------------------------------------------------------- *)

let write_values w vs =
  Codec.Writer.u32 w (List.length vs);
  List.iter (Record_log.write_value w) vs

let read_values r =
  let n = Codec.Reader.u32 r in
  List.init n (fun _ -> Record_log.read_value r)

(* -- messages ----------------------------------------------------------------- *)

type request =
  | Hello of string  (* client identification *)
  | Begin of { name : string; timeout_ms : int }  (* 0 = server default *)
  | Call of { obj : string; meth : string; args : Value.t list }
  | Commit
  | Abort of string
  | Stats
  | Shutdown  (* begin graceful shutdown: drain in-flight, then exit *)
  | Bye

type response =
  | Welcome of { server : string; db : string; protocol : string }
  | Begun of { top : int }
  | Result of Value.t  (* the call committed at its level *)
  | Failed of string  (* the call failed softly; the transaction lives *)
  | Committed of Value.t
  | Aborted of string
  | Stats_json of string
  | Error of { code : string; msg : string }
  | Closing

let encode_request (q : request) =
  let w = Codec.Writer.create () in
  (match q with
  | Hello client ->
      Codec.Writer.u8 w 0;
      Codec.Writer.string w client
  | Begin { name; timeout_ms } ->
      Codec.Writer.u8 w 1;
      Codec.Writer.string w name;
      Codec.Writer.i64 w timeout_ms
  | Call { obj; meth; args } ->
      Codec.Writer.u8 w 2;
      Codec.Writer.string w obj;
      Codec.Writer.string w meth;
      write_values w args
  | Commit -> Codec.Writer.u8 w 3
  | Abort reason ->
      Codec.Writer.u8 w 4;
      Codec.Writer.string w reason
  | Stats -> Codec.Writer.u8 w 5
  | Shutdown -> Codec.Writer.u8 w 6
  | Bye -> Codec.Writer.u8 w 7);
  Codec.Writer.contents w

let decode_request s : request =
  let r = Codec.Reader.create s in
  let q =
    match Codec.Reader.u8 r with
    | 0 -> Hello (Codec.Reader.string r)
    | 1 ->
        let name = Codec.Reader.string r in
        let timeout_ms = Codec.Reader.i64 r in
        Begin { name; timeout_ms }
    | 2 ->
        let obj = Codec.Reader.string r in
        let meth = Codec.Reader.string r in
        let args = read_values r in
        Call { obj; meth; args }
    | 3 -> Commit
    | 4 -> Abort (Codec.Reader.string r)
    | 5 -> Stats
    | 6 -> Shutdown
    | 7 -> Bye
    | t -> failwith (Printf.sprintf "Wire: unknown request tag %d" t)
  in
  if not (Codec.Reader.at_end r) then failwith "Wire: trailing request bytes";
  q

let encode_response (p : response) =
  let w = Codec.Writer.create () in
  (match p with
  | Welcome { server; db; protocol } ->
      Codec.Writer.u8 w 0;
      Codec.Writer.string w server;
      Codec.Writer.string w db;
      Codec.Writer.string w protocol
  | Begun { top } ->
      Codec.Writer.u8 w 1;
      Codec.Writer.i64 w top
  | Result v ->
      Codec.Writer.u8 w 2;
      Record_log.write_value w v
  | Failed msg ->
      Codec.Writer.u8 w 3;
      Codec.Writer.lstring w msg
  | Committed v ->
      Codec.Writer.u8 w 4;
      Record_log.write_value w v
  | Aborted reason ->
      Codec.Writer.u8 w 5;
      Codec.Writer.lstring w reason
  | Stats_json s ->
      Codec.Writer.u8 w 6;
      Codec.Writer.lstring w s
  | Error { code; msg } ->
      Codec.Writer.u8 w 7;
      Codec.Writer.string w code;
      Codec.Writer.lstring w msg
  | Closing -> Codec.Writer.u8 w 8);
  Codec.Writer.contents w

let decode_response s : response =
  let r = Codec.Reader.create s in
  let p =
    match Codec.Reader.u8 r with
    | 0 ->
        let server = Codec.Reader.string r in
        let db = Codec.Reader.string r in
        let protocol = Codec.Reader.string r in
        Welcome { server; db; protocol }
    | 1 -> Begun { top = Codec.Reader.i64 r }
    | 2 -> Result (Record_log.read_value r)
    | 3 -> Failed (Codec.Reader.lstring r)
    | 4 -> Committed (Record_log.read_value r)
    | 5 -> Aborted (Codec.Reader.lstring r)
    | 6 -> Stats_json (Codec.Reader.lstring r)
    | 7 ->
        let code = Codec.Reader.string r in
        let msg = Codec.Reader.lstring r in
        Error { code; msg }
    | 8 -> Closing
    | t -> failwith (Printf.sprintf "Wire: unknown response tag %d" t)
  in
  if not (Codec.Reader.at_end r) then failwith "Wire: trailing response bytes";
  p

(* -- framing ----------------------------------------------------------------- *)

let frame payload =
  if String.length payload > max_frame then
    invalid_arg "Wire.frame: payload too large";
  Record_log.frame payload

(* Incremental frame extraction from a byte stream: [feed] appends
   whatever the socket produced to a growable buffer, [pop] yields the
   next complete payload and advances a read offset.  Every byte is
   copied a bounded number of times: the consumed prefix is compacted
   away only once it is at least half the buffer, growth at least
   doubles (or jumps straight to the size the next frame's header
   declares, once that size has passed the [max_frame] check), and a
   fully consumed buffer is reset — and dropped when a large frame grew
   it — so a slow trickle of large frames does not retain the stream. *)
module Framer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable off : int;  (* first unconsumed byte *)
    mutable len : int;  (* end of the buffered bytes *)
    mutable err : string option;
  }

  (* capacity a drained buffer may keep *)
  let keep = 65536

  let create () = { buf = Bytes.empty; off = 0; len = 0; err = None }

  (* declared payload length of the frame at [off], once its header is
     buffered *)
  let header t =
    if t.len - t.off < 4 then None
    else Some (Int32.to_int (Bytes.get_int32_le t.buf t.off) land 0xFFFF_FFFF)

  (* make room for [n] more bytes after [len] *)
  let reserve t n =
    let cap = Bytes.length t.buf and live = t.len - t.off in
    if live + n <= cap && 2 * t.off >= cap then
      Bytes.blit t.buf t.off t.buf 0 live
    else begin
      let frame =
        match header t with Some m when m <= max_frame -> 4 + m | _ -> 0
      in
      let bigger = Bytes.create (max (live + n) (max (2 * cap) frame)) in
      Bytes.blit t.buf t.off bigger 0 live;
      t.buf <- bigger
    end;
    t.off <- 0;
    t.len <- live

  let feed t s =
    let n = String.length s in
    if n > 0 then begin
      if t.len + n > Bytes.length t.buf then reserve t n;
      Bytes.blit_string s 0 t.buf t.len n;
      t.len <- t.len + n
    end

  (* [Stdlib.Error]: the bare constructor would resolve to the wire
     [Error] response above *)
  let pop t : (string option, string) Stdlib.result =
    match (t.err, header t) with
    | Some e, _ -> Stdlib.Error e
    | None, None -> Ok None
    | None, Some n when n > max_frame ->
        t.err <- Some (Printf.sprintf "frame of %d bytes exceeds limit" n);
        Stdlib.Error (Option.get t.err)
    | None, Some n when t.len - t.off < 4 + n -> Ok None
    | None, Some n ->
        let payload = Bytes.sub_string t.buf (t.off + 4) n in
        t.off <- t.off + 4 + n;
        if t.off = t.len then begin
          t.off <- 0;
          t.len <- 0;
          if Bytes.length t.buf > keep then t.buf <- Bytes.empty
        end;
        Ok (Some payload)
end

let pp_request ppf (q : request) =
  match q with
  | Hello c -> Fmt.pf ppf "HELLO %s" c
  | Begin { name; timeout_ms } -> Fmt.pf ppf "BEGIN %s timeout=%dms" name timeout_ms
  | Call { obj; meth; args } ->
      Fmt.pf ppf "CALL %s.%s(%a)" obj meth
        (Fmt.list ~sep:(Fmt.any ", ") Value.pp)
        args
  | Commit -> Fmt.string ppf "COMMIT"
  | Abort r -> Fmt.pf ppf "ABORT %s" r
  | Stats -> Fmt.string ppf "STATS"
  | Shutdown -> Fmt.string ppf "SHUTDOWN"
  | Bye -> Fmt.string ppf "BYE"

let pp_response ppf (p : response) =
  match p with
  | Welcome { server; db; protocol } ->
      Fmt.pf ppf "WELCOME %s db=%s protocol=%s" server db protocol
  | Begun { top } -> Fmt.pf ppf "BEGUN T%d" top
  | Result v -> Fmt.pf ppf "RESULT %a" Value.pp v
  | Failed m -> Fmt.pf ppf "FAILED %s" m
  | Committed v -> Fmt.pf ppf "COMMITTED %a" Value.pp v
  | Aborted r -> Fmt.pf ppf "ABORTED %s" r
  | Stats_json s -> Fmt.pf ppf "STATS %s" s
  | Error { code; msg } -> Fmt.pf ppf "ERROR %s: %s" code msg
  | Closing -> Fmt.string ppf "CLOSING"
