(* The one binary record log.

   Every durable or wire-level byte format in the tree is built from the
   pieces here: the [Value.t] codec, the u32-LE length-prefixed frame,
   an append-only framed file sink, and the loader that reads a log image
   back as its decoded stable prefix.  {!Oplog}, {!Decision_log},
   {!Snapshot}, the certify trace and the server wire protocol differ
   only in their record payloads. *)

open Ooser_core
module Codec = Ooser_storage.Codec

(* -- Value.t codec ------------------------------------------------------------ *)

let rec write_value w (v : Value.t) =
  match v with
  | Value.Unit -> Codec.Writer.u8 w 0
  | Value.Bool b ->
      Codec.Writer.u8 w 1;
      Codec.Writer.u8 w (if b then 1 else 0)
  | Value.Int i ->
      Codec.Writer.u8 w 2;
      Codec.Writer.i64 w i
  | Value.Str s ->
      Codec.Writer.u8 w 3;
      Codec.Writer.lstring w s
  | Value.Pair (a, b) ->
      Codec.Writer.u8 w 4;
      write_value w a;
      write_value w b
  | Value.List vs ->
      Codec.Writer.u8 w 5;
      Codec.Writer.u32 w (List.length vs);
      List.iter (write_value w) vs

let rec read_value r : Value.t =
  match Codec.Reader.u8 r with
  | 0 -> Value.Unit
  | 1 -> Value.Bool (Codec.Reader.u8 r <> 0)
  | 2 -> Value.Int (Codec.Reader.i64 r)
  | 3 -> Value.Str (Codec.Reader.lstring r)
  | 4 ->
      let a = read_value r in
      let b = read_value r in
      Value.Pair (a, b)
  | 5 ->
      let n = Codec.Reader.u32 r in
      Value.List (List.init n (fun _ -> read_value r))
  | t -> failwith (Printf.sprintf "Record_log: unknown value tag %d" t)

(* -- framing ------------------------------------------------------------------- *)

let frame payload =
  let w = Codec.Writer.create () in
  Codec.Writer.lstring w payload;
  Codec.Writer.contents w

let frame_at data pos =
  let n = String.length data in
  if pos + 4 > n then None
  else
    let b i = Char.code data.[pos + i] in
    let len = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    if pos + 4 + len > n then None else Some (pos + 4, len)

(* -- file sink ----------------------------------------------------------------- *)

type sink = out_channel

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let open_sink path =
  ensure_dir (Filename.dirname path);
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let append oc payload = output_string oc (frame payload)
let flush = Stdlib.flush

let force oc =
  Stdlib.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let close = close_out

let sync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let replace path data =
  let dir = Filename.dirname path in
  ensure_dir dir;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc data;
      force oc);
  Sys.rename tmp path;
  sync_dir dir

(* -- loading ------------------------------------------------------------------- *)

let read_file path =
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_bin path (fun ic ->
        Some (really_input_string ic (in_channel_length ic)))

(* A complete frame whose payload does not decode is the end of the log
   only if nothing after it decodes either: that is a torn or zero-filled
   tail.  A decodable frame after it means the damage is in the middle of
   the stable prefix, and dropping everything behind it would silently
   lose records that were forced. *)
let scan ?(from = 0) ~name data decode =
  let try_decode (off, len) =
    match decode off len with v -> Some v | exception Failure _ -> None
  in
  let rec spans acc pos =
    match frame_at data pos with
    | None -> List.rev acc
    | Some ((off, len) as s) -> spans (s :: acc) (off + len)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | s :: rest -> (
        match try_decode s with
        | Some v -> go (v :: acc) rest
        | None ->
            if List.exists (fun s -> try_decode s <> None) rest then
              failwith
                (Printf.sprintf "%s: corrupt record at byte offset %d" name
                   (fst s - 4))
            else List.rev acc)
  in
  go [] (spans [] from)

let load path decode =
  match read_file path with
  | None -> []
  | Some data ->
      scan ~name:path data (fun off len -> decode (String.sub data off len))
