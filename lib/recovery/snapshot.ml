(* Logical snapshot: the committed history compacted to one entry per
   winner.

   Taken only at quiescent points (a drained server, or right after a
   completed recovery), where every attempt in the log is decided.  The
   committed projection of the history is certified oo-serializable at
   that point, i.e. equivalent to the serial execution of the winners in
   commit order — which is exactly what restoring from a snapshot does:
   replay each entry's root calls serially, in commit order, through the
   engine.  Aborted attempts have zero net effect (their compensations
   ran) and are dropped.

   Stored as one codec blob through {!Record_log.replace} (temp file,
   fsync, rename, directory fsync), so a crash during checkpointing
   leaves the previous snapshot intact. *)

open Ooser_storage

type entry = {
  top : int;
  attempt : int;  (* final attempt in the source log, for dedup keys *)
  name : string;
  calls : Oplog.invocation list;  (* root-level calls, execution order *)
}

type t = { next_top : int; entries : entry list (* commit order *) }

let empty = { next_top = 1; entries = [] }

let keys t = List.map (fun e -> (e.top, e.attempt)) t.entries

let file ~dir = Filename.concat dir "snapshot.bin"

let encode t =
  let w = Codec.Writer.create () in
  Codec.Writer.u32 w t.next_top;
  Codec.Writer.u32 w (List.length t.entries);
  List.iter
    (fun e ->
      Codec.Writer.u32 w e.top;
      Codec.Writer.u16 w e.attempt;
      Codec.Writer.string w e.name;
      Codec.Writer.u32 w (List.length e.calls);
      List.iter
        (fun inv -> Codec.Writer.lstring w (Oplog.encode_invocation inv))
        e.calls)
    t.entries;
  Codec.Writer.contents w

let decode s =
  let r = Codec.Reader.create s in
  let next_top = Codec.Reader.u32 r in
  let n = Codec.Reader.u32 r in
  let entries =
    List.init n (fun _ ->
        let top = Codec.Reader.u32 r in
        let attempt = Codec.Reader.u16 r in
        let name = Codec.Reader.string r in
        let k = Codec.Reader.u32 r in
        let calls =
          List.init k (fun _ ->
              Oplog.decode_invocation (Codec.Reader.lstring r))
        in
        { top; attempt; name; calls })
  in
  { next_top; entries }

(* [Record_log.replace] fsyncs the directory after its rename, so the
   unlink below cannot reach the disk without the snapshot covering it. *)
let checkpoint ~dir t =
  Record_log.replace (file ~dir) (encode t);
  try Sys.remove (Oplog.log_file ~dir) with Sys_error _ -> ()

(* An undecodable snapshot is fatal, not absent: [checkpoint] unlinked
   the log it covers, so booting empty would drop every winner it
   holds. *)
let load ~dir =
  let path = file ~dir in
  match Record_log.read_file path with
  | None -> None
  | Some raw -> (
      match decode raw with
      | t -> Some t
      | exception Failure msg ->
          failwith (Printf.sprintf "%s: undecodable snapshot (%s)" path msg))
