(* Logical, method-level operation log.

   The engine's only log records its *semantic* history: transaction BEGIN,
   root-level method CALL together with the compensation the method
   registered, subtransaction COMMIT markers, top COMMIT and ABORT.  The
   multi-level recovery discipline (Börger/Schewe/Wang) needs exactly
   this: a committed subtransaction released its locks and cannot be
   undone physically — redo must replay the call through the real engine
   dispatch and undo must invoke the registered compensation.

   The log is append-only.  Appends are buffered; [force] makes the
   prefix stable (and, with a file backend, flushes and fsyncs).
   Exactly the forced prefix survives a crash.  The file backend is a
   {!Record_log} sink, one frame per record; [load] drops a torn final
   frame, which is precisely the unforced suffix a real crash leaves
   behind. *)

open Ooser_core
open Ooser_storage

type lsn = int

type invocation = { obj : Obj_id.t; meth : string; args : Value.t list }

type record =
  | Begin of { top : int; attempt : int; name : string }
  | Call of {
      top : int;
      attempt : int;
      seq : int;  (* child index under the transaction root *)
      inv : invocation;
      comp : invocation option;  (* registered compensation, if Inverse *)
    }
  | Subcommit of {
      top : int;
      attempt : int;
      path : int list;  (* hierarchical action number (Def. 2) *)
      comp : invocation option;
    }
  | Commit of { top : int; attempt : int }
  | Abort of { top : int; attempt : int; reason : string }

type t = {
  mutable entries : record array;  (* growable; entries.(0 .. len-1) *)
  mutable len : int;
  mutable stable_len : int;  (* entries.(0 .. stable_len-1) survive a crash *)
  mutable injector : Crash.t option;
  mutable sink : Record_log.sink option;  (* file backend, until [close] *)
  mutable appends : int;
  mutable forces : int;
}

let log_file ~dir = Filename.concat dir "oplog.bin"

(* -- record serialization ------------------------------------------------------ *)

let write_invocation w { obj; meth; args } =
  Codec.Writer.string w (Obj_id.name obj);
  Codec.Writer.string w meth;
  Codec.Writer.u16 w (List.length args);
  List.iter (Record_log.write_value w) args

let read_invocation r =
  let obj = Obj_id.v (Codec.Reader.string r) in
  let meth = Codec.Reader.string r in
  let n = Codec.Reader.u16 r in
  let args = List.init n (fun _ -> Record_log.read_value r) in
  { obj; meth; args }

let encode_invocation inv =
  let w = Codec.Writer.create () in
  write_invocation w inv;
  Codec.Writer.contents w

let decode_invocation s = read_invocation (Codec.Reader.create s)

let write_opt_invocation w = function
  | None -> Codec.Writer.u8 w 0
  | Some inv ->
      Codec.Writer.u8 w 1;
      write_invocation w inv

let read_opt_invocation r =
  match Codec.Reader.u8 r with 0 -> None | _ -> Some (read_invocation r)

let encode_record record =
  let w = Codec.Writer.create () in
  (match record with
  | Begin { top; attempt; name } ->
      Codec.Writer.u8 w 1;
      Codec.Writer.u32 w top;
      Codec.Writer.u16 w attempt;
      Codec.Writer.string w name
  | Call { top; attempt; seq; inv; comp } ->
      Codec.Writer.u8 w 2;
      Codec.Writer.u32 w top;
      Codec.Writer.u16 w attempt;
      Codec.Writer.u16 w seq;
      write_invocation w inv;
      write_opt_invocation w comp
  | Subcommit { top; attempt; path; comp } ->
      Codec.Writer.u8 w 3;
      Codec.Writer.u32 w top;
      Codec.Writer.u16 w attempt;
      Codec.Writer.u16 w (List.length path);
      List.iter (Codec.Writer.u16 w) path;
      write_opt_invocation w comp
  | Commit { top; attempt } ->
      Codec.Writer.u8 w 4;
      Codec.Writer.u32 w top;
      Codec.Writer.u16 w attempt
  | Abort { top; attempt; reason } ->
      Codec.Writer.u8 w 5;
      Codec.Writer.u32 w top;
      Codec.Writer.u16 w attempt;
      Codec.Writer.string w reason);
  Codec.Writer.contents w

let decode_record s =
  let r = Codec.Reader.create s in
  match Codec.Reader.u8 r with
  | 1 ->
      let top = Codec.Reader.u32 r in
      let attempt = Codec.Reader.u16 r in
      let name = Codec.Reader.string r in
      Begin { top; attempt; name }
  | 2 ->
      let top = Codec.Reader.u32 r in
      let attempt = Codec.Reader.u16 r in
      let seq = Codec.Reader.u16 r in
      let inv = read_invocation r in
      let comp = read_opt_invocation r in
      Call { top; attempt; seq; inv; comp }
  | 3 ->
      let top = Codec.Reader.u32 r in
      let attempt = Codec.Reader.u16 r in
      let n = Codec.Reader.u16 r in
      let path = List.init n (fun _ -> Codec.Reader.u16 r) in
      let comp = read_opt_invocation r in
      Subcommit { top; attempt; path; comp }
  | 4 ->
      let top = Codec.Reader.u32 r in
      let attempt = Codec.Reader.u16 r in
      Commit { top; attempt }
  | 5 ->
      let top = Codec.Reader.u32 r in
      let attempt = Codec.Reader.u16 r in
      let reason = Codec.Reader.string r in
      Abort { top; attempt; reason }
  | k -> failwith (Printf.sprintf "Oplog.decode_record: bad tag %d" k)

(* -- log object ---------------------------------------------------------------- *)

let create ?file () =
  let sink = Option.map Record_log.open_sink file in
  {
    entries = Array.make 64 (Commit { top = 0; attempt = 0 });
    len = 0;
    stable_len = 0;
    injector = None;
    sink;
    appends = 0;
    forces = 0;
  }

let open_dir ~dir = create ~file:(log_file ~dir) ()

let set_injector t inj = t.injector <- inj

let grow t =
  if t.len = Array.length t.entries then begin
    let bigger =
      Array.make (2 * Array.length t.entries) (Commit { top = 0; attempt = 0 })
    in
    Array.blit t.entries 0 bigger 0 t.len;
    t.entries <- bigger
  end

let append t record =
  Crash.point t.injector Crash.Before_append;
  grow t;
  t.entries.(t.len) <- record;
  let lsn = t.len in
  t.len <- t.len + 1;
  t.appends <- t.appends + 1;
  Option.iter (fun sink -> Record_log.append sink (encode_record record)) t.sink;
  Crash.point t.injector Crash.After_append;
  lsn

let force t =
  Option.iter Record_log.force t.sink;
  t.stable_len <- t.len;
  t.forces <- t.forces + 1;
  Crash.point t.injector Crash.After_force

let close t =
  Option.iter Record_log.close t.sink;
  t.sink <- None
let appends t = t.appends
let forces t = t.forces

let all t = Array.to_list (Array.sub t.entries 0 t.len)
let stable t = Array.to_list (Array.sub t.entries 0 t.stable_len)

(* The log as it looks after a crash: only the forced prefix remains. *)
let crash t =
  {
    entries = Array.sub t.entries 0 (max t.stable_len 1);
    len = t.stable_len;
    stable_len = t.stable_len;
    injector = None;
    sink = None;
    appends = t.stable_len;
    forces = 0;
  }

(* An in-memory log holding the given records, all stable — what a
   server sees after [load]. *)
let of_records records =
  let t = create () in
  List.iter (fun r -> ignore (append t r)) records;
  force t;
  t

(* Stable records from a directory's log file: the torn-tail and
   corruption rules are {!Record_log.scan}'s. *)
let load ~dir = Record_log.load (log_file ~dir) decode_record
