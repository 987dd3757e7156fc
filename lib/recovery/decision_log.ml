open Ooser_storage

type decision = { top : int; commit : bool; participants : int list }

type t = { mutable sink : Record_log.sink option; mutable appends : int }

let log_file ~dir = Filename.concat dir "decisions.bin"

let encode (d : decision) : string =
  let w = Codec.Writer.create () in
  Codec.Writer.u32 w d.top;
  Codec.Writer.u8 w (if d.commit then 1 else 0);
  Codec.Writer.u16 w (List.length d.participants);
  List.iter (Codec.Writer.u16 w) d.participants;
  Codec.Writer.contents w

let decode (s : string) : decision =
  let r = Codec.Reader.create s in
  let top = Codec.Reader.u32 r in
  let commit = Codec.Reader.u8 r <> 0 in
  let n = Codec.Reader.u16 r in
  let participants = List.init n (fun _ -> Codec.Reader.u16 r) in
  { top; commit; participants }

let open_dir ~dir =
  { sink = Some (Record_log.open_sink (log_file ~dir)); appends = 0 }

(* after [close], appends and forces are no-ops *)
let append t d =
  Option.iter
    (fun sink ->
      Record_log.append sink (encode d);
      t.appends <- t.appends + 1)
    t.sink

let force t = Option.iter Record_log.force t.sink

let close t =
  Option.iter Record_log.close t.sink;
  t.sink <- None

let appends t = t.appends

(* every decision before a torn final frame was forced and stands *)
let load ~dir = Record_log.load (log_file ~dir) decode

let reset ~dir =
  let path = log_file ~dir in
  if Sys.file_exists path then Sys.remove path

(* In-doubt resolution for one shard's log.  An attempt is in doubt when
   it has a [Begin] but neither [Commit] nor [Abort]; a logged commit
   decision for its top promotes it to a winner by appending a synthetic
   [Commit].  The prepare protocol forced the shard log before voting,
   so every call of a prepared attempt is stable whenever the decision
   is — the synthetic commit never commits a half-logged attempt. *)
let resolve ~decisions records =
  let committed_tops =
    List.filter_map (fun d -> if d.commit then Some d.top else None) decisions
  in
  if committed_tops = [] then records
  else begin
    let begun = Hashtbl.create 16 (* top -> latest attempt *) in
    let closed = Hashtbl.create 16 (* (top, attempt) decided in log *) in
    List.iter
      (fun (r : Oplog.record) ->
        match r with
        | Oplog.Begin { top; attempt; _ } ->
            let last =
              match Hashtbl.find_opt begun top with Some a -> a | None -> -1
            in
            if attempt > last then Hashtbl.replace begun top attempt
        | Oplog.Commit { top; attempt } | Oplog.Abort { top; attempt; _ } ->
            Hashtbl.replace closed (top, attempt) ()
        | Oplog.Call _ | Oplog.Subcommit _ -> ())
      records;
    let synthetic =
      List.filter_map
        (fun top ->
          match Hashtbl.find_opt begun top with
          | Some attempt when not (Hashtbl.mem closed (top, attempt)) ->
              Some (Oplog.Commit { top; attempt })
          | _ -> None)
        committed_tops
    in
    records @ synthetic
  end
