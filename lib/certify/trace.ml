open Ooser_core
open Ooser_storage
open Ids
module Record_log = Ooser_recovery.Record_log

let magic = "OOSERTRC"
let version = 2  (* 2: actions carry their execution-time pin *)

type record = {
  top : int;
  tree : Call_tree.t;
  prims : (Action_id.t * int) list;
}

(* ---------- tree codec ---------- *)

(* Action ids inside a record all share the record's top, so only the
   path (and a virtual rank, 0 for real ids) is written. *)
let write_id w id =
  let path = Action_id.path id in
  Codec.Writer.u8 w (List.length path);
  List.iter (Codec.Writer.u32 w) path;
  Codec.Writer.u16 w
    (if Action_id.is_virtual id then
       (* committed trees carry no virtual duplicates (those only appear
          in Def. 5 extensions), but be faithful if one ever does *)
       1
     else 0)

let read_id r ~top =
  let plen = Codec.Reader.u8 r in
  let path = List.init plen (fun _ -> Codec.Reader.u32 r) in
  let rank = Codec.Reader.u16 r in
  let id = Action_id.v ~top ~path in
  if rank = 0 then id else Action_id.virtualize id ~rank

let write_obj w o =
  Codec.Writer.string w (Obj_id.name o);
  Codec.Writer.u16 w (Obj_id.rank o)

let read_obj r =
  let name = Codec.Reader.string r in
  let rank = Codec.Reader.u16 r in
  let o = Obj_id.v name in
  if rank = 0 then o else Obj_id.virtualize o ~rank

let rec write_node w (node : Call_tree.t) =
  let act = node.Call_tree.act in
  write_id w (Action.id act);
  write_obj w (Action.obj act);
  Codec.Writer.string w (Action.meth act);
  Codec.Writer.u16 w (List.length (Action.args act));
  List.iter (Record_log.write_value w) (Action.args act);
  (match Action.pin act with
  | None -> Codec.Writer.u8 w 0
  | Some p ->
      Codec.Writer.u8 w 1;
      Record_log.write_value w p);
  Codec.Writer.u32 w (Process_id.top (Action.process act));
  Codec.Writer.u32 w (Process_id.branch (Action.process act));
  Codec.Writer.u16 w (List.length node.Call_tree.prec);
  List.iter
    (fun (a, b) ->
      Codec.Writer.u32 w a;
      Codec.Writer.u32 w b)
    node.Call_tree.prec;
  Codec.Writer.u32 w (List.length node.Call_tree.children);
  List.iter (write_node w) node.Call_tree.children

let rec read_node r ~top =
  let id = read_id r ~top in
  let obj = read_obj r in
  let meth = Codec.Reader.string r in
  let n_args = Codec.Reader.u16 r in
  let args = List.init n_args (fun _ -> Record_log.read_value r) in
  let pin =
    match Codec.Reader.u8 r with
    | 0 -> None
    | 1 -> Some (Record_log.read_value r)
    | t -> failwith (Printf.sprintf "Trace: bad pin tag %d" t)
  in
  let ptop = Codec.Reader.u32 r in
  let branch = Codec.Reader.u32 r in
  let process = Process_id.v ~top:ptop ~branch in
  let n_prec = Codec.Reader.u16 r in
  let prec =
    List.init n_prec (fun _ ->
        let a = Codec.Reader.u32 r in
        let b = Codec.Reader.u32 r in
        (a, b))
  in
  let n_children = Codec.Reader.u32 r in
  let children = List.init n_children (fun _ -> read_node r ~top) in
  let act = Action.v ~id ~obj ~meth ~args ?pin ~process () in
  Call_tree.v ~prec act children

(* ---------- record codec ---------- *)

let spans prims =
  List.fold_left
    (fun (lo, hi) (_, s) -> (min lo s, max hi s))
    (max_int, min_int) prims

let tree_depth tree =
  Call_tree.fold
    (fun d node -> max d (Action_id.depth (Action.id node.Call_tree.act)))
    0 tree

let encode_record rec_ =
  if rec_.prims = [] then invalid_arg "Trace.encode_record: empty prims";
  let w = Codec.Writer.create () in
  let min_stamp, max_stamp = spans rec_.prims in
  Codec.Writer.u32 w rec_.top;
  Codec.Writer.i64 w min_stamp;
  Codec.Writer.i64 w max_stamp;
  Codec.Writer.u16 w (tree_depth rec_.tree);
  Codec.Writer.u32 w (List.length rec_.prims);
  List.iter
    (fun (id, stamp) ->
      write_id w id;
      Codec.Writer.i64 w stamp)
    rec_.prims;
  write_node w rec_.tree;
  Codec.Writer.contents w

let decode_payload r =
  let top = Codec.Reader.u32 r in
  let _min_stamp = Codec.Reader.i64 r in
  let _max_stamp = Codec.Reader.i64 r in
  let _depth = Codec.Reader.u16 r in
  let n_prims = Codec.Reader.u32 r in
  let prims =
    List.init n_prims (fun _ ->
        let id = read_id r ~top in
        let stamp = Codec.Reader.i64 r in
        (id, stamp))
  in
  let tree = read_node r ~top in
  { top; tree; prims }

let decode_record payload = decode_payload (Codec.Reader.create payload)

(* ---------- writer ---------- *)

type writer = { sink : Record_log.sink; lock : Mutex.t }

let header_payload registry =
  let w = Codec.Writer.create () in
  Codec.Writer.string w magic;
  Codec.Writer.u16 w version;
  Codec.Writer.string w registry;
  Codec.Writer.contents w

let create_writer ?(registry = "unknown") path =
  (try Sys.remove path with Sys_error _ -> ());
  let sink = Record_log.open_sink path in
  Record_log.append sink (header_payload registry);
  { sink; lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let append t rec_ =
  let payload = encode_record rec_ in
  locked t (fun () -> Record_log.append t.sink payload)

let flush t = locked t (fun () -> Record_log.flush t.sink)
let close t = locked t (fun () -> Record_log.close t.sink)

let write_history ?registry path h =
  let w = create_writer ?registry path in
  Fun.protect
    ~finally:(fun () -> close w)
    (fun () ->
      let by_top = Hashtbl.create 256 in
      List.iteri
        (fun i id ->
          let top = Action_id.top id in
          let l =
            match Hashtbl.find_opt by_top top with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace by_top top l;
                l
          in
          l := (id, i) :: !l)
        (History.order h);
      List.iter
        (fun tree ->
          let top = Action_id.top (Action.id (Call_tree.act tree)) in
          match Hashtbl.find_opt by_top top with
          | Some l when !l <> [] -> append w { top; tree; prims = List.rev !l }
          | _ -> ())
        (History.tops h))

(* ---------- reader ---------- *)

type entry = {
  off : int;
  len : int;
  e_top : int;
  n_prims : int;
  min_stamp : int;
  max_stamp : int;
  max_depth : int;
}

type t = { buf : string; registry : string; index : entry array }

(* the fixed header every record frame starts with; a frame too short
   for it does not decode *)
let index_entry buf off len =
  let r = Codec.Reader.create (String.sub buf off (min len 64)) in
  let e_top = Codec.Reader.u32 r in
  let min_stamp = Codec.Reader.i64 r in
  let max_stamp = Codec.Reader.i64 r in
  let max_depth = Codec.Reader.u16 r in
  let n_prims = Codec.Reader.u32 r in
  { off; len; e_top; n_prims; min_stamp; max_stamp; max_depth }

let of_string ?(name = "trace") buf =
  match Record_log.frame_at buf 0 with
  | None -> failwith "Trace: empty or torn header"
  | Some (hoff, hlen) ->
      let hr = Codec.Reader.create (String.sub buf hoff hlen) in
      let m = try Codec.Reader.string hr with Failure _ -> "" in
      if m <> magic then failwith "Trace: bad magic (not a history trace)";
      let v = Codec.Reader.u16 hr in
      if v <> version then
        failwith
          (Printf.sprintf
             "Trace: version %d unsupported (this reader takes %d; traces \
              before 2 lack execution-time pins — re-record them)"
             v version);
      let registry = Codec.Reader.string hr in
      let index =
        Record_log.scan ~from:(hoff + hlen) ~name buf (index_entry buf)
      in
      { buf; registry; index = Array.of_list index }

let load path =
  match Record_log.read_file path with
  | Some buf -> of_string ~name:path buf
  | None -> failwith (Printf.sprintf "Trace: %s: No such file or directory" path)
  | exception Sys_error e -> failwith ("Trace: " ^ e)

let registry_name t = t.registry
let length t = Array.length t.index
let entries t = t.index

let record t i =
  let e = t.index.(i) in
  decode_record (String.sub t.buf e.off e.len)

let to_history t ~commut =
  let n = Array.length t.index in
  let tops = ref [] in
  let order = ref [] in
  for i = n - 1 downto 0 do
    let r = record t i in
    tops := r.tree :: !tops;
    List.iter (fun (id, stamp) -> order := (id, stamp) :: !order) r.prims
  done;
  let tops =
    List.sort
      (fun a b ->
        Int.compare
          (Action_id.top (Action.id (Call_tree.act a)))
          (Action_id.top (Action.id (Call_tree.act b))))
      !tops
  in
  let order =
    List.stable_sort (fun (_, a) (_, b) -> Int.compare a b) !order
    |> List.map fst
  in
  History.v ~tops ~order ~commut
