(* The encyclopedia of §2 (Fig. 2), as an object database.

   Enc ──▶ BpTree ──▶ Node/Leaf objects ──▶ Page objects
     └───▶ LinkedList ──▶ Item objects ──▶ Page objects

   Every B+ tree node is one object backed by one page object; item texts
   are co-located in the free slots of leaf pages, so a leaf and an item
   can collide on one page exactly as Leaf11 and Item8 collide on Page4712
   in Fig. 7.  Method-level commutativity follows Example 1: inserts of
   different keys commute at the node level even when their page accesses
   conflict; readSeq conflicts with inserts and updates (the phantom);
   route/rearrange commute thanks to the B-link discipline (§2, [15]).

   Mutating node methods read their page in update mode ([readx], a
   write-classified read) to avoid the classic r-r/w-w lock upgrade
   deadlock. *)

open Ooser_core
open Ooser_storage
module Node = Ooser_btree.Node

type t = {
  db : Database.t;
  pool : Buffer_pool.t;
  fanout : int;
  enc : Obj_id.t;
  bptree : Obj_id.t;
  linkedlist : Obj_id.t;
  mutable root : Disk.page_id;
  mutable item_counter : int;
  item_objs : (string, Obj_id.t) Hashtbl.t;  (* schema: item name -> object *)
  mutable items : string list;  (* linked list content, newest first *)
}

let page_obj pid = Obj_id.v (Printf.sprintf "Page%d" pid)

let node_obj node pid =
  match Node.kind node with
  | Node.Leaf -> Obj_id.v (Printf.sprintf "Leaf%d" pid)
  | Node.Internal -> Obj_id.v (Printf.sprintf "Node%d" pid)

let item_obj name = Obj_id.v ("Item" ^ name)

(* -- page objects ------------------------------------------------------------ *)

let page_spec =
  Commutativity.rw ~reads:[ "read" ] ~writes:[ "readx"; "write"; "insert"; "delete" ]

let str_arg = function
  | Value.Str s :: _ -> s
  | _ -> invalid_arg "expected string argument"

let register_page t pid =
  let read _ctx args =
    let slot = match args with [ Value.Int s ] -> s | _ -> 0 in
    Buffer_pool.with_page t.pool pid ~f:(fun page ->
        (Value.str (Page.get_exn page slot), false))
  in
  let write ctx args =
    match args with
    | [ Value.Int slot; Value.Str data ] ->
        Buffer_pool.with_page t.pool pid ~f:(fun page ->
            if Page.is_live page slot then begin
              let old = Page.get_exn page slot in
              Runtime.on_undo ctx (fun () ->
                  Buffer_pool.with_page t.pool pid ~f:(fun page ->
                      (ignore (Page.update page slot old), true)));
              if not (Page.update page slot data) then
                failwith "page write: does not fit";
              (Value.unit, true)
            end
            else begin
              (match Page.insert page data with
              | Some s when s = slot -> ()
              | Some s ->
                  Fmt.failwith "page write: expected slot %d, got %d" slot s
              | None -> failwith "page write: full");
              Runtime.on_undo ctx (fun () ->
                  Buffer_pool.with_page t.pool pid ~f:(fun page ->
                      (ignore (Page.delete page slot), true)));
              (Value.unit, true)
            end)
    | _ -> invalid_arg "page write: bad arguments"
  in
  let insert ctx args =
    let data = str_arg args in
    Buffer_pool.with_page t.pool pid ~f:(fun page ->
        match Page.insert page data with
        | Some slot ->
            Runtime.on_undo ctx (fun () ->
                Buffer_pool.with_page t.pool pid ~f:(fun page ->
                    (ignore (Page.delete page slot), true)));
            (Value.int slot, true)
        | None -> failwith "page insert: full")
  in
  let delete ctx args =
    match args with
    | [ Value.Int slot ] ->
        Buffer_pool.with_page t.pool pid ~f:(fun page ->
            (match Page.get page slot with
            | Some old ->
                Runtime.on_undo ctx (fun () ->
                    Buffer_pool.with_page t.pool pid ~f:(fun page ->
                        (ignore (Page.write_at page slot old), true)))
            | None -> ());
            (Value.bool (Page.delete page slot), true))
    | _ -> invalid_arg "page delete: bad arguments"
  in
  Database.register_or_replace t.db (page_obj pid) ~spec:page_spec
    [
      ("read", Database.primitive read);
      ("readx", Database.primitive read);
      ("write", Database.primitive write);
      ("insert", Database.primitive insert);
      ("delete", Database.primitive delete);
    ]

(* -- node objects ------------------------------------------------------------- *)

(* Keyed commutativity at node level (Example 1): entry operations on
   different keys commute; route is a structure read that commutes with
   everything except nothing—B-links make descents tolerant of concurrent
   splits; rearrange conflicts with rearrange. *)
let node_spec =
  let keyed =
    Commutativity.by_key ~key_of:Commutativity.first_arg
      (Commutativity.predicate ~stable:true ~name:"node-keyed" (fun a b ->
           match (Action.meth a, Action.meth b) with
           | "search", "search" -> true
           | ("search" | "insert" | "delete"), ("search" | "insert" | "delete")
             -> false
           | _ -> false))
  in
  Commutativity.predicate ~stable:true ~name:"btree-node"
    ~vocab:[ "route"; "search"; "insert"; "delete"; "entriesFrom"; "rearrange" ]
    (fun a b ->
      match (Action.meth a, Action.meth b) with
      | "route", _ | _, "route" -> true
      | "entriesFrom", ("entriesFrom" | "search")
      | "search", "entriesFrom" -> true
      | "entriesFrom", _ | _, "entriesFrom" -> false  (* node-level phantom *)
      | "rearrange", "rearrange" -> false
      | "rearrange", _ | _, "rearrange" -> false
      | _ -> Commutativity.test keyed a b)

let encode_value node = Value.str (Node.encode node)

let rec register_node t pid node =
  let self = node_obj node pid in
  let page = page_obj pid in
  let read_node ctx ~update =
    let meth = if update then "readx" else "read" in
    Node.decode (Value.to_str_exn (Runtime.call ctx page meth [ Value.int 0 ]))
  in
  let write_node ctx n =
    ignore (Runtime.call ctx page "write" [ Value.int 0; encode_value n ])
  in
  (* allocate a page + object for a fresh node produced by a split *)
  let materialise ctx n =
    let npid = Buffer_pool.alloc t.pool in
    register_page t npid;
    register_node t npid n;
    (* initial image written through the engine so the write is an action *)
    ignore
      (Runtime.call ctx (page_obj npid) "write" [ Value.int 0; encode_value n ]);
    npid
  in
  let split_result sep npid =
    Value.list [ Value.str sep; Value.int npid ]
  in
  let route ctx args =
    let key = str_arg args in
    let n = read_node ctx ~update:false in
    match Node.kind n with
    | Node.Leaf ->
        if Node.covers n key then Value.pair (Value.str "leaf") (Value.int pid)
        else (
          match Node.right_link n with
          | Some r -> Value.pair (Value.str "right") (Value.int r)
          | None -> Value.pair (Value.str "leaf") (Value.int pid))
    | Node.Internal -> (
        match Node.route n key with
        | Node.Child c -> Value.pair (Value.str "child") (Value.int c)
        | Node.Follow_right r -> Value.pair (Value.str "right") (Value.int r))
  in
  (* B-link discipline: a key at or beyond the node's high key has moved
     to the right sibling (a concurrent split); forward the operation. *)
  let forward ctx n meth args =
    match Node.right_link n with
    | Some rpid ->
        Some (Runtime.call ctx (node_obj n rpid) meth args)
    | None -> None
  in
  let search ctx args =
    let key = str_arg args in
    let n = read_node ctx ~update:false in
    if not (Node.covers n key) then
      match forward ctx n "search" args with
      | Some v -> v
      | None -> Value.pair (Value.str "missing") Value.unit
    else
      match Node.find n key with
      | Some v -> Value.pair (Value.str "found") (Value.str v)
      | None -> Value.pair (Value.str "missing") Value.unit
  in
  let insert ctx args =
    match args with
    | [ Value.Str key; Value.Str v ] -> (
        let n0 = read_node ctx ~update:true in
        if not (Node.covers n0 key) then
          match forward ctx n0 "insert" args with
          | Some r -> r
          | None -> failwith "leaf insert: key beyond rightmost leaf"
        else
          let n = Node.insert n0 key v in
          if Node.size n <= t.fanout then begin
            write_node ctx n;
            Value.unit
          end
          else begin
            let make_left, sep, right = Node.split_leaf n in
            let npid = materialise ctx right in
            write_node ctx (make_left npid);
            split_result sep npid
          end)
    | _ -> invalid_arg "leaf insert: bad arguments"
  in
  let delete ctx args =
    let key = str_arg args in
    let n = read_node ctx ~update:true in
    if not (Node.covers n key) then
      match forward ctx n "delete" args with
      | Some v -> v
      | None -> Value.bool false
    else
      match Node.delete n key with
      | Some n ->
          write_node ctx n;
          Value.bool true
      | None -> Value.bool false
  in
  (* first entry with key strictly greater than the argument; directs the
     caller to the right sibling when this node is exhausted *)
  let entries_from ctx args =
    let key = str_arg args in
    let n = read_node ctx ~update:false in
    match
      List.find_opt (fun (k, _) -> k > key) (Node.entries n)
    with
    | Some (k, v) ->
        Value.pair (Value.str "entry")
          (Value.pair (Value.str k) (Value.str v))
    | None -> (
        match Node.right_link n with
        | Some r -> Value.pair (Value.str "right") (Value.int r)
        | None -> Value.pair (Value.str "end") Value.unit)
  in
  let rearrange ctx args =
    match args with
    | [ Value.Str sep; Value.Int child ] ->
        let n =
          Node.add_separator (read_node ctx ~update:true) ~key:sep ~child
        in
        if Node.size n <= t.fanout then begin
          write_node ctx n;
          Value.unit
        end
        else begin
          let make_left, sep', right = Node.split_internal n in
          let npid = materialise ctx right in
          write_node ctx (make_left npid);
          split_result sep' npid
        end
    | _ -> invalid_arg "rearrange: bad arguments"
  in
  (* open nesting: once a leaf insert committed at its level, its page
     locks are gone and before-images are unsound; compensate logically
     with a delete of the same key.  Structure modifications (rearrange)
     persist, as in real index managers. *)
  let compensate_insert args _result =
    match args with
    | Value.Str key :: _ ->
        Database.Inverse
          { Runtime.target = self; meth_name = "delete"; args = [ Value.str key ] }
    | _ -> Database.Keep_undo
  in
  let forget _ _ = Database.Forget in
  Database.register_or_replace t.db self ~spec:node_spec
    [
      ("route", Database.composite route);
      ("search", Database.composite search);
      ("insert", Database.composite ~compensate:compensate_insert insert);
      ("delete", Database.composite delete);
      ("entriesFrom", Database.composite entries_from);
      ("rearrange", Database.composite ~compensate:forget rearrange);
    ]

(* A leaf may split and change from Leaf<pid> to ... it keeps its page and
   kind, so the object identity is stable; only fresh pages get fresh
   objects. *)

(* -- the BpTree object ---------------------------------------------------------- *)

let bptree_spec =
  let keyed =
    Commutativity.by_key ~key_of:Commutativity.first_arg
      (Commutativity.predicate ~stable:true ~name:"bptree-keyed" (fun a b ->
           match (Action.meth a, Action.meth b) with
           | "search", "search" -> true
           | _ -> false))
  in
  Commutativity.predicate ~stable:true ~name:"bptree"
    ~vocab:[ "search"; "insert"; "delete"; "next"; "grow" ]
    (fun a b ->
      match (Action.meth a, Action.meth b) with
      | "grow", "grow" -> false
      | "grow", _ | _, "grow" -> true  (* B-link root growth tolerance *)
      | "next", ("next" | "search") | "search", "next" -> true
      | "next", _ | _, "next" -> false  (* index-level phantom *)
      | _ -> Commutativity.test keyed a b)

let register_bptree t =
  let node_of pid =
    (* object name depends on the node kind stored on the page *)
    Buffer_pool.with_page t.pool pid ~f:(fun page ->
        (node_obj (Node.decode (Page.get_exn page 0)) pid, false))
  in
  let rec descend ctx key pid path =
    match Runtime.call ctx (node_of pid) "route" [ Value.str key ] with
    | Value.Pair (Value.Str "leaf", _) -> (pid, path)
    | Value.Pair (Value.Str "child", Value.Int c) -> descend ctx key c (pid :: path)
    | Value.Pair (Value.Str "right", Value.Int r) -> descend ctx key r path
    | v -> Fmt.failwith "bad route result %a" Value.pp v
  in
  let search ctx args =
    let key = str_arg args in
    let leaf, _ = descend ctx key t.root [] in
    Runtime.call ctx (node_of leaf) "search" [ Value.str key ]
  in
  let insert ctx args =
    match args with
    | [ Value.Str key; Value.Str v ] ->
        let leaf, path = descend ctx key t.root [] in
        let rec propagate path result =
          match result with
          | Value.Unit -> ()
          | Value.List [ Value.Str sep; Value.Int child ] -> (
              match path with
              | parent :: rest ->
                  propagate rest
                    (Runtime.call ctx (node_of parent) "rearrange"
                       [ Value.str sep; Value.int child ])
              | [] ->
                  (* the root split: a re-entrant call on BpTree itself,
                     broken into a virtual object by the extension (Def. 5) *)
                  ignore
                    (Runtime.call ctx t.bptree "grow"
                       [ Value.str sep; Value.int child ]))
          | v -> Fmt.failwith "bad insert result %a" Value.pp v
        in
        propagate path
          (Runtime.call ctx (node_of leaf) "insert" [ Value.str key; Value.str v ]);
        Value.int leaf
    | _ -> invalid_arg "bptree insert: bad arguments"
  in
  let delete ctx args =
    let key = str_arg args in
    let leaf, _ = descend ctx key t.root [] in
    Runtime.call ctx (node_of leaf) "delete" [ Value.str key ]
  in
  (* the smallest entry with key strictly greater than the argument (or
     >= for the empty-string start): leaf-level successor via B-links *)
  let next ctx args =
    let key = str_arg args in
    let leaf, _ = descend ctx key t.root [] in
    let rec scan pid =
      match Runtime.call ctx (node_of pid) "entriesFrom" [ Value.str key ] with
      | Value.Pair (Value.Str "entry", Value.Pair (Value.Str k, Value.Str v)) ->
          Value.pair (Value.str k) (Value.str v)
      | Value.Pair (Value.Str "right", Value.Int r) -> scan r
      | _ -> Value.pair (Value.str "") Value.unit
    in
    scan leaf
  in
  let grow ctx args =
    match args with
    | [ Value.Str sep; Value.Int child ] ->
        let old_root = t.root in
        let n = Node.internal ~leftmost:old_root [ (sep, string_of_int child) ] in
        let npid = Buffer_pool.alloc t.pool in
        register_page t npid;
        register_node t npid n;
        ignore
          (Runtime.call ctx (page_obj npid) "write" [ Value.int 0; encode_value n ]);
        (* the root pointer change persists on abort (Forget policy):
           the grown root still reaches every key *)
        ignore old_root;
        t.root <- npid;
        Value.unit
    | _ -> invalid_arg "grow: bad arguments"
  in
  (* once BpTree.insert has committed at its level, compensate with a
     full-descent delete (the key may have moved to a split sibling);
     root growth persists (Forget) — the grown root keeps all data *)
  let compensate_insert args _result =
    match args with
    | Value.Str key :: _ ->
        Database.Inverse
          {
            Runtime.target = t.bptree;
            meth_name = "delete";
            args = [ Value.str key ];
          }
    | _ -> Database.Keep_undo
  in
  let forget _ _ = Database.Forget in
  Database.register_or_replace t.db t.bptree ~spec:bptree_spec
    [
      ("search", Database.composite search);
      ("insert", Database.composite ~compensate:compensate_insert insert);
      ("delete", Database.composite delete);
      ("next", Database.composite next);
      ("grow", Database.composite ~compensate:forget grow);
    ]

(* -- items ------------------------------------------------------------------------ *)

let item_spec =
  Commutativity.rw ~reads:[ "read" ] ~writes:[ "create"; "update"; "destroy" ]

let register_item t name ~pid =
  let oid = item_obj name in
  let slot = ref (-1) in
  let create ctx args =
    let text = str_arg args in
    let s =
      Value.to_int_exn (Runtime.call ctx (page_obj pid) "insert" [ Value.str text ])
    in
    let old = !slot in
    Runtime.on_undo ctx (fun () -> slot := old);
    slot := s;
    Value.unit
  in
  let read ctx _args =
    Runtime.call ctx (page_obj pid) "read" [ Value.int !slot ]
  in
  let update ctx args =
    let text = str_arg args in
    let old = Runtime.call ctx (page_obj pid) "read" [ Value.int !slot ] in
    ignore
      (Runtime.call ctx (page_obj pid) "write" [ Value.int !slot; Value.str text ]);
    old
  in
  let destroy ctx _args =
    Runtime.call ctx (page_obj pid) "delete" [ Value.int !slot ]
  in
  let compensate_create _args _result =
    Database.Inverse { Runtime.target = oid; meth_name = "destroy"; args = [] }
  in
  let compensate_update _args old =
    match old with
    | Value.Str _ ->
        Database.Inverse { Runtime.target = oid; meth_name = "update"; args = [ old ] }
    | _ -> Database.Keep_undo
  in
  Database.register_or_replace t.db oid ~spec:item_spec
    [
      ("create", Database.composite ~compensate:compensate_create create);
      ("read", Database.composite read);
      ("update", Database.composite ~compensate:compensate_update update);
      ("destroy", Database.composite destroy);
    ];
  Hashtbl.replace t.item_objs name oid;
  oid

(* -- the linked list of items ------------------------------------------------------ *)

let linkedlist_spec =
  Commutativity.predicate ~stable:true ~name:"linked-list"
    ~vocab:[ "append"; "remove"; "readSeq" ]
    (fun a b ->
      match (Action.meth a, Action.meth b) with
      | "append", "append" -> true  (* Fig. 8: no dependency between inserts *)
      | "readSeq", "readSeq" -> true
      | ("append" | "remove"), "readSeq" | "readSeq", ("append" | "remove") ->
          false
      | "remove", _ | _, "remove" -> false
      | _ -> false)

let register_linkedlist t =
  let append ctx args =
    let name = str_arg args in
    if not (Hashtbl.mem t.item_objs name) then
      invalid_arg "append: unknown item";
    let old = t.items in
    Runtime.on_undo ctx (fun () -> t.items <- old);
    t.items <- name :: t.items;
    Value.unit
  in
  let read_seq ctx _args =
    let items = List.rev t.items in
    Value.list
      (List.map
         (fun name -> Runtime.call ctx (Hashtbl.find t.item_objs name) "read" [])
         items)
  in
  let remove ctx args =
    let name = str_arg args in
    let old = t.items in
    Runtime.on_undo ctx (fun () -> t.items <- old);
    t.items <- List.filter (fun n -> n <> name) t.items;
    Value.unit
  in
  let compensate_append args _result =
    Database.Inverse
      { Runtime.target = t.linkedlist; meth_name = "remove"; args }
  in
  Database.register_or_replace t.db t.linkedlist ~spec:linkedlist_spec
    [
      ("append", Database.primitive ~compensate:compensate_append append);
      ("remove", Database.primitive remove);
      ("readSeq", Database.composite read_seq);
    ]

(* -- the encyclopedia object --------------------------------------------------------- *)

let enc_spec =
  let keyed =
    Commutativity.by_key ~key_of:Commutativity.first_arg
      (Commutativity.predicate ~stable:true ~name:"enc-keyed" (fun a b ->
           match (Action.meth a, Action.meth b) with
           | "search", "search" -> true
           | _ -> false))
  in
  Commutativity.predicate ~stable:true ~name:"encyclopedia"
    ~vocab:[ "insert"; "search"; "update"; "delete"; "range"; "readSeq" ]
    (fun a b ->
      match (Action.meth a, Action.meth b) with
      | ("readSeq" | "range"), ("readSeq" | "range") -> true
      | ("readSeq" | "range"), "search" | "search", ("readSeq" | "range") ->
          true
      | ("readSeq" | "range"), _ | _, ("readSeq" | "range") ->
          false  (* the phantom problem *)
      | _ -> Commutativity.test keyed a b)

let register_enc t =
  let insert ctx args =
    match args with
    | [ Value.Str key; Value.Str text ] ->
        t.item_counter <- t.item_counter + 1;
        let n = t.item_counter in
        let item_name = Printf.sprintf "%d" n in
        let leaf_pid =
          Value.to_int_exn
            (Runtime.call ctx t.bptree "insert"
               [ Value.str key; Value.str item_name ])
        in
        let oid = register_item t item_name ~pid:leaf_pid in
        ignore (Runtime.call ctx oid "create" [ Value.str text ]);
        ignore (Runtime.call ctx t.linkedlist "append" [ Value.str item_name ]);
        Value.unit
    | _ -> invalid_arg "Enc.insert: bad arguments"
  in
  let find_item ctx key =
    match Runtime.call ctx t.bptree "search" [ Value.str key ] with
    | Value.Pair (Value.Str "found", Value.Str item_name) ->
        Hashtbl.find_opt t.item_objs item_name
    | _ -> None
  in
  let search ctx args =
    let key = str_arg args in
    match find_item ctx key with
    | Some oid -> Value.pair (Value.str "found") (Runtime.call ctx oid "read" [])
    | None -> Value.pair (Value.str "missing") Value.unit
  in
  let update ctx args =
    match args with
    | [ Value.Str key; Value.Str text ] -> (
        match find_item ctx key with
        | Some oid ->
            ignore (Runtime.call ctx oid "update" [ Value.str text ]);
            Value.bool true
        | None -> Value.bool false)
    | _ -> invalid_arg "Enc.update: bad arguments"
  in
  let read_seq ctx _args = Runtime.call ctx t.linkedlist "readSeq" [] in
  let delete ctx args =
    let key = match args with Value.Str k :: _ -> k | _ -> invalid_arg "key" in
    match Runtime.call ctx t.bptree "search" [ Value.str key ] with
    | Value.Pair (Value.Str "found", Value.Str item_name) ->
        ignore (Runtime.call ctx t.bptree "delete" [ Value.str key ]);
        (match Hashtbl.find_opt t.item_objs item_name with
        | Some oid -> ignore (Runtime.call ctx oid "destroy" [])
        | None -> ());
        ignore (Runtime.call ctx t.linkedlist "remove" [ Value.str item_name ]);
        Value.bool true
    | _ -> Value.bool false
  in
  (* range scan: walk the leaf level through the index, then read the
     items — a predicate read, conflicting with writers at the Enc level *)
  let range ctx args =
    match args with
    | [ Value.Str lo; Value.Str hi ] ->
        let entry_of k item_name =
          let text =
            match Hashtbl.find_opt t.item_objs item_name with
            | Some oid -> Runtime.call ctx oid "read" []
            | None -> Value.unit
          in
          Value.pair (Value.str k) text
        in
        let rec collect key acc =
          match Runtime.call ctx t.bptree "next" [ Value.str key ] with
          | Value.Pair (Value.Str k, Value.Str item_name)
            when k <> "" && k < hi ->
              collect k (entry_of k item_name :: acc)
          | _ -> List.rev acc
        in
        (* the lower bound is inclusive: check it exactly first *)
        let first =
          if lo < hi then
            match Runtime.call ctx t.bptree "search" [ Value.str lo ] with
            | Value.Pair (Value.Str "found", Value.Str item_name) ->
                [ entry_of lo item_name ]
            | _ -> []
          else []
        in
        Value.list (first @ collect lo [])
    | _ -> invalid_arg "Enc.range: bad arguments"
  in
  Database.register_or_replace t.db t.enc ~spec:enc_spec
    [
      ("insert", Database.composite insert);
      ("search", Database.composite search);
      ("update", Database.composite update);
      ("delete", Database.composite delete);
      ("range", Database.composite range);
      ("readSeq", Database.composite read_seq);
    ]

(* -- construction --------------------------------------------------------------------- *)

let create ?(name = "Enc") ?(fanout = 4) ?(page_size = 4096)
    ?(pool_capacity = 256) db =
  let disk = Disk.create ~page_size () in
  let pool = Buffer_pool.create ~capacity:pool_capacity disk in
  let t =
    {
      db;
      pool;
      fanout;
      enc = Obj_id.v name;
      bptree = Obj_id.v (name ^ ".BpTree");
      linkedlist = Obj_id.v (name ^ ".LinkedList");
      root = 0;
      item_counter = 0;
      item_objs = Hashtbl.create 64;
      items = [];
    }
  in
  (* the initial empty root leaf, written directly (setup, no txn) *)
  let root_pid = Buffer_pool.alloc pool in
  Buffer_pool.with_page pool root_pid ~f:(fun page ->
      (ignore (Page.insert page (Node.encode (Node.leaf []))), true));
  t.root <- root_pid;
  register_page t root_pid;
  register_node t root_pid (Node.leaf []);
  register_bptree t;
  register_linkedlist t;
  register_enc t;
  t

let enc_object t = t.enc
let bptree_object t = t.bptree
let linkedlist_object t = t.linkedlist
let pool t = t.pool

(* -- transaction body helpers ------------------------------------------------------------ *)

let insert t ctx ~key ~text =
  ignore (Runtime.call ctx t.enc "insert" [ Value.str key; Value.str text ])

let search t ctx ~key =
  match Runtime.call ctx t.enc "search" [ Value.str key ] with
  | Value.Pair (Value.Str "found", Value.Str text) -> Some text
  | _ -> None

let update t ctx ~key ~text =
  Value.to_bool_exn
    (Runtime.call ctx t.enc "update" [ Value.str key; Value.str text ])

let read_seq t ctx =
  match Runtime.call ctx t.enc "readSeq" [] with
  | Value.List items -> List.filter_map Value.to_str items
  | _ -> []

let delete t ctx ~key =
  Value.to_bool_exn (Runtime.call ctx t.enc "delete" [ Value.str key ])

let range t ctx ~lo ~hi =
  match Runtime.call ctx t.enc "range" [ Value.str lo; Value.str hi ] with
  | Value.List pairs ->
      List.filter_map
        (fun p ->
          match p with
          | Value.Pair (Value.Str k, Value.Str v) -> Some (k, v)
          | _ -> None)
        pairs
  | _ -> []

(* -- structure statistics (Fig. 2) ----------------------------------------------------------- *)

type structure = {
  height : int;
  internal_nodes : int;
  leaf_nodes : int;
  keys : int;
  items : int;
  pages : int;
}

let structure t =
  let rec read_node pid =
    Buffer_pool.with_page t.pool pid ~f:(fun page ->
        (Node.decode (Page.get_exn page 0), false))
  and walk pid (h, internals, leaves, keys) =
    let n = read_node pid in
    match Node.kind n with
    | Node.Leaf -> (max h 1, internals, leaves + 1, keys + Node.size n)
    | Node.Internal ->
        let children =
          (match Node.leftmost n with Some c -> [ c ] | None -> [])
          @ List.map (fun (_, c) -> int_of_string c) (Node.entries n)
        in
        List.fold_left
          (fun (h', i, l, k) c ->
            let hc, i', l', k' = walk c (0, i, l, k) in
            (max h' (hc + 1), i', l', k'))
          (h, internals + 1, leaves, keys)
          children
  in
  let height, internal_nodes, leaf_nodes, keys = walk t.root (0, 0, 0, 0) in
  {
    height;
    internal_nodes;
    leaf_nodes;
    keys;
    items = t.item_counter;
    pages = Disk.page_count (Buffer_pool.disk t.pool);
  }

let pp_structure ppf s =
  Fmt.pf ppf
    "height=%d internal=%d leaves=%d keys=%d items=%d pages=%d" s.height
    s.internal_nodes s.leaf_nodes s.keys s.items s.pages

(* Pages, nodes and items are registered as they are allocated, so a
   database rebuilt offline (for certifying a recorded trace) does not
   know the ones a live run created.  Their specs depend only on the
   name family, never on the instance, so resolve by name. *)
let offline_spec oid =
  let name = Obj_id.name (Obj_id.original oid) in
  let has p = String.starts_with ~prefix:p name in
  if has "Page" then Some page_spec
  else if has "Leaf" || has "Node" then Some node_spec
  else if has "Item" then Some item_spec
  else None
