(* B+ tree with B-link pointers over the page store.

   This is the standalone index manager: operations work directly on the
   buffer pool.  The object-oriented rendering of the same structure (one
   object per node, page accesses as primitive actions) lives in
   ooser_oodb; both share the node layer. *)

open Ooser_storage

type t = {
  pool : Buffer_pool.t;
  meta : Disk.page_id;
  max_entries : int;
  mutable node_reads : int;
  mutable node_writes : int;
  mutable splits : int;
  mutable merges : int;
  mutable borrows : int;
}

let kind_meta = 3

(* -- node and meta I/O ---------------------------------------------------- *)

let read_node t pid =
  t.node_reads <- t.node_reads + 1;
  Buffer_pool.with_page t.pool pid ~f:(fun page ->
      (Node.decode (Page.get_exn page 0), false))

let write_node t pid node =
  t.node_writes <- t.node_writes + 1;
  Buffer_pool.with_page t.pool pid ~f:(fun page ->
      let s = Node.encode node in
      let ok =
        if Page.is_live page 0 then Page.update page 0 s
        else match Page.insert page s with Some 0 -> true | _ -> false
      in
      if not ok then failwith "Btree.write_node: node exceeds page size";
      ((), true))

let read_root t =
  Buffer_pool.with_page t.pool t.meta ~f:(fun page ->
      let r = Codec.Reader.create (Page.get_exn page 0) in
      (Codec.Reader.u32 r, false))

let write_root t pid =
  Buffer_pool.with_page t.pool t.meta ~f:(fun page ->
      let w = Codec.Writer.create () in
      Codec.Writer.u32 w pid;
      let s = Codec.Writer.contents w in
      let ok =
        if Page.is_live page 0 then Page.update page 0 s
        else match Page.insert page s with Some 0 -> true | _ -> false
      in
      if not ok then failwith "Btree.write_root: meta page full";
      ((), true))

let alloc_node t node =
  let pid = Buffer_pool.alloc t.pool in
  write_node t pid node;
  pid

(* -- creation -------------------------------------------------------------- *)

let create ?(max_entries = 8) pool =
  if max_entries < 2 then invalid_arg "Btree.create: max_entries >= 2";
  let meta = Buffer_pool.alloc pool in
  Buffer_pool.with_page pool meta ~f:(fun page ->
      Page.set_kind page kind_meta;
      ((), true));
  let t =
    { pool; meta; max_entries; node_reads = 0; node_writes = 0; splits = 0;
      merges = 0; borrows = 0 }
  in
  let root = alloc_node t (Node.leaf []) in
  write_root t root;
  t

let max_entries t = t.max_entries
let node_reads t = t.node_reads
let node_writes t = t.node_writes
let splits t = t.splits
let merges t = t.merges
let borrows t = t.borrows

(* -- descent --------------------------------------------------------------- *)

(* Move right along B-links until the node covers the key. *)
let rec rightward t pid node key =
  if Node.covers node key then (pid, node)
  else
    match Node.right_link node with
    | Some r -> rightward t r (read_node t r) key
    | None -> (pid, node)

(* Descend to the leaf responsible for [key], recording the internal path
   (page ids) for split propagation. *)
let descend_to_leaf t key =
  let rec go pid path =
    let node = read_node t pid in
    let pid, node = rightward t pid node key in
    match Node.kind node with
    | Node.Leaf -> (pid, node, path)
    | Node.Internal -> (
        match Node.route node key with
        | Node.Child c -> go c (pid :: path)
        | Node.Follow_right r -> go r path)
  in
  go (read_root t) []

(* -- public operations ------------------------------------------------------ *)

let search t key =
  let _, leaf, _ = descend_to_leaf t key in
  Node.find leaf key

let mem t key = search t key <> None

(* Install a separator into the parent chain after a split; splits
   propagate upward, possibly creating a new root. *)
let rec install_separator t path ~sep ~child ~left_pid =
  match path with
  | [] ->
      (* the split node was the root: grow the tree *)
      let new_root = Node.internal ~leftmost:left_pid [ (sep, string_of_int child) ] in
      let pid = alloc_node t new_root in
      write_root t pid
  | parent_pid :: rest ->
      let parent = read_node t parent_pid in
      let parent_pid, parent = rightward t parent_pid parent sep in
      let parent = Node.add_separator parent ~key:sep ~child in
      if Node.size parent <= t.max_entries then write_node t parent_pid parent
      else begin
        t.splits <- t.splits + 1;
        let make_left, up_sep, right = Node.split_internal parent in
        let right_pid = alloc_node t right in
        write_node t parent_pid (make_left right_pid);
        install_separator t rest ~sep:up_sep ~child:right_pid ~left_pid:parent_pid
      end

let insert t key value =
  let leaf_pid, leaf, path = descend_to_leaf t key in
  let leaf = Node.insert leaf key value in
  if Node.size leaf <= t.max_entries then write_node t leaf_pid leaf
  else begin
    t.splits <- t.splits + 1;
    let make_left, sep, right = Node.split_leaf leaf in
    let right_pid = alloc_node t right in
    write_node t leaf_pid (make_left right_pid);
    install_separator t path ~sep ~child:right_pid ~left_pid:leaf_pid
  end

(* Underflow handling after a leaf deletion: rebalance against the RIGHT
   sibling only (left links do not exist in a B-link tree) — merge when
   both halves fit, borrow the sibling's first entry otherwise.  Internal
   nodes are never rebalanced (lazy, as in most production index
   managers), except that an empty root collapses onto its only child. *)
let min_entries t = t.max_entries / 2

let rebalance_leaf t leaf_pid leaf path =
  match (Node.right_link leaf, path) with
  | Some right_pid, parent_pid :: _ -> (
      let right = read_node t right_pid in
      let parent = read_node t parent_pid in
      let parent_owns_right =
        List.exists
          (fun (_, c) -> c = string_of_int right_pid)
          (Node.entries parent)
      in
      (* rebalancing across parents would tear the separator bookkeeping:
         only true siblings (same parent) merge or borrow *)
      if Node.kind right <> Node.Leaf || not parent_owns_right then
        write_node t leaf_pid leaf
      else if Node.size leaf + Node.size right <= t.max_entries then begin
        (* merge: absorb the right sibling, drop its separator *)
        t.merges <- t.merges + 1;
        write_node t leaf_pid (Node.absorb_right leaf right);
        (* empty the absorbed page so any stale descent finds nothing *)
        write_node t right_pid
          (Node.leaf ?right_link:(Node.right_link right)
             ?high_key:(Node.high_key right) []);
        match Node.remove_separator parent ~child:right_pid with
        | Some parent' -> write_node t parent_pid parent'
        | None -> ()
      end
      else if Node.size right > min_entries t then begin
        t.borrows <- t.borrows + 1;
        let leaf', right', sep = Node.borrow_from_right leaf right in
        write_node t right_pid right';
        write_node t leaf_pid leaf';
        write_node t parent_pid
          (Node.rename_separator parent ~child:right_pid ~key:sep)
      end
      else write_node t leaf_pid leaf)
  | _ ->
      (* rightmost leaf or root leaf: leave it underfull *)
      write_node t leaf_pid leaf

(* Collapse a root that lost all separators onto its only child. *)
let maybe_collapse_root t =
  let root_pid = read_root t in
  let root = read_node t root_pid in
  match (Node.kind root, Node.entries root, Node.leftmost root) with
  | Node.Internal, [], Some only -> write_root t only
  | _ -> ()

let delete t key =
  let leaf_pid, leaf, path = descend_to_leaf t key in
  match Node.delete leaf key with
  | None -> false
  | Some leaf ->
      if Node.size leaf < min_entries t then begin
        rebalance_leaf t leaf_pid leaf path;
        maybe_collapse_root t
      end
      else write_node t leaf_pid leaf;
      true

(* Leftmost leaf: descend always through the leftmost child. *)
let leftmost_leaf t =
  let rec go pid =
    let node = read_node t pid in
    match Node.kind node with
    | Node.Leaf -> (pid, node)
    | Node.Internal -> (
        match Node.leftmost node with
        | Some c -> go c
        | None -> failwith "Btree: internal node without leftmost child")
  in
  go (read_root t)

let fold t f acc =
  let rec walk acc node =
    let acc =
      List.fold_left (fun acc (k, v) -> f acc k v) acc (Node.entries node)
    in
    match Node.right_link node with
    | Some r -> walk acc (read_node t r)
    | None -> acc
  in
  walk acc (snd (leftmost_leaf t))

let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

let range t ~lo ~hi =
  let _, leaf, _ = descend_to_leaf t lo in
  let rec walk acc node =
    let keep =
      List.filter (fun (k, _) -> k >= lo && k < hi) (Node.entries node)
    in
    let acc = List.rev_append keep acc in
    let continue =
      match Node.high_key node with Some h -> h < hi | None -> false
    in
    if continue then
      match Node.right_link node with
      | Some r -> walk acc (read_node t r)
      | None -> acc
    else acc
  in
  List.rev (walk [] leaf)

let cardinal t = fold t (fun n _ _ -> n + 1) 0

(* -- statistics and invariants ---------------------------------------------- *)

type stats = {
  height : int;
  internal_nodes : int;
  leaves : int;
  keys : int;
  avg_fill : float;
}

let stats t =
  let rec level pids depth (internals, leaves, keys, fills) =
    match pids with
    | [] -> (depth - 1, internals, leaves, keys, fills)
    | _ ->
        let nodes = List.map (fun p -> read_node t p) pids in
        let next =
          List.concat_map
            (fun n ->
              match Node.kind n with
              | Node.Leaf -> []
              | Node.Internal -> (
                  (match Node.leftmost n with Some c -> [ c ] | None -> [])
                  @ List.map (fun (_, c) -> int_of_string c) (Node.entries n)))
            nodes
        in
        let internals =
          internals
          + List.length (List.filter (fun n -> Node.kind n = Node.Internal) nodes)
        in
        let leaves =
          leaves + List.length (List.filter (fun n -> Node.kind n = Node.Leaf) nodes)
        in
        let keys =
          keys
          + List.fold_left
              (fun acc n ->
                if Node.kind n = Node.Leaf then acc + Node.size n else acc)
              0 nodes
        in
        let fills =
          fills
          @ List.map
              (fun n -> float_of_int (Node.size n) /. float_of_int t.max_entries)
              nodes
        in
        level next (depth + 1) (internals, leaves, keys, fills)
  in
  let height, internal_nodes, leaves, keys, fills =
    level [ read_root t ] 1 (0, 0, 0, [])
  in
  let avg_fill =
    match fills with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 fills /. float_of_int (List.length fills)
  in
  { height; internal_nodes; leaves; keys; avg_fill }

let check_invariants t =
  let ( let* ) = Result.bind in
  let fail fmt = Fmt.kstr (fun s -> Error s) fmt in
  (* 1. all leaves at the same depth, following child pointers only *)
  let rec depths pid d acc =
    let node = read_node t pid in
    match Node.kind node with
    | Node.Leaf -> Ok (d :: acc)
    | Node.Internal ->
        let children =
          (match Node.leftmost node with Some c -> [ c ] | None -> [])
          @ List.map (fun (_, c) -> int_of_string c) (Node.entries node)
        in
        List.fold_left
          (fun acc c ->
            let* acc = acc in
            depths c (d + 1) acc)
          (Ok acc) children
  in
  let* ds = depths (read_root t) 0 [] in
  let* () =
    match ds with
    | [] -> Ok ()
    | d :: rest ->
        if List.for_all (( = ) d) rest then Ok ()
        else fail "leaves at unequal depths"
  in
  (* 2. every node sorted and within its high key *)
  let rec check_node pid =
    let node = read_node t pid in
    let keys = List.map fst (Node.entries node) in
    let rec sorted = function
      | a :: (b :: _ as rest) -> a < b && sorted rest
      | _ -> true
    in
    let* () =
      if sorted keys then Ok () else fail "page %d: keys out of order" pid
    in
    let* () =
      match Node.high_key node with
      | Some h when List.exists (fun k -> k >= h) keys ->
          fail "page %d: key at or above high key" pid
      | _ -> Ok ()
    in
    match Node.kind node with
    | Node.Leaf -> Ok ()
    | Node.Internal ->
        let children =
          (match Node.leftmost node with Some c -> [ c ] | None -> [])
          @ List.map (fun (_, c) -> int_of_string c) (Node.entries node)
        in
        List.fold_left
          (fun acc c ->
            let* () = acc in
            check_node c)
          (Ok ()) children
  in
  let* () = check_node (read_root t) in
  (* 3. the leaf chain is globally sorted *)
  let all = to_list t in
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  if sorted all then Ok () else fail "leaf chain out of order"

