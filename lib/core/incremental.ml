(* Incremental oo-serializability certification.

   [Schedule.compute]/[Serializability.check] re-derive the whole system
   extension (Def. 5) and every per-object dependency relation (Defs. 10,
   11, 15) from scratch on each history prefix — O(n²) commutativity
   probes per certification.  This module maintains the same relations
   *online*, one committed transaction at a time, so a commit certifies
   in time proportional to the new dependency edges it introduces, not to
   the length of the history.

   The construction is a semi-naive (worklist) evaluation of the same
   fixpoint the oracle computes.  It is exact — byte-for-byte the same
   edge sets — because the base is already at its fixpoint (every
   previously committed prefix was certified) and every edge-producing
   decision is time-invariant once made:

   - an action's leaf status, span start and virtual rank depend only on
     its own call tree, which is immutable after commit;
   - span starts are global execution stamps, assigned monotonically as
     primitives execute, so order comparisons never change;
   - commutativity decisions are required to be {e stable}
     ({!Commutativity.stable}): pure in the (method, args, pin) triples.
     A spec reading live object state would let an old non-edge become
     an edge later, which no incremental scheme can absorb — so an
     unstable spec is refused outright ([require_stable]); escrow and
     fifo decide on the state pinned when each action executed.

   Cycle detection is online too: each per-object relation (action,
   transaction, combined = action ∪ added, Defs. 11/10/15-16) lives in a
   Pearce–Kelly dynamic topological order ({!Digraph.S.Incremental}), so
   inserting an edge either preserves acyclicity in time bounded by the
   affected region or returns a witness cycle.  A rejected commit is
   rolled back: edge insertions are journaled and removed (removal never
   invalidates a topological order), the persistent core snapshot is
   restored in O(1).

   Conflict scanning is sub-quadratic: each object's actions are
   bucketed by their (method, args, pin) class.  One memoized probe
   ({!Commutativity.cached_test}) decides a whole commuting class — the
   probe is the raw spec query, deliberately not
   {!Commutativity.commutes}, whose same-process short-circuit on the
   representative would wrongly skip members from other processes.
   Same-process and call-path exclusions only ever {e remove} conflicts,
   so skipping a spec-commuting class is sound. *)

open Ids
module PK = Action.Rel.Incremental
module AMap = Action_id.Map
module ASet = Action_id.Set
module OMap = Obj_id.Map

type relation = [ `Act | `Txn | `Combined ]

type rejection = {
  cyclic_obj : Obj_id.t;
  relation : relation;
  cycle : Action_id.t list;
}

type outcome = {
  accepted : bool;
  rejection : rejection option;
  new_act_edges : int;
  new_txn_edges : int;
}

type stats = {
  commits : int;
  actions : int;  (* including virtual duplicates *)
  act_edges : int;
  txn_edges : int;
  probes : int;  (* member-level conflict tests *)
  class_skips : int;  (* whole classes skipped via one memoized probe *)
  cache_hits : int;
  cache_misses : int;
}

(* The committed-history core, mirroring [Extension.t] incrementally.
   Persistent maps so a pre-commit snapshot is O(1). *)
type core = {
  actions : Action.t AMap.t;  (* moved reals + virtual duplicates *)
  caller : Action_id.t AMap.t;  (* a duplicate's caller is its original *)
  start : int AMap.t;  (* span start: stamp of first primitive below *)
  leaves : ASet.t;  (* primitives + all duplicates (as in Extension) *)
  reals : (Action_id.t * int) list OMap.t;
      (* real action ids (with rank) per ORIGINAL object — the
         duplication frontier when the object's max rank rises *)
  max_rank : int OMap.t;  (* per original object *)
  trees : Call_tree.t list;  (* committed, newest first *)
  order_chunks : (Action_id.t * int) list list;
      (* committed primitives with stamps, one chunk per commit *)
  n_commits : int;
}

let empty_core =
  {
    actions = AMap.empty;
    caller = AMap.empty;
    start = AMap.empty;
    leaves = ASet.empty;
    reals = OMap.empty;
    max_rank = OMap.empty;
    trees = [];
    order_chunks = [];
    n_commits = 0;
  }

(* Per-object mutable state: the three dependency graphs under online
   cycle detection, plus the class-bucketed action index driving the
   conflict scan. *)
type obj_state = {
  o_id : Obj_id.t;
  o_act : PK.g;
  o_txn : PK.g;
  o_comb : PK.g;  (* act ∪ added (Def. 15 / 16) *)
  o_buckets : (class_key, Action_id.t list) Hashtbl.t;
}

and class_key = string * Value.t list * Value.t option  (* meth, args, pin *)

type undo =
  | U_edge of PK.g * Action_id.t * Action_id.t
  | U_bucket of obj_state * class_key * Action_id.t list
  | U_new_obj of Obj_id.t
  | U_all_txn of (Action_id.t * Action_id.t)

type t = {
  reg : Commutativity.registry;
  cache : Commutativity.cache;
  mutable core : core;
  objs : (Obj_id.t, obj_state) Hashtbl.t;
  all_txn : (Action_id.t * Action_id.t, unit) Hashtbl.t;
      (* union of every object's transaction dependencies (Def. 15) *)
  mutable journal : undo list;
  mutable probes : int;
  mutable class_skips : int;
}

let create reg =
  {
    reg;
    cache = Commutativity.cached reg;
    core = empty_core;
    objs = Hashtbl.create 64;
    all_txn = Hashtbl.create 256;
    journal = [];
    probes = 0;
    class_skips = 0;
  }

let registry t = t.reg
let cache t = t.cache
let n_commits t = t.core.n_commits

let history t =
  let order =
    List.concat t.core.order_chunks
    |> List.sort (fun (_, s) (_, s') -> Int.compare s s')
    |> List.map fst
  in
  History.v ~tops:(List.rev t.core.trees) ~order ~commut:t.reg

let objects t = Hashtbl.fold (fun o _ acc -> o :: acc) t.objs []

let graph_of t o pick =
  match Hashtbl.find_opt t.objs o with
  | None -> Action.Rel.empty
  | Some st -> PK.to_graph (pick st)

let act_dep t o = graph_of t o (fun st -> st.o_act)
let txn_dep t o = graph_of t o (fun st -> st.o_txn)
let combined_dep t o = graph_of t o (fun st -> st.o_comb)

let stats t =
  let act_edges, txn_edges =
    Hashtbl.fold
      (fun _ st (a, x) -> (a + PK.nb_edges st.o_act, x + PK.nb_edges st.o_txn))
      t.objs (0, 0)
  in
  let hits, misses = Commutativity.cache_stats t.cache in
  {
    commits = t.core.n_commits;
    actions = AMap.cardinal t.core.actions;
    act_edges;
    txn_edges;
    probes = t.probes;
    class_skips = t.class_skips;
    cache_hits = hits;
    cache_misses = misses;
  }

(* ---------- internals ---------- *)

exception Reject of rejection

let action_of t id =
  match AMap.find_opt id t.core.actions with
  | Some a -> a
  | None ->
      invalid_arg (Fmt.str "Incremental: unknown action %a" Action_id.pp id)

let start_of t id =
  match AMap.find_opt id t.core.start with Some s -> s | None -> max_int

let is_leaf t id = ASet.mem id t.core.leaves
let caller_of t id = AMap.find_opt id t.core.caller
let obj_of t id = Action.obj (action_of t id)

(* Same conflict test as [Schedule.conflicts], with memoized spec
   queries. *)
let conflicts t a_id b_id =
  (not (Extension.same_call_path a_id b_id))
  && Commutativity.cached_conflicts t.cache (action_of t a_id)
       (action_of t b_id)

let require_stable reg o =
  let spec = Commutativity.spec_for reg o in
  if not (Commutativity.stable spec) then
    invalid_arg
      (Fmt.str
         "Incremental: object %a has unstable commutativity spec %S; pin \
          the state it reads at execution instead"
         Obj_id.pp (Obj_id.original o) (Commutativity.name spec))

let obj_state t o =
  match Hashtbl.find_opt t.objs o with
  | Some s -> s
  | None ->
      require_stable t.reg o;
      let s =
        {
          o_id = o;
          o_act = PK.create ();
          o_txn = PK.create ();
          o_comb = PK.create ();
          o_buckets = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.objs o s;
      t.journal <- U_new_obj o :: t.journal;
      s

(* Insert an edge into one PK graph; journal it; reject on cycle.
   Returns whether the edge is new. *)
let insert_edge t st relation g u v =
  if PK.mem_edge g u v then false
  else
    match PK.add_edge g u v with
    | `Ok ->
        t.journal <- U_edge (g, u, v) :: t.journal;
        true
    | `Cycle cycle -> raise (Reject { cyclic_obj = st.o_id; relation; cycle })

let rollback t snapshot =
  List.iter
    (function
      | U_edge (g, u, v) -> PK.remove_edge g u v
      | U_bucket (st, key, old) -> (
          match old with
          | [] -> Hashtbl.remove st.o_buckets key
          | _ -> Hashtbl.replace st.o_buckets key old)
      | U_new_obj o -> Hashtbl.remove t.objs o
      | U_all_txn p -> Hashtbl.remove t.all_txn p)
    t.journal;
  (* journal is newest-first: later entries for the same cell are undone
     first, so the oldest (pre-commit) value wins — absolute restores
     make the order immaterial anyway *)
  t.journal <- [];
  t.core <- snapshot

let add_commit t ~tree ~prims =
  let snapshot = t.core in
  t.journal <- [];
  let new_act = ref 0 and new_txn = ref 0 in
  (* worklist of act edges awaiting Def. 10 transaction derivation *)
  let act_q : (obj_state * Action_id.t * Action_id.t) Queue.t =
    Queue.create ()
  in
  let rec add_act st u v =
    if insert_edge t st `Act st.o_act u v then begin
      incr new_act;
      (* every action dependency is also in the combined relation *)
      ignore (insert_edge t st `Combined st.o_comb u v);
      Queue.add (st, u, v) act_q
    end
  (* A new transaction dependency at [st]: record it, attach it to the
     objects of both endpoints (Def. 15), and — when both endpoints live
     on the same object — inherit it as an action dependency there
     (Def. 11), which may recursively derive further dependencies. *)
  and add_txn st u v =
    if insert_edge t st `Txn st.o_txn u v then begin
      incr new_txn;
      if not (Hashtbl.mem t.all_txn (u, v)) then begin
        Hashtbl.add t.all_txn (u, v) ();
        t.journal <- U_all_txn (u, v) :: t.journal;
        let ou = obj_of t u and ov = obj_of t v in
        let stu = obj_state t ou in
        ignore (insert_edge t stu `Combined stu.o_comb u v);
        if Obj_id.equal ou ov then add_act stu u v
        else
          let stv = obj_state t ov in
          ignore (insert_edge t stv `Combined stv.o_comb u v)
      end
    end
  in
  let drain () =
    while not (Queue.is_empty act_q) do
      let st, u, v = Queue.pop act_q in
      (* Def. 10: conflicting dependent actions with distinct callers *)
      if conflicts t u v then
        match (caller_of t u, caller_of t v) with
        | Some p, Some q when not (Action_id.equal p q) -> add_txn st p q
        | _ -> ()
    done
  in
  (* Bootstrap one new action against the actions already present on its
     object (Axiom 1 / completion rule, as in [Schedule.bootstrap]).
     Processing new actions sequentially covers old-new and new-new pairs
     exactly once. *)
  let bootstrap_new st a_id =
    let a = action_of t a_id in
    let a_leaf = is_leaf t a_id in
    let sa = start_of t a_id in
    let consider b_id =
      if a_leaf || is_leaf t b_id then begin
        t.probes <- t.probes + 1;
        if conflicts t a_id b_id then begin
          let sb = start_of t b_id in
          if sa < sb then add_act st a_id b_id
          else if sb < sa then add_act st b_id a_id
        end
      end
    in
    Hashtbl.iter
      (fun _cls members ->
        match members with
        | [] -> ()
        | rep :: _ ->
            if Commutativity.cached_test t.cache a (action_of t rep) then
              t.class_skips <- t.class_skips + 1
            else List.iter consider members)
      st.o_buckets;
    let key = (Action.meth a, Action.args a, Action.pin a) in
    let old =
      match Hashtbl.find_opt st.o_buckets key with Some l -> l | None -> []
    in
    t.journal <- U_bucket (st, key, old) :: t.journal;
    Hashtbl.replace st.o_buckets key (a_id :: old)
  in
  try
    (* -- 1. integrate the tree into the core (mirrors Extension.extend,
       restricted to what the new tree adds) -- *)
    let t_actions =
      List.fold_left
        (fun m a -> AMap.add (Action.id a) a m)
        AMap.empty (Call_tree.all_actions tree)
    in
    let t_caller = Call_tree.caller_map tree in
    let stamp_of =
      List.fold_left
        (fun m (id, s) -> AMap.add id s m)
        AMap.empty prims
    in
    (* span starts from execution stamps: order-isomorphic to positions
       in the committed order, so every comparison the oracle makes on
       positions gives the same answer on stamps *)
    let rec starts acc node =
      let id = Action.id (Call_tree.act node) in
      if Call_tree.is_primitive node then
        match AMap.find_opt id stamp_of with
        | Some s -> AMap.add id s acc
        | None -> acc
      else
        let acc = List.fold_left starts acc (Call_tree.children node) in
        let mn =
          List.fold_left
            (fun mn c ->
              match AMap.find_opt (Action.id (Call_tree.act c)) acc with
              | Some s -> min mn s
              | None -> mn)
            max_int (Call_tree.children node)
        in
        if mn = max_int then acc else AMap.add id mn acc
    in
    let t_start = starts AMap.empty tree in
    let rank_of id act =
      let obj = Obj_id.original (Action.obj act) in
      let rec count cur n =
        match AMap.find_opt cur t_caller with
        | None -> n
        | Some p ->
            let n =
              match AMap.find_opt p t_actions with
              | Some pa
                when Obj_id.equal (Obj_id.original (Action.obj pa)) obj ->
                  n + 1
              | _ -> n
            in
            count p n
      in
      count id 0
    in
    let t_rank = AMap.mapi rank_of t_actions in
    let tree_prims =
      ASet.of_list (List.map Action.id (Call_tree.primitives tree))
    in
    (* new per-object max ranks *)
    let old_max o =
      match OMap.find_opt o t.core.max_rank with Some k -> k | None -> 0
    in
    let new_max_rank =
      AMap.fold
        (fun id act m ->
          let o = Obj_id.original (Action.obj act) in
          let k = AMap.find id t_rank in
          let cur =
            match OMap.find_opt o m with Some v -> v | None -> old_max o
          in
          if k > cur then OMap.add o k m else m)
        t_actions t.core.max_rank
    in
    let max_of o =
      match OMap.find_opt o new_max_rank with Some k -> k | None -> 0
    in
    (* moved new actions *)
    let core = ref t.core in
    let new_ids = ref [] in
    AMap.iter
      (fun id act ->
        let k = AMap.find id t_rank in
        let moved =
          if k = 0 then act
          else
            { act with Action.obj = Obj_id.virtualize (Action.obj act) ~rank:k }
        in
        let o = Obj_id.original (Action.obj act) in
        core :=
          {
            !core with
            actions = AMap.add id moved !core.actions;
            reals =
              OMap.add o
                ((id, k)
                :: (match OMap.find_opt o !core.reals with
                   | Some l -> l
                   | None -> []))
                !core.reals;
          };
        new_ids := id :: !new_ids)
      t_actions;
    core :=
      {
        !core with
        caller = AMap.union (fun _ a _ -> Some a) t_caller !core.caller;
        start = AMap.union (fun _ a _ -> Some a) t_start !core.start;
        leaves = ASet.union tree_prims !core.leaves;
      };
    (* duplicates: a rank-j real action is duplicated onto O^k for every
       j < k ≤ max_rank(O).  New actions get the full ladder; when a new
       tree raises an object's max rank, the existing reals are
       retroactively duplicated onto the new levels only. *)
    let add_dup orig_id k =
      let o = Obj_id.original (Action.obj (AMap.find orig_id !core.actions)) in
      let dup =
        Action.with_virtual
          (AMap.find orig_id !core.actions)
          ~rank:k
          ~obj:(Obj_id.virtualize o ~rank:k)
      in
      let did = Action.id dup in
      core :=
        {
          !core with
          actions = AMap.add did dup !core.actions;
          caller = AMap.add did orig_id !core.caller;
          start =
            (match AMap.find_opt orig_id !core.start with
            | Some s -> AMap.add did s !core.start
            | None -> !core.start);
          (* as in Extension: every duplicate counts as a leaf *)
          leaves = ASet.add did !core.leaves;
        };
      new_ids := did :: !new_ids
    in
    AMap.iter
      (fun id act ->
        let o = Obj_id.original (Action.obj act) in
        let j = AMap.find id t_rank in
        for k = j + 1 to max_of o do
          add_dup id k
        done)
      t_actions;
    OMap.iter
      (fun o new_k ->
        let old_k = old_max o in
        if new_k > old_k then
          match OMap.find_opt o t.core.reals with
          | None -> ()
          | Some olds ->
              List.iter
                (fun (id, j) ->
                  for k = max (j + 1) (old_k + 1) to new_k do
                    add_dup id k
                  done)
                olds)
      new_max_rank;
    core :=
      {
        !core with
        max_rank = new_max_rank;
        trees = tree :: !core.trees;
        order_chunks = prims :: !core.order_chunks;
        n_commits = !core.n_commits + 1;
      };
    t.core <- !core;
    (* -- 2. bootstrap each new action on its object -- *)
    List.iter
      (fun id ->
        let st = obj_state t (obj_of t id) in
        bootstrap_new st id)
      (List.rev !new_ids);
    (* -- 3. program-order pairs of the new tree, restricted per object
       (Def. 7 / conformance edges) -- *)
    List.iter
      (fun (u, v) ->
        match
          (AMap.find_opt u t.core.actions, AMap.find_opt v t.core.actions)
        with
        | Some au, Some av when Obj_id.equal (Action.obj au) (Action.obj av)
          ->
            add_act (obj_state t (Action.obj au)) u v
        | _ -> ())
      (Call_tree.program_order_pairs tree);
    (* -- 4. fixpoint -- *)
    drain ();
    t.journal <- [];
    {
      accepted = true;
      rejection = None;
      new_act_edges = !new_act;
      new_txn_edges = !new_txn;
    }
  with Reject r ->
    rollback t snapshot;
    {
      accepted = false;
      rejection = Some r;
      new_act_edges = !new_act;
      new_txn_edges = !new_txn;
    }

let pp_relation ppf = function
  | `Act -> Fmt.string ppf "action dependency"
  | `Txn -> Fmt.string ppf "transaction dependency"
  | `Combined -> Fmt.string ppf "combined dependency"

let pp_rejection ppf r =
  Fmt.pf ppf "%a cycle at %a: [%a]" pp_relation r.relation Obj_id.pp
    r.cyclic_obj
    (Fmt.list ~sep:(Fmt.any " -> ") Action_id.pp)
    r.cycle
