(* Semantic lock table.

   A lock entry records the action that acquired it, the scope action
   whose completion releases it, and the current RETAINER.  In
   multi-level (open nested) locking the scope is the immediate caller: a
   lock taken for an operation on O is held until the calling
   subtransaction commits — precisely the span over which the paper's
   transaction dependencies at O matter.  In flat 2PL the scope is the
   top-level transaction.

   The retainer implements Moss's rule for nested transactions: while the
   acquiring action runs, it retains the lock itself; when it completes,
   the lock is retained by its caller, and so on upward.  A lock never
   conflicts with requests from descendants of its retainer — this is
   what lets a parallel sibling branch proceed after the first branch
   completed, while still blocking it during the first branch's
   execution.

   Conflicts between different transactions are decided by the
   commutativity registry (Def. 9).

   Representation.  Entries live in per-object hash buckets keyed by the
   held action's (method, args, pin) class, so a conflict probe touches only
   the classes present on one object — and can dismiss a whole class
   with a single raw commutativity test when the object's spec is
   stable (the decision is then a function of the class alone; the
   per-entry rules below only ever remove conflicts).  Release paths
   are driven by secondary indexes (scope, retainer, top) instead of
   whole-table scans: releasing marks entries dead in place, and the
   buckets purge dead entries lazily the next time they are scanned.  A
   bucket whose last live entry is released leaves its object's table at
   once, so a probe only meets the classes held now, not every class the
   object has ever seen. *)

open Ooser_core

type entry = {
  action : Action.t;
  scope : Action_id.t;
  mutable retainer : Action_id.t;
  mutable live : bool;
}

(* (method, args, pin) — one bucket per commutativity class on each
   object; the pin belongs to the class because escrow and fifo decide
   on it *)
type clazz = string * Value.t list * Value.t option

type bucket = { mutable members : entry list; mutable n_held : int }
type obj_locks = { buckets : (clazz, bucket) Hashtbl.t }

type t = {
  objs : (Obj_id.t, obj_locks) Hashtbl.t;
  by_scope : (Action_id.t, entry list ref) Hashtbl.t;
  by_retainer : (Action_id.t, entry list ref) Hashtbl.t;
  by_top : (int, entry list ref) Hashtbl.t;
  cache : Commutativity.cache option;
      (* shared memo of raw spec decisions, used for the class-skip
         probe; must wrap the registry passed to [conflicting] *)
  mutable n_live : int;
}

let create ?cache () =
  {
    objs = Hashtbl.create 64;
    by_scope = Hashtbl.create 64;
    by_retainer = Hashtbl.create 64;
    by_top = Hashtbl.create 16;
    cache;
    n_live = 0;
  }

let index tbl key e =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := e :: !r
  | None -> Hashtbl.add tbl key (ref [ e ])

(* drop dead entries from a bucket in place *)
let purge b = b.members <- List.filter (fun e -> e.live) b.members

let obj_locks t obj =
  match Hashtbl.find_opt t.objs obj with
  | Some ol -> ol
  | None ->
      let ol = { buckets = Hashtbl.create 8 } in
      Hashtbl.add t.objs obj ol;
      ol

let clazz action = (Action.meth action, Action.args action, Action.pin action)

let add t ~action ~scope =
  let e = { action; scope; retainer = Action.id action; live = true } in
  let ol = obj_locks t (Action.obj action) in
  let key = clazz action in
  (match Hashtbl.find_opt ol.buckets key with
  | Some b ->
      b.members <- e :: b.members;
      b.n_held <- b.n_held + 1
  | None -> Hashtbl.add ol.buckets key { members = [ e ]; n_held = 1 });
  index t.by_scope scope e;
  index t.by_retainer e.retainer e;
  index t.by_top (Action_id.top scope) e;
  t.n_live <- t.n_live + 1

let entries_on t obj =
  match Hashtbl.find_opt t.objs obj with
  | None -> []
  | Some ol ->
      Hashtbl.fold
        (fun _ b acc ->
          purge b;
          b.members @ acc)
        ol.buckets []

(* Same transaction and one is an ancestor of (or equal to) the other. *)
let call_path_related a b =
  Action_id.top a = Action_id.top b
  && (Action_id.equal a b
     || Action_id.is_proper_ancestor a b
     || Action_id.is_proper_ancestor b a)

(* The retained-lock compatibility rule: a request is compatible with an
   entry whose retainer is the requester itself or one of its
   ancestors. *)
let retained_compatible entry requester_id =
  Action_id.top entry.retainer = Action_id.top requester_id
  && (Action_id.equal entry.retainer requester_id
     || Action_id.is_proper_ancestor entry.retainer requester_id)

let conflicting reg t action =
  match Hashtbl.find_opt t.objs (Action.obj action) with
  | None -> []
  | Some ol ->
      let id = Action.id action in
      let spec_stable =
        Commutativity.stable
          (Commutativity.spec_for reg (Action.obj action))
      in
      Hashtbl.fold
        (fun _ b acc ->
          purge b;
          match b.members with
          | [] -> acc
          | rep :: _ ->
              (* one memoised raw-spec probe dismisses the whole class
                 when the spec is stable: commutation at the spec level
                 holds for every member, and the per-entry rules below
                 only remove further conflicts, never add any *)
              let class_commutes =
                spec_stable
                &&
                match t.cache with
                | Some c -> Commutativity.cached_test c action rep.action
                | None ->
                    Commutativity.test
                      (Commutativity.spec_for reg (Action.obj action))
                      action rep.action
              in
              if class_commutes then acc
              else
                List.fold_left
                  (fun acc e ->
                    if
                      (not (retained_compatible e id))
                      && (not (call_path_related (Action.id e.action) id))
                      && Commutativity.conflicts reg action e.action
                    then e :: acc
                    else acc)
                  acc b.members)
        ol.buckets []
      (* the fold's order follows the buckets' hash layout, which
         dropping and re-adding buckets reshuffles; holder order reaches
         wound-wait's victim sequence, so fix it by the holders' ids *)
      |> List.sort (fun a b ->
             Action_id.compare (Action.id a.action) (Action.id b.action))

(* the entry's bucket leaves its object's table with its last live
   entry *)
let kill t e =
  if e.live then begin
    e.live <- false;
    t.n_live <- t.n_live - 1;
    let buckets = (Hashtbl.find t.objs (Action.obj e.action)).buckets in
    let key = clazz e.action in
    let b = Hashtbl.find buckets key in
    b.n_held <- b.n_held - 1;
    if b.n_held = 0 then Hashtbl.remove buckets key
  end

let drain tbl key =
  match Hashtbl.find_opt tbl key with
  | None -> []
  | Some r ->
      Hashtbl.remove tbl key;
      List.filter (fun e -> e.live) !r

let release_scope t scope = List.iter (kill t) (drain t.by_scope scope)

(* Completion of an action: every lock it retains moves up to its
   caller. *)
let escalate t finished =
  match Action_id.parent finished with
  | None -> ()
  | Some parent ->
      List.iter
        (fun e ->
          e.retainer <- parent;
          index t.by_retainer parent e)
        (drain t.by_retainer finished)

let release_top t top = List.iter (kill t) (drain t.by_top top)

(* Live entries held on behalf of one top-level transaction — the
   post-mortem a server runs after killing a session: a dead transaction
   must retain nothing. *)
let live_for_top t top =
  match Hashtbl.find_opt t.by_top top with
  | None -> []
  | Some r -> List.filter (fun e -> e.live) !r

let classes t obj =
  match Hashtbl.find_opt t.objs obj with
  | None -> 0
  | Some ol -> Hashtbl.length ol.buckets

let all_entries t =
  Hashtbl.fold (fun obj _ objs -> obj :: objs) t.objs []
  |> List.concat_map (entries_on t)

let total t = t.n_live

let pp ppf t =
  let pp_entry ppf e =
    Fmt.pf ppf "%a held-by %a retained-by %a until %a" Obj_id.pp
      (Action.obj e.action) Action.pp e.action Action_id.pp e.retainer
      Action_id.pp e.scope
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_entry) (all_entries t)
