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

   Representation.  Each object's entries are grouped by the held
   action's (method, args, pin) class, so a conflict probe touches only
   the classes present on one object.  The probe resolves the object's
   spec once, and when that spec is stable it dismisses a whole class
   with a single raw commutativity test against the class's
   representative: the decision is then a function of the class alone,
   and the per-entry rules below only ever remove conflicts.  Release
   paths are driven by secondary indexes (scope, retainer, top) instead
   of whole-table scans; the action-id indexes hash ids with
   {!Action_id.hash} rather than the polymorphic hash.  Releasing marks
   an entry dead in place and the class purges its dead members the
   next time it is scanned (the purge copies the member list only when
   a member has died).  A class whose last live entry is released
   leaves its object at once, so a probe only meets the classes held
   now, not every class the object has ever seen. *)

open Ooser_core

(* [members] holds [n_members] entries, [n_held] of them live; [rep] is
   the first member's action, which stands for the class in the
   class-skip test *)
type entry = {
  action : Action.t;
  scope : Action_id.t;
  mutable retainer : Action_id.t;
  mutable live : bool;
  clazz : clazz;
}

and clazz = {
  rep : Action.t;
  owner : obj_locks;
  mutable members : entry list;
  mutable n_members : int;
  mutable n_held : int;
}

and obj_locks = { mutable classes : clazz list; mutable grants : int }

module Top_tbl = Hashtbl.Make (Int)

(* The hot paths below look keys up with [find] and [Not_found] rather
   than [find_opt], which would allocate an option per lookup. *)
type t = {
  objs : obj_locks Obj_id.Tbl.t;
  by_scope : entry list Action_id.Tbl.t;
  by_retainer : entry list Action_id.Tbl.t;
  by_top : entry list Top_tbl.t;
  mutable n_live : int;
}

let create () =
  {
    objs = Obj_id.Tbl.create 64;
    by_scope = Action_id.Tbl.create 64;
    by_retainer = Action_id.Tbl.create 64;
    by_top = Top_tbl.create 16;
    n_live = 0;
  }

(* [replace] on a present key updates its binding in place *)
let index_id tbl key e =
  match Action_id.Tbl.find tbl key with
  | l -> Action_id.Tbl.replace tbl key (e :: l)
  | exception Not_found -> Action_id.Tbl.add tbl key [ e ]

let index_top tbl top e =
  match Top_tbl.find tbl top with
  | l -> Top_tbl.replace tbl top (e :: l)
  | exception Not_found -> Top_tbl.add tbl top [ e ]

let live e = e.live

(* drop dead entries from a class in place *)
let purge c =
  if c.n_members > c.n_held then begin
    c.members <- List.filter live c.members;
    c.n_members <- c.n_held
  end

let same_class a b =
  String.equal (Action.meth a) (Action.meth b)
  && List.equal Value.equal (Action.args a) (Action.args b)
  && Option.equal Value.equal (Action.pin a) (Action.pin b)

let rec find_class action = function
  | [] -> raise Not_found
  | c :: rest -> if same_class c.rep action then c else find_class action rest

let obj_locks t obj =
  match Obj_id.Tbl.find t.objs obj with
  | ol -> ol
  | exception Not_found ->
      let ol = { classes = []; grants = 0 } in
      Obj_id.Tbl.add t.objs obj ol;
      ol

let add t ~action ~scope =
  let ol = obj_locks t (Action.obj action) in
  let c =
    match find_class action ol.classes with
    | c -> c
    | exception Not_found ->
        let c = { rep = action; owner = ol; members = []; n_members = 0; n_held = 0 } in
        ol.classes <- c :: ol.classes;
        c
  in
  let e = { action; scope; retainer = Action.id action; live = true; clazz = c } in
  ol.grants <- ol.grants + 1;
  c.members <- e :: c.members;
  c.n_members <- c.n_members + 1;
  c.n_held <- c.n_held + 1;
  index_id t.by_scope scope e;
  index_id t.by_retainer e.retainer e;
  index_top t.by_top (Action_id.top scope) e;
  t.n_live <- t.n_live + 1

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

(* The last two tests are [Commutativity.conflicts] with the object's
   spec resolved once per probe: every entry met here is on the
   requester's object, and an entry of the requester itself is on its
   call path. *)
let entry_conflicts spec action id e =
  (not (retained_compatible e id))
  && (not (call_path_related (Action.id e.action) id))
  && (not (Process_id.equal (Action.process e.action) (Action.process action)))
  && not (Commutativity.test spec action e.action)

let rec members_conflicting spec action id acc = function
  | [] -> acc
  | e :: rest ->
      let acc = if entry_conflicts spec action id e then e :: acc else acc in
      members_conflicting spec action id acc rest

(* With a stable spec, one raw test against the representative
   dismisses the whole class: commutation at the spec level holds for
   every member, and the per-entry rules only remove further conflicts,
   never add any. *)
let rec classes_conflicting spec stable action id acc = function
  | [] -> acc
  | c :: rest ->
      let acc =
        if stable && Commutativity.test spec action c.rep then acc
        else begin
          purge c;
          members_conflicting spec action id acc c.members
        end
      in
      classes_conflicting spec stable action id acc rest

let grants e = e.clazz.owner.grants

(* A conflict answer is a function of the object's live entries, their
   retainers and the requester's pin.  Entries only die and retainers
   only move up, which can only remove conflicts: so the answer can
   differ only if a blocker died or is retained on the requester's path
   now, or the object granted a lock since (the requester's pin is the
   caller's to watch). *)
let rec changed_since ~grants:seen requester = function
  | [] -> false
  | b :: rest ->
      grants b <> seen || (not b.live) || retained_compatible b requester
      || changed_since ~grants:seen requester rest

let by_holder a b = Action_id.compare (Action.id a.action) (Action.id b.action)

let conflicting reg t action =
  match Obj_id.Tbl.find t.objs (Action.obj action) with
  | exception Not_found -> []
  | ol ->
      let spec = Commutativity.spec_for reg (Action.obj action) in
      (* holder order reaches wound-wait's victim sequence, so fix it by
         the holders' ids rather than by where the classes sit; most
         probes find no holder, and [List.sort] allocates even then *)
      match
        classes_conflicting spec (Commutativity.stable spec) action
          (Action.id action) [] ol.classes
      with
      | ([] | [ _ ]) as holders -> holders
      | holders -> List.sort by_holder holders

let rec remove_class c = function
  | [] -> []
  | c' :: rest -> if c' == c then rest else c' :: remove_class c rest

(* the entry's class leaves its object with its last live entry *)
let kill t e =
  if e.live then begin
    e.live <- false;
    t.n_live <- t.n_live - 1;
    let c = e.clazz in
    c.n_held <- c.n_held - 1;
    if c.n_held = 0 then c.owner.classes <- remove_class c c.owner.classes
  end

(* the entries indexed under [key], which leaves the index; released
   ones among them are skipped by their users *)
let drain_id tbl key =
  match Action_id.Tbl.find tbl key with
  | exception Not_found -> []
  | l ->
      Action_id.Tbl.remove tbl key;
      l

(* a loop rather than [List.iter (kill t)], whose partial application
   would allocate on every release *)
let rec kill_all t = function
  | [] -> ()
  | e :: rest ->
      kill t e;
      kill_all t rest

let release_scope t scope = kill_all t (drain_id t.by_scope scope)

(* Open nesting scopes a lock to its acquirer's caller, so an entry
   [finished] retains usually holds its caller's id already. *)
let rec caller_of finished = function
  | e :: rest ->
      if Action_id.is_parent e.scope finished then e.scope
      else caller_of finished rest
  | [] -> Option.get (Action_id.parent finished)

let rec retain t parent = function
  | [] -> ()
  | e :: rest ->
      if e.live then begin
        e.retainer <- parent;
        index_id t.by_retainer parent e
      end;
      retain t parent rest

(* Completion of an action: every lock it retains moves up to its
   caller. *)
let escalate t finished =
  if not (Action_id.is_root finished) then
    match drain_id t.by_retainer finished with
    | [] -> ()
    | retained -> retain t (caller_of finished retained) retained

let release_top t top =
  match Top_tbl.find t.by_top top with
  | exception Not_found -> ()
  | l ->
      Top_tbl.remove t.by_top top;
      kill_all t l

(* Live entries held on behalf of one top-level transaction — the
   post-mortem a server runs after killing a session: a dead transaction
   must retain nothing. *)
let live_for_top t top =
  match Top_tbl.find t.by_top top with
  | exception Not_found -> []
  | l -> List.filter live l

let classes t obj =
  match Obj_id.Tbl.find t.objs obj with
  | exception Not_found -> 0
  | ol -> List.length ol.classes

let total t = t.n_live
