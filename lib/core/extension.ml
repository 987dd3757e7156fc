(* System extension with virtual objects (Def. 5, Example 3 / Fig. 6).

   When a transaction [t] calls an action [a] (directly or indirectly) and
   both access the same object [O], the call path forms a cycle through
   [O].  The extension breaks it: [a] is moved to a virtual object [O'];
   all other actions on [O] are virtually duplicated onto [O'] and linked
   to their originals by call edges, so that dependencies arising at the
   virtual object are inherited to the original object.

   Implementation choices (documented deviations, see DESIGN.md):
   - The virtual rank of an action is the number of its proper ancestors
     accessing the same (original) object; rank-k actions of *all*
     transactions share the virtual object [O^k].  This preserves
     conflicts between re-entrant actions of different transactions, which
     per-action virtual objects would lose.
   - Every action of rank < k on [O] is duplicated onto [O^k].  Def. 5
     excludes the ancestor [t] from duplication; we instead skip
     ancestor/descendant pairs of the same transaction at conflict time
     ([same_call_path]), which is equivalent for sequential transactions
     and well-defined when several transactions share [O^k]. *)

open Ids

type t = {
  history : History.t;
  actions : Action.t Action_id.Map.t;
  caller : Action_id.t Action_id.Map.t;
  acts_of : Action_id.Set.t Obj_id.Map.t;
  leaves : Action_id.Set.t;
  span : (int * int) Action_id.Map.t;
  prog_rel : Action.Rel.t;
  virtual_objects : Obj_id.t list;
}

let history t = t.history

let action t id =
  match Action_id.Map.find_opt id t.actions with
  | Some a -> a
  | None -> invalid_arg (Fmt.str "Extension.action: unknown %a" Action_id.pp id)

let caller_of t id = Action_id.Map.find_opt id t.caller
let acts_of t o =
  match Obj_id.Map.find_opt o t.acts_of with
  | Some s -> s
  | None -> Action_id.Set.empty

let objects t = List.map fst (Obj_id.Map.bindings t.acts_of)
let virtual_objects t = t.virtual_objects
let is_leaf t id = Action_id.Set.mem id t.leaves

let span_of t id = Action_id.Map.find_opt id t.span
let prog_rel t = t.prog_rel

let same_call_path a b =
  let a = Action_id.devirtualize a and b = Action_id.devirtualize b in
  Action_id.equal a b
  || Action_id.is_proper_ancestor a b
  || Action_id.is_proper_ancestor b a

let extend h =
  let trees = History.tops h in
  (* Base action map and caller map from the call trees. *)
  let base_actions =
    List.fold_left
      (fun m a -> Action_id.Map.add (Action.id a) a m)
      Action_id.Map.empty (History.all_actions h)
  in
  let base_caller =
    List.fold_left
      (fun m tree ->
        Action_id.Map.union (fun _ a _ -> Some a) m (Call_tree.caller_map tree))
      Action_id.Map.empty trees
  in
  let span = History.span_map h in
  let base_leaves =
    Action_id.Set.of_list (List.map Action.id (History.all_primitives h))
  in
  (* Virtual rank: number of proper ancestors on the same original object. *)
  let rank_of id act =
    let obj = Obj_id.original (Action.obj act) in
    let rec count cur n =
      match Action_id.Map.find_opt cur base_caller with
      | None -> n
      | Some p ->
          let n =
            match Action_id.Map.find_opt p base_actions with
            | Some pa when Obj_id.equal (Obj_id.original (Action.obj pa)) obj ->
                n + 1
            | _ -> n
          in
          count p n
    in
    count id 0
  in
  let ranks =
    Action_id.Map.mapi (fun id act -> rank_of id act) base_actions
  in
  (* Move rank-k actions to the shared virtual object O^k. *)
  let moved_actions =
    Action_id.Map.mapi
      (fun id act ->
        let k = Action_id.Map.find id ranks in
        if k = 0 then act
        else { act with Action.obj = Obj_id.virtualize (Action.obj act) ~rank:k })
      base_actions
  in
  let max_rank_of_obj =
    Action_id.Map.fold
      (fun id act m ->
        let o = Obj_id.original (Action.obj act) in
        let k = Action_id.Map.find id ranks in
        let cur = match Obj_id.Map.find_opt o m with Some v -> v | None -> 0 in
        if k > cur then Obj_id.Map.add o k m else m)
      base_actions Obj_id.Map.empty
  in
  (* Duplicates: every rank-j action on O is duplicated onto O^k, j < k. *)
  let duplicates =
    Obj_id.Map.fold
      (fun o max_rank acc ->
        if max_rank = 0 then acc
        else
          Action_id.Map.fold
            (fun id act acc ->
              if
                not
                  (Obj_id.equal (Obj_id.original (Action.obj act)) o)
              then acc
              else
                let j = Action_id.Map.find id ranks in
                let rec add_dups k acc =
                  if k > max_rank then acc
                  else
                    let dup =
                      Action.with_virtual
                        (Action_id.Map.find id moved_actions)
                        ~rank:k
                        ~obj:(Obj_id.virtualize o ~rank:k)
                    in
                    add_dups (k + 1) ((id, dup) :: acc)
                in
                add_dups (j + 1) acc)
            base_actions acc)
      max_rank_of_obj []
  in
  let actions =
    List.fold_left
      (fun m (_, dup) -> Action_id.Map.add (Action.id dup) dup m)
      moved_actions duplicates
  in
  let caller =
    List.fold_left
      (fun m (orig, dup) -> Action_id.Map.add (Action.id dup) orig m)
      base_caller duplicates
  in
  let span =
    List.fold_left
      (fun m (orig, dup) ->
        match Action_id.Map.find_opt orig m with
        | Some s -> Action_id.Map.add (Action.id dup) s m
        | None -> m)
      span duplicates
  in
  let leaves =
    List.fold_left
      (fun s (_, dup) -> Action_id.Set.add (Action.id dup) s)
      base_leaves duplicates
  in
  let acts_of =
    Action_id.Map.fold
      (fun id act m ->
        let o = Action.obj act in
        let cur =
          match Obj_id.Map.find_opt o m with
          | Some s -> s
          | None -> Action_id.Set.empty
        in
        Obj_id.Map.add o (Action_id.Set.add id cur) m)
      actions Obj_id.Map.empty
  in
  let prog_rel =
    List.fold_left
      (fun rel tree ->
        List.fold_left
          (fun rel (a, a') -> Action.Rel.add a a' rel)
          rel
          (Call_tree.program_order_pairs tree))
      Action.Rel.empty trees
  in
  let virtual_objects =
    Obj_id.Map.fold
      (fun o max_rank acc ->
        let rec go k acc =
          if k > max_rank then acc
          else go (k + 1) (Obj_id.virtualize o ~rank:k :: acc)
        in
        go 1 acc)
      max_rank_of_obj []
  in
  { history = h; actions; caller; acts_of; leaves; span; prog_rel; virtual_objects }
