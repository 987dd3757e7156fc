(* Object schedules and the dependency-inheritance engine
   (Defs. 6, 10, 11, 15).

   For every object [O] we compute:
   - the action dependency relation [≺ ⊆ ACT_O × ACT_O] (Def. 11):
     bootstrapped at the leaves from the execution order (Axiom 1),
     augmented with program-order pairs (conformance, Def. 7), and closed
     under inheritance of transaction dependencies from the objects the
     actions of [O] call into;
   - the transaction dependency relation [⇒ ⊆ TRA_O × TRA_O] (Def. 10):
     the callers of *conflicting* dependent actions inherit the
     dependency — commuting pairs stop the inheritance, which is where
     open nesting gains concurrency;
   - the added action dependency relation (Def. 15): transaction
     dependencies recorded at other objects whose endpoints do not both
     live on [O], recorded redundantly at the objects of both endpoints.

   The two relations are mutually recursive across objects (an action on
   [O] is a transaction on the objects it calls into), so we iterate to a
   fixpoint; both relations only grow, the universe is finite, hence
   termination. *)

open Ids

(* Why an action dependency edge exists (diagnostics / the explain
   feature). *)
type dep_source =
  | Axiom1  (* conflicting leaves ordered by execution (Axiom 1) *)
  | Completion  (* leaf/non-leaf pair ordered by span (see DESIGN.md) *)
  | Program_order  (* the n3 precedence of Def. 7 *)
  | Inherited of Obj_id.t  (* from the transaction dependency at that object *)

type object_schedule = {
  obj : Obj_id.t;
  acts : Action_id.Set.t;
  act_dep : Action.Rel.t;
  txn_dep : Action.Rel.t;
  added_dep : Action.Rel.t;
  act_src : dep_source Action.Pair_map.t;
  txn_src : (Action_id.t * Action_id.t) Action.Pair_map.t;
      (* the conflicting action pair at this object that induced the
         transaction dependency (Def. 10's witness) *)
}

type t = {
  ext : Extension.t;
  objects : object_schedule Obj_id.Map.t;
}

let extension t = t.ext
let objects t = List.map snd (Obj_id.Map.bindings t.objects)

let find t o = Obj_id.Map.find_opt o t.objects

let find_exn t o =
  match find t o with
  | Some s -> s
  | None -> invalid_arg (Fmt.str "Schedule.find_exn: no schedule for %a" Obj_id.pp o)

(* Conflict test honouring Def. 9 (same-process actions commute) and the
   virtual-extension exclusion of call-path pairs. *)
let conflicts ext a_id a'_id =
  (not (Extension.same_call_path a_id a'_id))
  &&
  let reg = History.commut (Extension.history ext) in
  Commutativity.conflicts reg (Extension.action ext a_id)
    (Extension.action ext a'_id)

let span_start ext id =
  match Extension.span_of ext id with Some (lo, _) -> lo | None -> max_int

(* Bootstrap: conflicting pairs with at least one leaf are ordered by the
   execution order (Axiom 1 for leaf/leaf pairs; span order completes the
   leaf/non-leaf case, see DESIGN.md). *)
let bootstrap ext o =
  let acts = Action_id.Set.elements (Extension.acts_of ext o) in
  let rel = ref Action.Rel.empty in
  let src = ref Action.Pair_map.empty in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun a' ->
            if
              (Extension.is_leaf ext a || Extension.is_leaf ext a')
              && conflicts ext a a'
            then begin
              let why =
                if Extension.is_leaf ext a && Extension.is_leaf ext a' then
                  Axiom1
                else Completion
              in
              let sa = span_start ext a and sa' = span_start ext a' in
              if sa < sa' then begin
                rel := Action.Rel.add a a' !rel;
                src := Action.Pair_map.add (a, a') why !src
              end
              else if sa' < sa then begin
                rel := Action.Rel.add a' a !rel;
                src := Action.Pair_map.add (a', a) why !src
              end
              else ()
            end)
          rest;
        pairs rest
  in
  pairs acts;
  (!rel, !src)

(* Program-order pairs restricted to one object (conformance, Def. 7). *)
let prog_pairs ext o =
  let acts = Extension.acts_of ext o in
  Action.Rel.restrict (fun v -> Action_id.Set.mem v acts)
    (Extension.prog_rel ext)

(* Def. 10: transaction dependencies of one object from its current action
   dependencies, each edge carrying its witness pair. *)
let derive_txn_dep ext act_dep =
  Action.Rel.fold_edges
    (fun a a' ((rel, src) as acc) ->
      if not (conflicts ext a a') then acc
      else
        match (Extension.caller_of ext a, Extension.caller_of ext a') with
        | Some t, Some t' when not (Action_id.equal t t') ->
            ( Action.Rel.add t t' rel,
              if Action.Pair_map.mem (t, t') src then src
              else Action.Pair_map.add (t, t') (a, a') src )
        | _ -> acc)
    act_dep
    (Action.Rel.empty, Action.Pair_map.empty)

let compute ?ext h =
  let ext = match ext with Some e -> e | None -> Extension.extend h in
  let objs = Extension.objects ext in
  (* act state per object: relation + provenance *)
  let act0 =
    List.fold_left
      (fun m o ->
        let brel, bsrc = bootstrap ext o in
        let prel = prog_pairs ext o in
        let src =
          Action.Rel.fold_edges
            (fun a a' src ->
              if Action.Pair_map.mem (a, a') src then src
              else Action.Pair_map.add (a, a') Program_order src)
            prel bsrc
        in
        Obj_id.Map.add o (Action.Rel.union brel prel, src) m)
      Obj_id.Map.empty objs
  in
  let txn0 =
    List.fold_left
      (fun m o -> Obj_id.Map.add o (Action.Rel.empty, Action.Pair_map.empty) m)
      Obj_id.Map.empty objs
  in
  (* Fixpoint: Def. 10 (txn deps from act deps) and Def. 11 (act deps from
     txn deps of other objects). *)
  let rec fix act txn =
    let txn' =
      Obj_id.Map.mapi
        (fun o _ -> derive_txn_dep ext (fst (Obj_id.Map.find o act)))
        txn
    in
    let act' =
      Obj_id.Map.mapi
        (fun o (rel, src) ->
          let acts = Extension.acts_of ext o in
          Obj_id.Map.fold
            (fun p (prel, _) (rel, src) ->
              Action.Rel.fold_edges
                (fun t t' (rel, src) ->
                  if
                    Action_id.Set.mem t acts
                    && Action_id.Set.mem t' acts
                    && not (Action.Rel.mem t t' rel)
                  then
                    ( Action.Rel.add t t' rel,
                      Action.Pair_map.add (t, t') (Inherited p) src )
                  else (rel, src))
                prel (rel, src))
            txn' (rel, src))
        act
    in
    let same =
      Obj_id.Map.for_all
        (fun o (r, _) -> Action.Rel.equal r (fst (Obj_id.Map.find o act')))
        act
      && Obj_id.Map.for_all
           (fun o (r, _) -> Action.Rel.equal r (fst (Obj_id.Map.find o txn')))
           txn
    in
    if same then (act', txn') else fix act' txn'
  in
  let act, txn = fix act0 txn0 in
  let act_dep = Obj_id.Map.map fst act in
  let txn_dep = Obj_id.Map.map fst txn in
  (* Added action dependencies (Def. 15): every transaction dependency
     recorded anywhere is attached to the objects of both endpoints. *)
  let all_txn =
    Obj_id.Map.fold (fun _ r acc -> Action.Rel.union acc r) txn_dep
      Action.Rel.empty
  in
  let added =
    List.fold_left
      (fun m o ->
        let acts = Extension.acts_of ext o in
        let touches v = Action_id.Set.mem v acts in
        let rel =
          Action.Rel.filter_edges (fun t u -> touches t || touches u) all_txn
        in
        Obj_id.Map.add o rel m)
      Obj_id.Map.empty objs
  in
  let objects =
    List.fold_left
      (fun m o ->
        Obj_id.Map.add o
          {
            obj = o;
            acts = Extension.acts_of ext o;
            act_dep = Obj_id.Map.find o act_dep;
            txn_dep = Obj_id.Map.find o txn_dep;
            added_dep = Obj_id.Map.find o added;
            act_src = snd (Obj_id.Map.find o act);
            txn_src = snd (Obj_id.Map.find o txn);
          }
          m)
      Obj_id.Map.empty objs
  in
  { ext; objects }

(* Def. 12: two object schedules are equivalent iff they have the same
   transaction dependency relation; two system schedules are equivalent
   iff all their object schedules are (the union over absent objects being
   empty). *)
let equivalent a b =
  let objs =
    List.sort_uniq Obj_id.compare
      (List.map (fun s -> s.obj) (objects a) @ List.map (fun s -> s.obj) (objects b))
  in
  List.for_all
    (fun o ->
      let dep t = match find t o with
        | Some s -> s.txn_dep
        | None -> Action.Rel.empty
      in
      Action.Rel.equal (dep a) (dep b))
    objs

let pp_object ppf s =
  Fmt.pf ppf "@[<v 2>%a:@,acts: %a@,act_dep: %a@,txn_dep: %a@]" Obj_id.pp s.obj
    (Fmt.list ~sep:(Fmt.any " ") Action_id.pp)
    (Action_id.Set.elements s.acts)
    Action.Rel.pp s.act_dep Action.Rel.pp s.txn_dep

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_object) (objects t)
