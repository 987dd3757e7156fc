(* Static dependency-inheritance analysis (Defs. 10-13 read as structure).

   One *pair* of transaction summaries is instantiated as two call trees
   (tops 1 and 2) and put through the real Def. 5 extension, so virtual
   objects, duplicates and caller edges come from exactly the machinery
   the dynamic checker uses — the analysis cannot drift from the
   runtime's view of the program.

   A CHANNEL is a conflicting leaf pair (one action of each transaction
   on one object, after extension): the only place where Axiom 1 orders
   executions directly.  Following Defs. 10-11, a channel deposits
   dependency edges while it climbs the call trees:

   - the leaf pair itself is an action dependency at the leaf object;
   - while the current pair conflicts (Def. 10), the caller pair gains a
     transaction dependency, recorded as combined edges at both callers'
     objects (Def. 16);
   - when both callers sit on the SAME object, the transaction
     dependency is inherited as an action dependency there (Def. 11) and
     the climb continues;
   - the climb STOPS when the caller pair commutes (Def. 11's whole
     point: a commuting caller absorbs its children's conflicts), when
     the callers sit on different objects (a transaction dependency with
     nothing further to inherit), or when it reaches the top-level
     transactions (the roots on the system object).

   Soundness of the atlas rests on a counting argument over deposits:
   one channel deposits at most one cross-transaction edge per object
   (post-extension, a call path never revisits an object — that is what
   Def. 5 ensures), and every cross-transaction edge of the per-object
   dependency relations (Defs. 12-16) originates from some channel.  A
   per-object cycle needs at least two cross edges at one object, so a
   pair whose channels share no deposit object is oo-serializable under
   EVERY interleaving.  Shared deposit objects make the pair a
   candidate, resolved by exhaustive replay in [Atlas]. *)

open Ooser_core

let default_sys = Call_tree.Build.default_sys

(* The registry as the engine sees it: the system object S carries no
   semantics (Def. 4) and commutes with everything. *)
let with_system ~sys reg =
  Commutativity.registry
    ~known:(fun o -> Obj_id.equal o sys || Commutativity.known reg o)
    (fun o ->
      if Obj_id.equal o sys then Commutativity.all_commute
      else Commutativity.spec_for reg o)

let rec build_call (c : Summary.call) =
  Call_tree.Build.call ~args:c.Summary.args c.Summary.obj c.Summary.meth
    (List.map build_call c.Summary.children)

let instantiate ?(sys = default_sys) ~top (s : Summary.t) =
  Call_tree.Build.top ~sys ~name:s.Summary.name ~n:top
    (List.map build_call s.Summary.body)

type stop =
  | Reached_top
      (* the conflict escalated into a top-level transaction dependency *)
  | Callers_commute  (* Def. 11: inheritance stops at a commuting pair *)
  | Different_objects
      (* callers on different objects: a transaction dependency with no
         action dependency to inherit *)

type channel = {
  source : Obj_id.t;  (* object of the conflicting leaf pair *)
  leaves : Action_id.t * Action_id.t;
  meths : string * string;
  trail : Obj_id.t list;
      (* objects holding an inherited action dependency, leaf first *)
  deposits : Obj_id.t list;  (* every object receiving any edge *)
  stop : stop;
}

type t = {
  left : Summary.t;
  right : Summary.t;
  tops : Call_tree.t * Call_tree.t;
  registry : Commutativity.registry;  (* augmented: sys all-commutes *)
  ext : Extension.t;  (* of the serial pair history *)
  channels : channel list;
  shared : Obj_id.t list;
      (* objects receiving deposits from >= 2 distinct channels — the
         only places a per-object dependency cycle can close *)
  unstable : Obj_id.t list;
      (* touched objects with state-reading specs: their conflicts
         cannot be decided statically at all *)
}

let make_channel ext reg (u0, v0) =
  let act = Extension.action ext in
  let deposits = ref [] and trail = ref [] in
  let deposit o =
    if not (List.exists (Obj_id.equal o) !deposits) then
      deposits := o :: !deposits
  in
  let rec climb u v =
    let o = Action.obj (act u) in
    trail := o :: !trail;
    deposit o;
    if not (Commutativity.conflicts reg (act u) (act v)) then Callers_commute
    else
      match (Extension.caller_of ext u, Extension.caller_of ext v) with
      | Some p, Some q when not (Action_id.equal p q) ->
          let op = Action.obj (act p) and oq = Action.obj (act q) in
          deposit op;
          deposit oq;
          if Action_id.is_root p || Action_id.is_root q then Reached_top
          else if Obj_id.equal op oq then climb p q
          else Different_objects
      | _ ->
          (* distinct tops always have distinct callers up to the roots *)
          Reached_top
  in
  let stop = climb u0 v0 in
  {
    source = Action.obj (act u0);
    leaves = (u0, v0);
    meths = (Action.meth (act u0), Action.meth (act v0));
    trail = List.rev !trail;
    deposits = List.rev !deposits;
    stop;
  }

let analyse ?(sys = default_sys) reg (left : Summary.t) (right : Summary.t) =
  let reg = with_system ~sys reg in
  let t1 = instantiate ~sys ~top:1 left
  and t2 = instantiate ~sys ~top:2 right in
  let h = History.of_serial ~tops:[ t1; t2 ] ~commut:reg in
  let ext = Extension.extend h in
  let act = Extension.action ext in
  let channels = ref [] in
  List.iter
    (fun o ->
      if not (Obj_id.equal (Obj_id.original o) sys) then begin
        let leaves top =
          Action_id.Set.elements (Extension.acts_of ext o)
          |> List.filter (fun id ->
                 Action_id.top id = top && Extension.is_leaf ext id)
        in
        let l2 = leaves 2 in
        List.iter
          (fun u ->
            List.iter
              (fun v ->
                if
                  (not (Extension.same_call_path u v))
                  && Commutativity.conflicts reg (act u) (act v)
                then channels := make_channel ext reg (u, v) :: !channels)
              l2)
          (leaves 1)
      end)
    (Extension.objects ext);
  let channels = List.rev !channels in
  let shared =
    let all = ref [] in
    List.iter
      (fun c ->
        List.iter
          (fun o ->
            match List.assoc_opt (Obj_id.to_string o) !all with
            | Some n -> all := (Obj_id.to_string o, (o, snd n + 1)) :: List.remove_assoc (Obj_id.to_string o) !all
            | None -> all := (Obj_id.to_string o, (o, 1)) :: !all)
          c.deposits)
      channels;
    List.rev !all
    |> List.filter_map (fun (_, (o, n)) -> if n >= 2 then Some o else None)
  in
  let unstable =
    List.fold_left
      (fun acc o ->
        let o = Obj_id.original o in
        if
          Obj_id.equal o sys
          || List.exists (Obj_id.equal o) acc
          ||
          let spec = Commutativity.spec_for reg o in
          Commutativity.stable spec && not (Commutativity.pinned spec)
        then acc
        else acc @ [ o ])
      [] (Extension.objects ext)
  in
  { left; right; tops = (t1, t2); registry = reg; ext; channels; shared;
    unstable }

let reaches_top c = c.stop = Reached_top

