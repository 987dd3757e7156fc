(* Per-transaction effect summaries: the abstract footprint of one
   static transaction summary.

   The abstraction keeps, per summary, the set of distinct
   (object, method, arguments) classes it can reach — the
   "argument-class abstraction": two calls with the same method and the
   same declared arguments are one class, since every commutativity
   decision downstream (stable specs, Def. 9) is a function of exactly
   that triple.  Depths are recorded because open-nested compensation
   obligations (COMP001) and inheritance chains (Defs. 10-11) depend on
   where in the call tree a class occurs. *)

open Ooser_core

type atom = {
  obj : Obj_id.t;  (* de-virtualised *)
  meth : string;
  args : Value.t list;
  depth : int;  (* shallowest occurrence; 1 = called by the root *)
  count : int;  (* occurrences of the class in the summary *)
}

type t = {
  txn : string;
  atoms : atom list;  (* first-touch order *)
  objects : Obj_id.t list;  (* first-touch order, de-virtualised *)
  max_depth : int;
}

let of_summary (s : Summary.t) =
  let occ = ref [] and maxd = ref 0 in
  let rec visit depth (c : Summary.call) =
    if depth > !maxd then maxd := depth;
    occ := (Obj_id.original c.Summary.obj, c.Summary.meth, c.Summary.args, depth) :: !occ;
    List.iter (visit (depth + 1)) c.Summary.children
  in
  List.iter (visit 1) s.Summary.body;
  let atoms =
    List.fold_left
      (fun acc (o, m, args, d) ->
        let same a =
          Obj_id.equal a.obj o && String.equal a.meth m
          && List.equal Value.equal a.args args
        in
        if List.exists same acc then
          List.map
            (fun a ->
              if same a then { a with count = a.count + 1; depth = min a.depth d }
              else a)
            acc
        else acc @ [ { obj = o; meth = m; args; depth = d; count = 1 } ])
      [] (List.rev !occ)
  in
  { txn = s.Summary.name; atoms; objects = Summary.objects s; max_depth = !maxd }

let atoms_on t o =
  let o = Obj_id.original o in
  List.filter (fun a -> Obj_id.equal a.obj o) t.atoms

(* Canonical structural key of a summary's call tree: summaries with
   equal keys describe the same transaction type (the instance name —
   "transfer7" — does not matter for pairwise analysis). *)
let shape_key (s : Summary.t) =
  let buf = Buffer.create 128 in
  let rec go (c : Summary.call) =
    Buffer.add_string buf (Obj_id.to_string (Obj_id.original c.Summary.obj));
    Buffer.add_char buf '.';
    Buffer.add_string buf c.Summary.meth;
    Buffer.add_char buf '(';
    List.iter
      (fun v ->
        Buffer.add_string buf (Value.to_string v);
        Buffer.add_char buf ',')
      c.Summary.args;
    Buffer.add_char buf ')';
    Buffer.add_char buf '[';
    List.iter go c.Summary.children;
    Buffer.add_char buf ']'
  in
  List.iter go s.Summary.body;
  Buffer.contents buf

let pp ppf t =
  Fmt.pf ppf "@[<v>effects %s (depth %d):@," t.txn t.max_depth;
  List.iter
    (fun a ->
      Fmt.pf ppf "  %a.%s(%a) depth %d x%d@," Obj_id.pp a.obj a.meth
        (Fmt.list ~sep:(Fmt.any ", ") Value.pp)
        a.args a.depth a.count)
    t.atoms;
  Fmt.pf ppf "@]"
