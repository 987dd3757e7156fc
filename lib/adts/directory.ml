(* Directory: a name-to-value map (Weihl's directory type, §2).

   Keyed commutativity like the set, with the addition of a [list]
   operation that reads every name and therefore conflicts with all
   updates — the phantom problem at the abstract-data-type level, the
   analogue of the paper's readSeq on the encyclopedia. *)

open Ooser_core

type t = { mutable bindings : (Value.t * Value.t) list }

let create () = { bindings = [] }

let lookup t k =
  List.find_map
    (fun (k', v) -> if Value.equal k k' then Some v else None)
    t.bindings

let bind t k v =
  t.bindings <- (k, v) :: List.filter (fun (k', _) -> not (Value.equal k k')) t.bindings

let unbind t k =
  t.bindings <- List.filter (fun (k', _) -> not (Value.equal k k')) t.bindings

(* key order: the binding order is representation, and a client listing
   the directory must not see which of two distinct-key binds ran last *)
let names t = List.sort Value.compare (List.map fst t.bindings)
let cardinal t = List.length t.bindings

let same_key_commutes m m' =
  match (m, m') with
  | "lookup", "lookup" -> true
  | ("bind" | "unbind"), _ | _, ("bind" | "unbind") -> false
  | _ -> false

let spec =
  let keyed =
    Commutativity.by_key ~key_of:Commutativity.first_arg
      (Commutativity.predicate ~stable:true ~name:"directory-keyed" (fun a b ->
           same_key_commutes (Action.meth a) (Action.meth b)))
  in
  Commutativity.predicate ~stable:true ~name:"directory"
    ~vocab:[ "bind"; "unbind"; "lookup"; "list" ]
    (fun a b ->
      match (Action.meth a, Action.meth b) with
      | "list", ("bind" | "unbind") | ("bind" | "unbind"), "list" -> false
      | "list", "list" | "list", "lookup" | "lookup", "list" -> true
      | _ -> Commutativity.test keyed a b)
