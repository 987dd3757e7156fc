(* Actions: executed messages on objects (Defs. 1-3). *)

open Ids

type t = {
  id : Action_id.t;
  obj : Obj_id.t;
  meth : string;
  args : Value.t list;
  process : Process_id.t;
  pin : Value.t option;
      (* object state the action executed in, as the object's pin
         function reports it; state-reading specs decide on it *)
}

let v ~id ~obj ~meth ?(args = []) ?pin ~process () =
  { id; obj; meth; args; process; pin }

let id t = t.id
let obj t = t.obj
let meth t = t.meth
let args t = t.args
let process t = t.process
let pin t = t.pin
let with_pin t pin = { t with pin = Some pin }
let is_virtual t = Action_id.is_virtual t.id || Obj_id.is_virtual t.obj

let with_virtual t ~rank ~obj =
  { t with id = Action_id.virtualize t.id ~rank; obj }

let compare a b = Action_id.compare a.id b.id
let equal a b = compare a b = 0

let pp ppf t =
  Fmt.pf ppf "%a:%a.%s(%a)" Action_id.pp t.id Obj_id.pp t.obj t.meth
    (Fmt.list ~sep:(Fmt.any ", ") Value.pp)
    t.args

let to_string t = Fmt.str "%a" pp t

(* Relations over actions are keyed by action identifier. *)
module Rel = Digraph.Make (struct
  type t = Action_id.t

  let compare = Action_id.compare
  let pp = Action_id.pp
end)

(* Maps keyed by ordered pairs of action identifiers, used to attach
   provenance to dependency edges. *)
module Pair_map = Map.Make (struct
  type t = Action_id.t * Action_id.t

  let compare (a, b) (c, d) =
    match Action_id.compare a c with
    | 0 -> Action_id.compare b d
    | x -> x
end)
