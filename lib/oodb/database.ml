(* Object registry: the "homogeneous set of objects" of Def. 4.

   Every object is registered with its commutativity specification and its
   method table.  Methods are closures over the object's state —
   encapsulation is enforced by the engine, which is the only caller of
   method implementations. *)

open Ooser_core

(* What happens to this action's effects when the surrounding transaction
   aborts AFTER the action committed at its level (open nesting):
   - [Keep_undo]: replay the low-level undo closures of its subtree —
     only sound while the subtree's locks are still held;
   - [Forget]: the effects persist (structure modifications such as
     B-tree splits, which are never rolled back);
   - [Inverse inv]: run a compensating invocation (the logical inverse),
     sound because the action's own semantic lock is still held by its
     caller. *)
type compensation =
  | Keep_undo
  | Forget
  | Inverse of Runtime.invocation

type meth = {
  kind : [ `Primitive | `Composite ];
  run : Runtime.ctx -> Value.t list -> Value.t;
  compensate : (Value.t list -> Value.t -> compensation) option;
}

let primitive ?compensate run = { kind = `Primitive; run; compensate }
let composite ?compensate run = { kind = `Composite; run; compensate }

type obj = {
  spec : Commutativity.spec;
  pin : (unit -> Value.t) option;
  methods : (string * meth) list;
}

type t = { mutable objects : obj Obj_id.Map.t }

let create () = { objects = Obj_id.Map.empty }

let register t oid ~spec ?pin methods =
  if Obj_id.Map.mem oid t.objects then
    invalid_arg (Fmt.str "Database.register: %a already registered" Obj_id.pp oid);
  t.objects <- Obj_id.Map.add oid { spec; pin; methods } t.objects

let register_or_replace t oid ~spec ?pin methods =
  t.objects <- Obj_id.Map.add oid { spec; pin; methods } t.objects

let mem t oid = Obj_id.Map.mem oid t.objects

let objects t = List.map fst (Obj_id.Map.bindings t.objects)

let methods t oid =
  match Obj_id.Map.find_opt oid t.objects with
  | None -> []
  | Some o -> List.map fst o.methods

let spec t oid =
  Option.map (fun o -> o.spec) (Obj_id.Map.find_opt oid t.objects)

let pin t oid =
  match Obj_id.Map.find_opt oid t.objects with Some o -> o.pin | None -> None

let compensated_methods t oid =
  match Obj_id.Map.find_opt oid t.objects with
  | None -> []
  | Some o ->
      List.filter_map
        (fun (name, m) -> if Option.is_some m.compensate then Some name else None)
        o.methods

let find_meth t oid name =
  match Obj_id.Map.find_opt oid t.objects with
  | None -> Error (Fmt.str "unknown object %a" Obj_id.pp oid)
  | Some o -> (
      match List.assoc_opt name o.methods with
      | Some m -> Ok m
      | None -> Error (Fmt.str "object %a has no method %s" Obj_id.pp oid name))

let spec_registry ?(default = Commutativity.all_conflict) t =
  Commutativity.registry
    ~known:(fun oid -> Obj_id.Map.mem oid t.objects)
    (fun oid ->
      match Obj_id.Map.find_opt oid t.objects with
      | Some o -> o.spec
      | None -> default)
