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

(* One hash lookup finds an object: the engine resolves every invocation
   here, and the lock protocols' registry asks for the spec on every
   request.  A table is single-domain state: a shard's database is read
   only from the shard's own domain (its snapshots carry the specs other
   domains need). *)
type t = { objects : obj Obj_id.Tbl.t }

let create () = { objects = Obj_id.Tbl.create 64 }

let register t oid ~spec ?pin methods =
  if Obj_id.Tbl.mem t.objects oid then
    invalid_arg (Fmt.str "Database.register: %a already registered" Obj_id.pp oid);
  Obj_id.Tbl.replace t.objects oid { spec; pin; methods }

let register_or_replace t oid ~spec ?pin methods =
  Obj_id.Tbl.replace t.objects oid { spec; pin; methods }

let mem t oid = Obj_id.Tbl.mem t.objects oid

let objects t =
  List.sort Obj_id.compare
    (Obj_id.Tbl.fold (fun oid _ acc -> oid :: acc) t.objects [])

let find t oid = Obj_id.Tbl.find_opt t.objects oid

let methods t oid =
  match find t oid with None -> [] | Some o -> List.map fst o.methods

let spec t oid = Option.map (fun o -> o.spec) (find t oid)

let pin t oid =
  Option.bind (find t oid) (fun o -> Option.map (fun p -> p ()) o.pin)

let compensated_methods t oid =
  match find t oid with
  | None -> []
  | Some o ->
      List.filter_map
        (fun (name, m) -> if Option.is_some m.compensate then Some name else None)
        o.methods

let rec assoc_meth name = function
  | [] -> None
  | (n, m) :: rest -> if String.equal n name then Some m else assoc_meth name rest

let resolve t oid name =
  match Obj_id.Tbl.find t.objects oid with
  | exception Not_found -> Error (Fmt.str "unknown object %a" Obj_id.pp oid)
  | o -> (
      match assoc_meth name o.methods with
      | Some m -> Ok (m, o.pin)
      | None -> Error (Fmt.str "object %a has no method %s" Obj_id.pp oid name))

(* Direct synchronous execution: nested calls run at once, with no
   locking and no recording.  The engine compensates a partial rollback
   this way (the surrounding frame still holds its semantic locks: the
   open nesting rule); spec inference runs the shipped methods this way. *)
let rec run_direct t ?(on_undo = ignore) ctx (inv : Runtime.invocation) :
    Value.t =
  match resolve t inv.Runtime.target inv.Runtime.meth_name with
  | Error msg -> failwith ("compensation failed: " ^ msg)
  | Ok (m, _) ->
      let direct = run_direct t ~on_undo ctx in
      let open Effect.Deep in
      try_with (m.run ctx) inv.Runtime.args
        {
          effc =
            (fun (type a) (eff : a Effect.t) :
                 ((a, Value.t) continuation -> Value.t) option ->
              match eff with
              | Runtime.Invoke inv -> Some (fun k -> continue k (direct inv))
              | Runtime.Invoke_par invs ->
                  Some (fun k -> continue k (List.map direct invs))
              | Runtime.Invoke_try inv ->
                  Some
                    (fun k ->
                      continue k
                        (try Ok (direct inv) with Runtime.Abort msg -> Error msg))
              | Runtime.Register_undo g ->
                  Some (fun k -> on_undo g; continue k ())
              | Runtime.Await ->
                  Some (fun _ -> failwith "compensation awaited external input")
              | _ -> None);
        }

let spec_registry ?(default = Commutativity.all_conflict) t =
  Commutativity.registry
    ~known:(fun oid -> Obj_id.Tbl.mem t.objects oid)
    (fun oid ->
      match Obj_id.Tbl.find t.objects oid with
      | o -> o.spec
      | exception Not_found -> default)
