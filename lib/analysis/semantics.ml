(* Executable small-scope semantics for the shipped ADTs: the ground
   truth the spec-inference analyzer (infer.ml, DESIGN §16) compares
   hand-written commutativity matrices against.  A model holds no method
   code: each instance registers the shipped object (adt_objects.ml) in
   a private database and runs its methods, undo closures and
   compensations through Database.run_direct, so a verdict is about the
   code the engine executes. *)

open Ooser_core
module A = Ooser_adts
module Database = Ooser_oodb.Database
module Runtime = Ooser_oodb.Runtime
module Adt_objects = Ooser_oodb.Adt_objects

type outcome = Ret of Value.t | Err of string

type call = {
  result : outcome;
  undo : unit -> outcome;
  compensate : unit -> outcome;
}

type instance = {
  hand : Commutativity.spec;
  pin : Value.t option;
  exec : string -> Value.t list -> call;
  observe : unit -> Value.t;
}

type footprint = Reads_all | Writes_all | Reads_key | Writes_key

type model = {
  model_name : string;
  spec_name : string;
  vocab : string list;
  footprints : (string * footprint) list;
  arg_vectors : (string * Value.t list list) list;
  states : Value.t list;
  gen_state : Value.t QCheck.Gen.t;
  instantiate : Value.t -> instance;
}

let guard f =
  try Ret (f ()) with
  | A.Escrow_counter.Bounds_violation msg | Invalid_argument msg
  | Failure msg | Runtime.Abort msg -> Err msg
  | Not_found -> Err "not found"

let ctx = { Runtime.top = 0 }

let query ?on_undo db oid meth args =
  Database.run_direct db ?on_undo ctx (Runtime.invocation oid meth args)

let instance db oid ~observe =
  let exec meth args =
    let undos = ref [] in
    let on_undo g = undos := g :: !undos in
    let result = guard (fun () -> query ~on_undo db oid meth args) in
    (* the engine's rollback of a frame that still holds its locks *)
    let undo () = guard (fun () -> List.iter (fun g -> g ()) !undos; Value.unit) in
    (* what the engine runs once the call completed at its level *)
    let compensate () =
      match (result, Database.resolve db oid meth) with
      | Ret v, Ok ({ Database.compensate = Some comp; _ }, _) -> (
          match comp args v with
          | Database.Inverse inv -> guard (fun () -> Database.run_direct db ctx inv)
          | Database.Forget -> Ret Value.unit
          | Database.Keep_undo -> undo ())
      | _ -> undo ()
    in
    { result; undo; compensate }
  in
  { hand = Option.get (Database.spec db oid); pin = Database.pin db oid; exec;
    observe }

(* each model's object in its private database *)
let oid = Obj_id.v "model"

let elements name = function
  | Value.List xs -> xs
  | _ -> invalid_arg ("Semantics." ^ name ^ ": malformed state")

(* ---------- escrow counter ---------- *)

let enc_counter low high v =
  Value.list [ Value.int low; Value.int high; Value.int v ]

let dec_counter s =
  match s with
  | Value.List [ Value.Int low; Value.Int high; Value.Int v ] -> (low, high, v)
  | _ -> invalid_arg "Semantics.counter: malformed state"

let counter =
  let instantiate s =
    let low, high, v = dec_counter s in
    let c = A.Escrow_counter.create ~low ~high v in
    let db = Database.create () in
    Database.register db oid ~spec:(A.Escrow_counter.spec c)
      ~pin:(fun () -> A.Escrow_counter.pin c)
      (Adt_objects.counter_methods c ~incr:"incr" ~decr:"decr" ~read:"read"
      @ Adt_objects.counter_methods c ~incr:"deposit" ~decr:"withdraw"
          ~read:"balance");
    instance db oid ~observe:(fun () -> query db oid "read" [])
  in
  {
    model_name = "escrow-counter";
    spec_name = "escrow-counter";
    vocab = [ "incr"; "decr"; "read"; "deposit"; "withdraw"; "balance" ];
    footprints =
      [
        ("incr", Writes_all);
        ("decr", Writes_all);
        ("deposit", Writes_all);
        ("withdraw", Writes_all);
        ("read", Reads_all);
        ("balance", Reads_all);
      ];
    arg_vectors =
      (let amounts = [ [ Value.int 1 ]; [ Value.int 2 ]; [ Value.int 3 ] ] in
       [
         ("incr", amounts);
         ("decr", amounts);
         ("deposit", amounts);
         ("withdraw", amounts);
         ("read", [ [] ]);
         ("balance", [ [] ]);
       ]);
    states =
      [
        enc_counter 0 4 0;
        enc_counter 0 4 1;
        enc_counter 0 4 2;
        enc_counter 0 4 3;
        enc_counter 0 4 4;
        enc_counter 0 8 4;
        enc_counter 0 1000 500;
      ];
    gen_state =
      QCheck.Gen.(
        int_range 1 12 >>= fun high ->
        int_range 0 high >|= fun v -> enc_counter 0 high v);
    instantiate;
  }

(* ---------- counted kv set ---------- *)

let enc_set pairs =
  Value.list
    (List.sort Value.compare
       (List.filter_map
          (fun (e, n) ->
            if n > 0 then Some (Value.pair e (Value.int n)) else None)
          pairs))

let set_elems = [ Value.str "a"; Value.str "b"; Value.str "c" ]

let kv_set =
  let instantiate s =
    let db = Database.create () in
    let t = Adt_objects.register_set db oid in
    List.iter
      (function
        | Value.Pair (e, Value.Int n) -> A.Kv_set.add_count t e n
        | _ -> invalid_arg "Semantics.kv_set: malformed state")
      (elements "kv_set" s);
    let observe () =
      enc_set
        (List.map (fun e -> (e, A.Kv_set.count t e)) (A.Kv_set.elements t))
    in
    instance db oid ~observe
  in
  let a = Value.str "a" and b = Value.str "b" in
  {
    model_name = "kv-set";
    spec_name = Commutativity.name A.Kv_set.spec;
    vocab = [ "insert"; "remove"; "contains"; "cardinal" ];
    footprints =
      [
        ("insert", Writes_key);
        ("remove", Writes_key);
        ("contains", Reads_key);
        ("cardinal", Reads_all);
      ];
    arg_vectors =
      [
        ("insert", [ [ a ]; [ b ] ]);
        ("remove", [ [ a ]; [ b ] ]);
        ("contains", [ [ a ]; [ b ] ]);
        ("cardinal", [ [] ]);
      ];
    states =
      [
        enc_set [];
        enc_set [ (a, 1) ];
        enc_set [ (a, 2) ];
        enc_set [ (a, 1); (b, 1) ];
        enc_set [ (a, 2); (b, 1) ];
      ];
    gen_state =
      QCheck.Gen.(
        flatten_l (List.map (fun e -> int_range 0 3 >|= fun n -> (e, n)) set_elems)
        >|= enc_set);
    instantiate;
  }

(* ---------- fifo queue ---------- *)

let fifo =
  let instantiate s =
    let db = Database.create () in
    let q = Adt_objects.register_queue db oid in
    List.iter (A.Fifo_queue.enqueue q) (elements "fifo" s);
    instance db oid ~observe:(fun () -> Value.list (A.Fifo_queue.to_list q))
  in
  {
    model_name = "fifo-queue";
    spec_name = "fifo-queue";
    vocab = [ "enqueue"; "dequeue"; "length" ];
    footprints =
      [ ("enqueue", Writes_all); ("dequeue", Writes_all); ("length", Reads_all) ];
    arg_vectors =
      [
        ("enqueue", [ [ Value.int 7 ]; [ Value.int 8 ] ]);
        ("dequeue", [ [] ]);
        ("length", [ [] ]);
      ];
    states =
      [
        (* distinct elements matter: duplicate-only queues make two
           dequeues look commutative at that state *)
        Value.list [];
        Value.list [ Value.int 1 ];
        Value.list [ Value.int 1; Value.int 2 ];
        Value.list [ Value.int 1; Value.int 2; Value.int 3 ];
      ];
    gen_state =
      QCheck.Gen.(
        list_size (int_range 0 4) (int_range 1 3 >|= Value.int) >|= Value.list);
    instantiate;
  }

(* ---------- directory ---------- *)

let enc_dir bindings =
  Value.list
    (List.sort Value.compare
       (List.map (fun (k, v) -> Value.pair k v) bindings))

let directory =
  let instantiate s =
    let db = Database.create () in
    let d = Adt_objects.register_directory db oid in
    List.iter
      (function
        | Value.Pair (k, v) -> A.Directory.bind d k v
        | _ -> invalid_arg "Semantics.directory: malformed state")
      (elements "directory" s);
    (* read through the shipped list and lookup: what clients see *)
    let observe () =
      Value.list
        (List.filter_map
           (fun k ->
             match query db oid "lookup" [ k ] with
             | Value.Pair (Value.Str "some", v) -> Some (Value.pair k v)
             | _ -> None)
           (elements "directory" (query db oid "list" [])))
    in
    instance db oid ~observe
  in
  let a = Value.str "a" and b = Value.str "b" in
  {
    model_name = "directory";
    spec_name = Commutativity.name A.Directory.spec;
    vocab = [ "bind"; "unbind"; "lookup"; "list" ];
    footprints =
      [
        ("bind", Writes_key);
        ("unbind", Writes_key);
        ("lookup", Reads_key);
        ("list", Reads_all);
      ];
    arg_vectors =
      [
        ("bind", [ [ a; Value.int 1 ]; [ a; Value.int 2 ]; [ b; Value.int 1 ] ]);
        ("unbind", [ [ a ]; [ b ] ]);
        ("lookup", [ [ a ]; [ b ] ]);
        ("list", [ [] ]);
      ];
    states =
      [
        enc_dir [];
        enc_dir [ (a, Value.int 1) ];
        enc_dir [ (a, Value.int 1); (b, Value.int 2) ];
        enc_dir [ (a, Value.int 2) ];
      ];
    gen_state =
      QCheck.Gen.(
        flatten_l
          (List.map
             (fun k ->
               int_range 0 3 >|= fun v ->
               if v = 0 then None else Some (k, Value.int v))
             set_elems)
        >|= fun bs -> enc_dir (List.filter_map Fun.id bs));
    instantiate;
  }

let all = [ counter; kv_set; fifo; directory ]

let for_spec spec =
  let n = Commutativity.name spec in
  List.find_opt (fun m -> String.equal m.spec_name n) all

let footprint m meth = List.assoc_opt meth m.footprints

let vectors m meth =
  match List.assoc_opt meth m.arg_vectors with
  | Some vs -> vs
  | None -> [ [] ]

(* ---------- the oracle ---------- *)

let outcome_equal o o' =
  match (o, o') with
  | Ret v, Ret v' -> Value.equal v v'
  | Err _, Err _ -> false (* conservative: errors never commute *)
  | _ -> false

let forward_at m s p q =
  let run (m1, a1) (m2, a2) =
    let i = m.instantiate s in
    let c1 = i.exec m1 a1 in
    let c2 = i.exec m2 a2 in
    (c1.result, c2.result, i.observe ())
  in
  let p_first, q_second, obs_pq = run p q in
  let q_first, p_second, obs_qp = run q p in
  outcome_equal p_first p_second
  && outcome_equal q_first q_second
  && Value.equal obs_pq obs_qp

(* Run [first] then [second], undo [first] by [route]; the state must be
   exactly what [second] alone produces.  (With [undo_second = true],
   undo the SECOND call instead and compare against [first] alone.) *)
let abort_scenario m s ~route ~undo_second first second =
  let i = m.instantiate s in
  let c1 = i.exec (fst first) (snd first) in
  let c2 = i.exec (fst second) (snd second) in
  let victim, survivor = if undo_second then (c2, first) else (c1, second) in
  match (c1.result, c2.result) with
  | Ret _, Ret _ -> (
      match route victim () with
      | Err _ -> false
      | Ret _ -> (
          let j = m.instantiate s in
          let cs = j.exec (fst survivor) (snd survivor) in
          match cs.result with
          | Ret _ -> Value.equal (i.observe ()) (j.observe ())
          | Err _ -> false))
  | _ -> false

(* Abort safety must hold for both ways the engine undoes a call. *)
let commute_at m s p q =
  forward_at m s p q
  && List.for_all
       (fun route ->
         abort_scenario m s ~route ~undo_second:false p q
         && abort_scenario m s ~route ~undo_second:true p q
         && abort_scenario m s ~route ~undo_second:false q p
         && abort_scenario m s ~route ~undo_second:true q p)
       [ (fun c -> c.undo); (fun c -> c.compensate) ]
