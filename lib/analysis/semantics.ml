(* Executable small-scope semantics for the shipped ADTs: the ground
   truth the spec-inference analyzer (infer.ml, DESIGN §16) compares
   hand-written commutativity matrices against.

   Each model runs REAL ADT code from lib/adts — the state encoding and
   the undo closures mirror lib/oodb/adt_objects.ml, so a verdict here is
   about the code the engine actually executes, not a re-implementation
   of its specification. *)

open Ooser_core
module A = Ooser_adts

type outcome = Ret of Value.t | Err of string

type call = { result : outcome; undo : unit -> outcome }

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
  | A.Escrow_counter.Bounds_violation msg -> Err msg
  | Invalid_argument msg -> Err msg
  | Failure msg -> Err msg
  | Not_found -> Err "not found"

(* Undoing a call that never applied (errored) is a successful no-op;
   pure observers undo the same way. *)
let noop_undo () = Ret Value.unit

let pure result = { result; undo = noop_undo }

let unknown model_name m =
  { result = Err (Printf.sprintf "%s: no model for method %S" model_name m);
    undo = noop_undo;
  }

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
    let t = A.Escrow_counter.create ~low ~high v in
    let update apply inverse args =
      match args with
      | n :: _ ->
          let n = match Value.to_int n with Some n -> n | None -> -1 in
          let result = guard (fun () -> apply t n; Value.unit) in
          let undo () =
            match result with
            | Err _ -> Ret Value.unit
            | Ret _ -> guard (fun () -> inverse t n; Value.unit)
          in
          { result; undo }
      | [] -> { result = Err "escrow: missing amount"; undo = noop_undo }
    in
    let exec m args =
      match m with
      | "incr" | "deposit" ->
          update A.Escrow_counter.incr A.Escrow_counter.decr args
      | "decr" | "withdraw" ->
          update A.Escrow_counter.decr A.Escrow_counter.incr args
      | "read" | "balance" ->
          pure (Ret (Value.int (A.Escrow_counter.value t)))
      | m -> unknown "escrow-counter" m
    in
    let observe () = Value.int (A.Escrow_counter.value t) in
    {
      hand = A.Escrow_counter.spec t;
      pin = Some (A.Escrow_counter.pin t);
      exec;
      observe;
    }
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
    let t = A.Kv_set.create () in
    (match s with
    | Value.List pairs ->
        List.iter
          (fun p ->
            match p with
            | Value.Pair (e, Value.Int n) -> A.Kv_set.add_count t e n
            | _ -> invalid_arg "Semantics.kv_set: malformed state")
          pairs
    | _ -> invalid_arg "Semantics.kv_set: malformed state");
    let exec m args =
      match (m, args) with
      | "insert", v :: _ ->
          let result = guard (fun () -> A.Kv_set.insert t v; Value.unit) in
          let undo () =
            match result with
            | Err _ -> Ret Value.unit
            | Ret _ -> guard (fun () -> A.Kv_set.decr_count t v; Value.unit)
          in
          { result; undo }
      | "remove", v :: _ ->
          let dropped = ref 0 in
          let result =
            guard (fun () ->
                dropped := A.Kv_set.remove t v;
                Value.pair (Value.str "dropped") (Value.int !dropped))
          in
          let undo () =
            match result with
            | Err _ -> Ret Value.unit
            | Ret _ ->
                guard (fun () ->
                    if !dropped > 0 then A.Kv_set.add_count t v !dropped;
                    Value.unit)
          in
          { result; undo }
      | "contains", v :: _ -> pure (Ret (Value.bool (A.Kv_set.mem t v)))
      | "cardinal", _ -> pure (Ret (Value.int (A.Kv_set.cardinal t)))
      | ("insert" | "remove" | "contains"), [] ->
          { result = Err "kv-set: missing element"; undo = noop_undo }
      | m, _ -> unknown "kv-set" m
    in
    let observe () =
      enc_set
        (List.map (fun e -> (e, A.Kv_set.count t e)) (A.Kv_set.elements t))
    in
    { hand = A.Kv_set.spec; pin = None; exec; observe }
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

let enc_fifo items = Value.list items

let fifo_drain t =
  let rec go acc =
    match A.Fifo_queue.dequeue t with
    | Some v -> go (v :: acc)
    | None -> List.rev acc
  in
  go []

let fifo_refill t items = List.iter (A.Fifo_queue.enqueue t) items

(* Engine compensation of an enqueue: drop the LAST occurrence of the
   value (lib/oodb/adt_objects.ml, removeLastOf). *)
let fifo_remove_last_of t v =
  let items = fifo_drain t in
  let rec drop_first = function
    | [] -> None
    | x :: rest when Value.equal x v -> Some rest
    | x :: rest -> Option.map (fun r -> x :: r) (drop_first rest)
  in
  match drop_first (List.rev items) with
  | Some rest ->
      fifo_refill t (List.rev rest);
      Ret Value.unit
  | None ->
      fifo_refill t items;
      Err "fifo: removeLastOf found no matching element"

let fifo =
  let instantiate s =
    let t = A.Fifo_queue.create () in
    (match s with
    | Value.List items -> fifo_refill t items
    | _ -> invalid_arg "Semantics.fifo: malformed state");
    let exec m args =
      match (m, args) with
      | "enqueue", v :: _ ->
          A.Fifo_queue.enqueue t v;
          { result = Ret Value.unit; undo = (fun () -> fifo_remove_last_of t v) }
      | "enqueue", [] -> { result = Err "fifo: missing element"; undo = noop_undo }
      | "dequeue", _ -> (
          match A.Fifo_queue.dequeue t with
          | Some v ->
              {
                result = Ret (Value.pair (Value.str "some") v);
                undo =
                  (fun () ->
                    let items = fifo_drain t in
                    fifo_refill t (v :: items);
                    Ret Value.unit);
              }
          | None ->
              { result = Ret (Value.pair (Value.str "none") Value.unit);
                undo = noop_undo;
              })
      | "length", _ -> pure (Ret (Value.int (A.Fifo_queue.length t)))
      | m, _ -> unknown "fifo-queue" m
    in
    let observe () =
      let items = fifo_drain t in
      fifo_refill t items;
      Value.list items
    in
    { hand = A.Fifo_queue.spec; pin = Some (A.Fifo_queue.pin t); exec;
      observe }
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
        enc_fifo [];
        enc_fifo [ Value.int 1 ];
        enc_fifo [ Value.int 1; Value.int 2 ];
        enc_fifo [ Value.int 1; Value.int 2; Value.int 3 ];
      ];
    gen_state =
      QCheck.Gen.(
        list_size (int_range 0 4) (int_range 1 3 >|= Value.int) >|= enc_fifo);
    instantiate;
  }

(* ---------- directory ---------- *)

let enc_dir bindings =
  Value.list
    (List.sort Value.compare
       (List.map (fun (k, v) -> Value.pair k v) bindings))

let directory =
  let instantiate s =
    let t = A.Directory.create () in
    (match s with
    | Value.List bindings ->
        List.iter
          (fun p ->
            match p with
            | Value.Pair (k, v) -> A.Directory.bind t k v
            | _ -> invalid_arg "Semantics.directory: malformed state")
          bindings
    | _ -> invalid_arg "Semantics.directory: malformed state");
    let exec m args =
      match (m, args) with
      | "bind", k :: v :: _ ->
          let old = A.Directory.lookup t k in
          A.Directory.bind t k v;
          {
            result = Ret Value.unit;
            undo =
              (fun () ->
                (match old with
                | Some w -> A.Directory.bind t k w
                | None -> A.Directory.unbind t k);
                Ret Value.unit);
          }
      | "unbind", k :: _ ->
          let old = A.Directory.lookup t k in
          A.Directory.unbind t k;
          {
            result = Ret Value.unit;
            undo =
              (fun () ->
                (match old with Some w -> A.Directory.bind t k w | None -> ());
                Ret Value.unit);
          }
      | "lookup", k :: _ ->
          pure
            (Ret
               (match A.Directory.lookup t k with
               | Some v -> Value.pair (Value.str "some") v
               | None -> Value.pair (Value.str "none") Value.unit))
      | "list", _ ->
          (* canonical: sorted names — insertion order is representation,
             not abstraction *)
          pure
            (Ret (Value.list (List.sort Value.compare (A.Directory.names t))))
      | ("bind" | "unbind" | "lookup"), _ ->
          { result = Err "directory: missing key"; undo = noop_undo }
      | m, _ -> unknown "directory" m
    in
    let observe () =
      enc_dir
        (List.filter_map
           (fun k -> Option.map (fun v -> (k, v)) (A.Directory.lookup t k))
           (A.Directory.names t))
    in
    { hand = A.Directory.spec; pin = None; exec; observe }
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

(* Run [first] then [second], undo [first]; the state must be exactly
   what [second] alone produces.  (With [undo_second = true], undo the
   SECOND call instead and compare against [first] alone.) *)
let abort_scenario m s ~undo_second first second =
  let i = m.instantiate s in
  let c1 = i.exec (fst first) (snd first) in
  let c2 = i.exec (fst second) (snd second) in
  let victim, survivor = if undo_second then (c2, first) else (c1, second) in
  match (c1.result, c2.result) with
  | Ret _, Ret _ -> (
      match victim.undo () with
      | Err _ -> false
      | Ret _ -> (
          let j = m.instantiate s in
          let cs = j.exec (fst survivor) (snd survivor) in
          match cs.result with
          | Ret _ -> Value.equal (i.observe ()) (j.observe ())
          | Err _ -> false))
  | _ -> false

let commute_at m s p q =
  forward_at m s p q
  && abort_scenario m s ~undo_second:false p q
  && abort_scenario m s ~undo_second:true p q
  && abort_scenario m s ~undo_second:false q p
  && abort_scenario m s ~undo_second:true q p
