(* The semantically rich abstract data types of §2 (Weihl's sets and
   directories, Spector & Schwartz's queues, O'Neil's escrow counters)
   registered as encapsulated database objects: each object couples the
   ADT state with its commutativity specification, its methods register
   undo closures, and updates carry compensations for open nesting. *)

open Ooser_core
module Escrow = Ooser_adts.Escrow_counter
module Kv_set = Ooser_adts.Kv_set
module Fifo_queue = Ooser_adts.Fifo_queue
module Directory = Ooser_adts.Directory

let one_arg = function
  | [ v ] -> v
  | _ -> invalid_arg "expected one argument"

let int_arg args = Value.to_int_exn (one_arg args)

(* -- escrow counter ------------------------------------------------------------ *)

(* One escrow method table under caller-chosen names: the counter's
   incr/decr/read and the banking accounts' deposit/withdraw/balance. *)
let counter_methods c ~incr ~decr ~read =
  let incr_m ctx args =
    let n = int_arg args in
    Escrow.incr c n;
    Runtime.on_undo ctx (fun () -> Escrow.decr c n);
    Value.unit
  in
  let decr_m ctx args =
    let n = int_arg args in
    Escrow.decr c n;
    Runtime.on_undo ctx (fun () -> Escrow.incr c n);
    Value.unit
  in
  let read_m _ _ = Value.int (Escrow.value c) in
  [
    (incr, Database.primitive incr_m);
    (decr, Database.primitive decr_m);
    (read, Database.primitive read_m);
  ]

let register_counter db oid ?(low = min_int) ?(high = max_int) initial =
  let c = Escrow.create ~low ~high initial in
  Database.register db oid ~spec:(Escrow.spec c) ~pin:(fun () -> Escrow.pin c)
    (counter_methods c ~incr:"incr" ~decr:"decr" ~read:"read");
  c

(* -- set -------------------------------------------------------------------------- *)

let register_set db oid =
  let s = Kv_set.create () in
  (* the counted representation makes compensations commute: undoing an
     insert decrements the element's count, so a concurrent same-key
     insert by another transaction survives our abort *)
  let insert ctx args =
    let v = one_arg args in
    Kv_set.insert s v;
    Runtime.on_undo ctx (fun () -> Kv_set.decr_count s v);
    Value.unit
  in
  let compensate_insert args _result =
    match args with
    | [ v ] ->
        Database.Inverse
          { Runtime.target = oid; meth_name = "decrCount"; args = [ v ] }
    | _ -> Database.Keep_undo
  in
  let decr_count ctx args =
    let v = one_arg args in
    let had = Kv_set.count s v in
    Kv_set.decr_count s v;
    Runtime.on_undo ctx (fun () -> if had > 0 then Kv_set.insert s v);
    Value.unit
  in
  let remove ctx args =
    let v = one_arg args in
    let dropped = Kv_set.remove s v in
    Runtime.on_undo ctx (fun () -> Kv_set.add_count s v dropped);
    Value.pair (Value.str "dropped") (Value.int dropped)
  in
  let compensate_remove args result =
    match (args, result) with
    | [ v ], Value.Pair (_, Value.Int dropped) when dropped > 0 ->
        Database.Inverse
          { Runtime.target = oid; meth_name = "addCount";
            args = [ v; Value.int dropped ] }
    | _ -> Database.Forget
  in
  let add_count ctx args =
    match args with
    | [ v; Value.Int n ] ->
        Kv_set.add_count s v n;
        Runtime.on_undo ctx (fun () -> Kv_set.add_count s v (-n));
        Value.unit
    | _ -> invalid_arg "addCount"
  in
  let contains _ args = Value.bool (Kv_set.mem s (one_arg args)) in
  let cardinal _ _ = Value.int (Kv_set.cardinal s) in
  Database.register db oid ~spec:Kv_set.spec
    [
      ("insert", Database.primitive ~compensate:compensate_insert insert);
      ("remove", Database.primitive ~compensate:compensate_remove remove);
      ("decrCount", Database.primitive decr_count);
      ("addCount", Database.primitive add_count);
      ("contains", Database.primitive contains);
      ("cardinal", Database.primitive cardinal);
    ];
  s

(* -- FIFO queue -------------------------------------------------------------------- *)

let register_queue db oid =
  let q = Fifo_queue.create () in
  let drain () =
    let rec go acc =
      match Fifo_queue.dequeue q with
      | Some x -> go (x :: acc)
      | None -> List.rev acc
    in
    go []
  in
  let refill items = List.iter (Fifo_queue.enqueue q) items in
  (* remove the LAST occurrence of [v], wherever it sits — the logical
     inverse of an enqueue even after later enqueues by others *)
  let remove_last_of v =
    let items = drain () in
    let rec drop_first = function
      | [] -> []
      | x :: rest when Value.equal x v -> rest
      | x :: rest -> x :: drop_first rest
    in
    refill (List.rev (drop_first (List.rev items)))
  in
  let push_front v =
    let items = drain () in
    refill (v :: items)
  in
  let enqueue ctx args =
    let v = one_arg args in
    Fifo_queue.enqueue q v;
    Runtime.on_undo ctx (fun () -> remove_last_of v);
    Value.unit
  in
  (* compensations: once the enclosing subtransaction committed at its
     level, the queue may have grown/shrunk under other transactions, so
     the inverse is a method invocation that re-acquires the lock *)
  let compensate_enqueue args _result =
    match args with
    | [ v ] ->
        Database.Inverse
          { Runtime.target = oid; meth_name = "removeLastOf"; args = [ v ] }
    | _ -> Database.Keep_undo
  in
  let remove_last_meth ctx args =
    let v = one_arg args in
    let before = drain () in
    refill before;
    Runtime.on_undo ctx (fun () ->
        ignore (drain ());
        refill before);
    remove_last_of v;
    Value.unit
  in
  let dequeue ctx _ =
    match Fifo_queue.dequeue q with
    | Some v ->
        Runtime.on_undo ctx (fun () -> push_front v);
        Value.pair (Value.str "some") v
    | None -> Value.pair (Value.str "none") Value.unit
  in
  let compensate_dequeue _args result =
    match result with
    | Value.Pair (Value.Str "some", v) ->
        Database.Inverse
          { Runtime.target = oid; meth_name = "requeueFront"; args = [ v ] }
    | _ -> Database.Forget
  in
  let requeue_front ctx args =
    let v = one_arg args in
    push_front v;
    Runtime.on_undo ctx (fun () -> ignore (Fifo_queue.dequeue q));
    Value.unit
  in
  let length _ _ = Value.int (Fifo_queue.length q) in
  Database.register db oid ~spec:Fifo_queue.spec
    ~pin:(fun () -> Fifo_queue.pin q)
    [
      ("enqueue", Database.primitive ~compensate:compensate_enqueue enqueue);
      ("dequeue", Database.primitive ~compensate:compensate_dequeue dequeue);
      ("removeLastOf", Database.primitive remove_last_meth);
      ("requeueFront", Database.primitive requeue_front);
      ("length", Database.primitive length);
    ];
  q

(* -- directory ----------------------------------------------------------------------- *)

let register_directory db oid =
  let d = Directory.create () in
  let bind ctx args =
    match args with
    | [ k; v ] ->
        let old = Directory.lookup d k in
        Directory.bind d k v;
        Runtime.on_undo ctx (fun () ->
            match old with
            | Some o -> Directory.bind d k o
            | None -> Directory.unbind d k);
        Value.unit
    | _ -> invalid_arg "bind: expected key and value"
  in
  let unbind ctx args =
    let k = one_arg args in
    let old = Directory.lookup d k in
    Directory.unbind d k;
    Runtime.on_undo ctx (fun () ->
        match old with Some o -> Directory.bind d k o | None -> ());
    Value.unit
  in
  let lookup _ args =
    match Directory.lookup d (one_arg args) with
    | Some v -> Value.pair (Value.str "some") v
    | None -> Value.pair (Value.str "none") Value.unit
  in
  let list _ _ = Value.list (Directory.names d) in
  Database.register db oid ~spec:Directory.spec
    [
      ("bind", Database.primitive bind);
      ("unbind", Database.primitive unbind);
      ("lookup", Database.primitive lookup);
      ("list", Database.primitive list);
    ];
  d
