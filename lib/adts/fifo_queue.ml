(* FIFO queue with state-dependent commutativity (Spector & Schwartz,
   §2): two dequeues never commute, two enqueues never commute (they fix
   the order of elements), but an enqueue commutes with a dequeue whenever
   the queue is non-empty — the dequeue takes an old element no matter
   which order they run in.  Emptiness is pinned when each action
   executes, so the spec never reads the live queue. *)

open Ooser_core

type t = { mutable front : Value.t list; mutable back : Value.t list }

let create () = { front = []; back = [] }

let is_empty t = t.front = [] && t.back = []

let length t = List.length t.front + List.length t.back

let enqueue t v = t.back <- v :: t.back

let dequeue t =
  match t.front with
  | x :: rest ->
      t.front <- rest;
      Some x
  | [] -> (
      match List.rev t.back with
      | [] -> None
      | x :: rest ->
          t.front <- rest;
          t.back <- [];
          Some x)

let peek t =
  match t.front with
  | x :: _ -> Some x
  | [] -> ( match List.rev t.back with x :: _ -> Some x | [] -> None)

let to_list t = t.front @ List.rev t.back

let pin t = Value.bool (is_empty t)

(* An enqueue and a dequeue commute when the queue was non-empty at
   BOTH of their pinned pre-states (conservative, like escrow); an
   unpinned probe conflicts. *)
let spec =
  let non_empty a = Action.pin a = Some (Value.bool false) in
  Commutativity.predicate ~stable:true ~pinned:true ~name:"fifo-queue"
    ~vocab:[ "enqueue"; "dequeue"; "length" ]
    (fun a b ->
      match (Action.meth a, Action.meth b) with
      | "enqueue", "dequeue" | "dequeue", "enqueue" ->
          non_empty a && non_empty b
      | "enqueue", "enqueue" -> (
          (* equal values are indistinguishable in the queue, so the two
             orders yield identical states — a conservative cell the
             spec-inference oracle proved commutative (the removeLastOf
             compensation already handles the abort case).  Probes
             without arguments stay conservative. *)
          match (Action.args a, Action.args b) with
          | v :: _, w :: _ -> Value.equal v w
          | _ -> false)
      | "dequeue", "dequeue" -> false
      | "length", "length" -> true
      | "length", _ | _, "length" -> false
      | _ -> false)
