(* Escrow counter (O'Neil; [9, 14, 17] in the paper).

   A bounded counter whose increments and decrements commute as long as
   the escrow test guarantees that both succeed in either order: the
   commutativity of two updates depends on the parameter values and the
   current state, which is exactly the refinement §2 attributes to the
   escrow method. *)

open Ooser_core

type t = { mutable value : int; low : int; high : int }

exception Bounds_violation of string

let create ?(low = min_int) ?(high = max_int) value =
  if value < low || value > high then
    invalid_arg "Escrow_counter.create: initial value out of bounds";
  { value; low; high }

let value t = t.value
let low t = t.low
let high t = t.high

let apply t delta =
  let v = t.value + delta in
  if v < t.low || v > t.high then
    raise
      (Bounds_violation
         (Printf.sprintf "escrow: %d%+d outside [%d, %d]" t.value delta t.low
            t.high))
  else t.value <- v

let incr t n =
  if n < 0 then invalid_arg "Escrow_counter.incr: negative amount";
  apply t n

let decr t n =
  if n < 0 then invalid_arg "Escrow_counter.decr: negative amount";
  apply t (-n)

(* Delta of an update action; [None] for reads/unknown methods.  The
   banking vocabulary (deposit/withdraw) is accepted alongside
   incr/decr. *)
let delta_of act =
  let amount () =
    match Action.args act with
    | v :: _ -> ( match Value.to_int v with Some n -> Some n | None -> None)
    | [] -> None
  in
  match Action.meth act with
  | "incr" | "deposit" -> amount ()
  | "decr" | "withdraw" -> Option.map (fun n -> -n) (amount ())
  | _ -> None

let is_read act =
  match Action.meth act with "read" | "balance" -> true | _ -> false

let pin t = Value.int t.value

let within t v = v >= t.low && v <= t.high

(* Escrow commutativity, pinned: two updates commute when, from the
   state each of them executed in, running both in either order keeps
   every prefix within bounds.  Testing at BOTH pinned pre-states is
   conservative — each pin is a state one of the two actually ran in —
   and makes the verdict a pure function of the two recorded actions
   (DESIGN §21 has the soundness argument).  An unpinned update (an
   analyzer probe that never executed) conflicts: no state vouches for
   it.  A read conflicts with every update and commutes with reads. *)
let spec t =
  Commutativity.predicate ~stable:true ~pinned:true ~name:"escrow-counter"
    ~vocab:[ "incr"; "decr"; "read"; "deposit"; "withdraw"; "balance" ]
    (fun a b ->
      match (delta_of a, delta_of b) with
      | Some da, Some db ->
          let fits pin =
            match Option.bind pin Value.to_int with
            | Some v ->
                within t (v + da) && within t (v + db)
                && within t (v + da + db)
            | None -> false
          in
          fits (Action.pin a) && fits (Action.pin b)
      | None, None ->
          (* two reads commute; unknown methods conflict *)
          is_read a && is_read b
      | Some _, None | None, Some _ -> false)
