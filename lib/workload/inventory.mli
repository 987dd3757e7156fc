(** An inventory / order-processing application composing the §2 abstract
    data types: escrow stock counters, a directory catalog, a FIFO order
    queue, and an escrow revenue tally behind one Store object.

    Concurrent orders for ample stock commute (escrow); when stock runs
    short the commutativity vanishes and orders serialize.  An
    insufficient-stock debit is caught with {!Runtime.try_call} and the
    order is rejected without aborting the transaction. *)

open Ooser_core
open Ooser_oodb
module Rng = Ooser_sim.Rng
module Dist = Ooser_sim.Dist

type t

val create : ?name:string -> ?products:int -> ?initial_stock:int -> Database.t -> t
(** @raise Invalid_argument when [products <= 0]. *)

val stock_level : t -> int -> int
val revenue_total : t -> int
val pending_orders : t -> int
val product : t -> int -> string

val place_order : t -> Runtime.ctx -> product:string -> qty:int -> int option
(** [Some total_price] when accepted, [None] when rejected (unknown
    product or insufficient stock). *)

val fulfil_one : t -> Runtime.ctx -> Value.t option
val report : t -> Runtime.ctx -> int list
(** All stock levels — conflicts with every order. *)

type params = {
  products : int;
  initial_stock : int;
  n_txns : int;
  orders_per_txn : int;
  qty : int;
  dist : Dist.t;
}

val default_params : params

val setup :
  rng:Rng.t ->
  params ->
  Database.t ->
  t * (int * string * (Runtime.ctx -> Value.t)) list

val static_summaries :
  t -> rng:Rng.t -> params -> Ooser_analysis.Summary.t list
(** Static call summaries of the order transactions of {!setup} (an
    [rng] created from the same seed reproduces the same product picks),
    plus one fulfil and one report transaction to cover the full Store
    method surface. *)
