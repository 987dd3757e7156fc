(* Banking workload: accounts with escrow semantics (§2's financial-market
   side of Fig. 1, and the semantics-ablation experiment E5).

   Each account is an object over an escrow counter; the commutativity
   level is a parameter:

   - [`Escrow]   deposits and withdrawals commute while the escrow test
                 passes (parameter- and state-dependent commutativity);
   - [`Rw]       deposits/withdrawals are writes, balance reads are
                 reads — method-level but value-blind semantics;
   - [`Conflict] everything conflicts (the conventional view). *)

open Ooser_core
open Ooser_oodb
module Escrow = Ooser_adts.Escrow_counter
module Rng = Ooser_sim.Rng
module Dist = Ooser_sim.Dist

type semantics = [ `Escrow | `Rw | `Conflict ]

let account_obj i = Obj_id.v (Printf.sprintf "Account%d" i)

let spec_for semantics counter =
  match semantics with
  | `Escrow -> Escrow.spec counter
  | `Rw ->
      Commutativity.rw ~reads:[ "balance" ]
        ~writes:[ "deposit"; "withdraw" ]
  | `Conflict -> Commutativity.all_conflict

let register_account db ~semantics i ~balance ~low ~high =
  let counter = Escrow.create ~low ~high balance in
  Database.register db (account_obj i)
    ~spec:(spec_for semantics counter)
    ?pin:
      (match semantics with
      | `Escrow -> Some (fun () -> Escrow.pin counter)
      | `Rw | `Conflict -> None)
    (Adt_objects.counter_methods counter ~incr:"deposit" ~decr:"withdraw"
       ~read:"balance");
  counter

type params = {
  accounts : int;
  initial : int;
  low : int;
  high : int;
  n_txns : int;
  transfers_per_txn : int;
  amount : int;
  dist : Dist.t;
}

let default_params =
  {
    accounts = 10;
    initial = 100;
    low = 0;
    high = 1_000_000;
    n_txns = 8;
    transfers_per_txn = 3;
    amount = 5;
    dist = Dist.uniform 10;
  }

let setup ~semantics p =
  let db = Database.create () in
  let counters =
    Array.init p.accounts (fun i ->
        register_account db ~semantics i ~balance:p.initial ~low:p.low
          ~high:p.high)
  in
  (db, counters)

let transfer_body p ~pairs ctx =
  List.iter
    (fun (src, dst) ->
      ignore
        (Runtime.call ctx (account_obj src) "withdraw" [ Value.int p.amount ]);
      ignore
        (Runtime.call ctx (account_obj dst) "deposit" [ Value.int p.amount ]))
    pairs;
  Value.unit

(* The (source, destination) pairs of every transfer transaction —
   shared by the executable bodies and the static summaries so the
   analyzer sees exactly the program the engine would run. *)
let transfer_plan ~rng p =
  List.init p.n_txns (fun i ->
      let pairs =
        List.init p.transfers_per_txn (fun _ ->
            let src = Dist.sample rng p.dist mod p.accounts in
            let dst = (src + 1 + Rng.int rng (p.accounts - 1)) mod p.accounts in
            (src, dst))
      in
      (i + 1, pairs))

let transactions ~rng p =
  List.map
    (fun (i, pairs) ->
      (i, Printf.sprintf "transfer%d" i, transfer_body p ~pairs))
    (transfer_plan ~rng p)

module Summary = Ooser_analysis.Summary

let static_summaries ~rng p =
  List.map
    (fun (i, pairs) ->
      Summary.txn
        (Printf.sprintf "transfer%d" i)
        (List.concat_map
           (fun (src, dst) ->
             [
               Summary.call
                 ~args:[ Value.int p.amount ]
                 (account_obj src) "withdraw" [];
               Summary.call
                 ~args:[ Value.int p.amount ]
                 (account_obj dst) "deposit" [];
             ])
           pairs))
    (transfer_plan ~rng p)

let total_balance counters =
  Array.fold_left (fun acc c -> acc + Escrow.value c) 0 counters
