(* Protocol comparison on the escrow-heavy banking mix: abort rate and
   throughput of open nested locking, closed nested locking, and the
   multiversion optimistic protocol under commute-mode and rw-mode
   validation, across zipf account-selection skews.

     dune exec bench/protocol_compare.exe           # table to stdout,
                                                    # JSON to BENCH_protocols.json
     dune exec bench/protocol_compare.exe -- -n 64 -o out.json

   Every datapoint's committed history is certified oo-serializable —
   occ points against the store's multiversion order, lock points
   against the engine's execution order.  Exits non-zero unless
   occ(commute)'s abort rate is strictly below occ(rw)'s at every skew:
   the escrow deposits/withdraws that rw-validation (first committer
   wins on any same-object access) must abort are exactly the ones the
   commutativity probes admit. *)

open Ooser_core
open Ooser_oodb
module Protocol = Ooser_cc.Protocol
module Rng = Ooser_sim.Rng
module Dist = Ooser_sim.Dist
module Json = Ooser_sim.Json
module Banking = Ooser_workload.Banking
module Occ = Ooser_occ

type point = {
  theta : float;
  committed : int;
  attempts : int;
  aborted_attempts : int;
  abort_rate : float;
  throughput : float;  (* committed txn/s, wall clock *)
  certified : bool;
}

type curve = { proto : string; points : point list }

(* Balances sit far from the escrow bounds so the state-dependent escrow
   probe answers the same at any probe state: deposits and withdraws
   always commute.  That keeps the post-hoc certification of the lock
   histories sound (near a bound, a final-state probe would report
   conflicts that did not exist at grant time), and it is precisely the
   regime where rw validation pays: every same-account access still
   aborts under occ(rw) while occ(commute) sails through. *)
let accounts = 32

let params ~txns ~theta =
  {
    Banking.default_params with
    Banking.n_txns = txns;
    accounts;
    initial = 10_000;
    dist =
      (if theta = 0.0 then Dist.uniform accounts
       else Dist.zipf ~theta accounts);
  }

(* The same seed builds the same transfer bodies for every protocol, so
   the curves differ only in concurrency control. *)
let bodies ~seed p = Banking.transactions ~rng:(Rng.create ~seed) p

let measure ~proto_name ~protocol ~db ~history_of ~seed p =
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:(seed + 1));
      max_steps = 2_000_000;
    }
  in
  let t0 = Unix.gettimeofday () in
  let out = Engine.run ~config db ~protocol (bodies ~seed p) in
  let elapsed = Unix.gettimeofday () -. t0 in
  let counter k =
    match List.assoc_opt k out.Engine.metrics with Some v -> v | None -> 0
  in
  let committed = List.length out.Engine.committed in
  let attempts = counter "starts" in
  let aborted = attempts - committed in
  ignore proto_name;
  {
    theta = 0.0 (* patched by caller *);
    committed;
    attempts;
    aborted_attempts = aborted;
    abort_rate =
      (if attempts > 0 then float_of_int aborted /. float_of_int attempts
       else 0.0);
    throughput =
      (if elapsed > 0.0 then float_of_int committed /. elapsed else 0.0);
    certified = Serializability.oo_serializable (history_of out);
  }

let lock_point ~ctor ~seed ~theta ~txns =
  let p = params ~txns ~theta in
  let db, _accounts = Banking.setup ~semantics:`Escrow p in
  let protocol = ctor ~reg:(Database.spec_registry db) () in
  {
    (measure ~proto_name:"lock" ~protocol ~db
       ~history_of:(fun out -> out.Engine.history)
       ~seed p)
    with
    theta;
  }

let occ_point ~mode ~seed ~theta ~txns =
  let p = params ~txns ~theta in
  let db, store =
    Occ.Workloads.setup_banking ~mode ~accounts:p.Banking.accounts
      ~balance:p.Banking.initial ~low:p.Banking.low ~high:p.Banking.high ()
  in
  let protocol = Occ.Store.protocol store in
  {
    (measure ~proto_name:"occ" ~protocol ~db
       ~history_of:(fun _ -> Occ.Store.history store)
       ~seed p)
    with
    theta;
  }

let point_json pt =
  Json.(
    Obj
      [ "theta", Float pt.theta; "committed", Int pt.committed;
        "attempts", Int pt.attempts;
        "aborted_attempts", Int pt.aborted_attempts;
        "abort_rate", Float pt.abort_rate;
        "throughput_txn_s", Float pt.throughput;
        "certified", Bool pt.certified ])

let curve_json c =
  Json.(
    Obj
      [ "protocol", String c.proto;
        "points", List (List.map point_json c.points) ])

let () =
  let txns = ref 64 and out = ref "BENCH_protocols.json" and seed = ref 11 in
  let rec parse = function
    | "-n" :: v :: rest ->
        txns := int_of_string v;
        parse rest
    | "-o" :: v :: rest ->
        out := v;
        parse rest
    | "-seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | [] -> ()
    | a :: _ ->
        Fmt.epr
          "protocol_compare: unknown argument %s (expected -n INT, -o FILE, \
           -seed INT)@."
          a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let thetas = [ 0.0; 0.8; 1.2 ] in
  let curves =
    [
      ( "open_nested",
        fun theta ->
          lock_point ~ctor:Protocol.open_nested ~seed:!seed ~theta ~txns:!txns
      );
      ( "closed_nested",
        fun theta ->
          lock_point ~ctor:Protocol.closed_nested ~seed:!seed ~theta
            ~txns:!txns );
      ( "occ_commute",
        fun theta ->
          occ_point ~mode:Occ.Store.Commute ~seed:!seed ~theta ~txns:!txns );
      ( "occ_rw",
        fun theta ->
          occ_point ~mode:Occ.Store.Rw ~seed:!seed ~theta ~txns:!txns );
    ]
  in
  let curves =
    List.map
      (fun (name, f) -> { proto = name; points = List.map f thetas })
      curves
  in
  Fmt.pr "escrow banking mix: %d txns, %d accounts, skews %a@." !txns accounts
    Fmt.(list ~sep:comma float)
    thetas;
  Fmt.pr "%-14s %6s %9s %9s %11s %10s@." "protocol" "theta" "committed"
    "abort%" "txn/s" "certified";
  List.iter
    (fun c ->
      List.iter
        (fun pt ->
          Fmt.pr "%-14s %6.2f %9d %8.1f%% %11.1f %10b@." c.proto pt.theta
            pt.committed (100.0 *. pt.abort_rate) pt.throughput pt.certified)
        c.points)
    curves;
  let find name =
    List.find (fun c -> c.proto = name) curves
  in
  let gate =
    List.map
      (fun theta ->
        let rate c =
          (List.find (fun pt -> pt.theta = theta) (find c).points).abort_rate
        in
        (theta, rate "occ_commute", rate "occ_rw"))
      thetas
  in
  let gate_ok =
    List.for_all (fun (_, commute, rw) -> commute < rw) gate
  in
  let all_certified =
    List.for_all (fun c -> List.for_all (fun pt -> pt.certified) c.points)
      curves
  in
  let json =
    let per_theta (theta, commute, rw) =
      Json.(
        Obj
          [ "theta", Float theta; "occ_commute", Float commute;
            "occ_rw", Float rw ])
    in
    Json.(
      Obj
        [ ( "workload",
            Obj
              [ "kind", String "banking-escrow"; "accounts", Int accounts;
                "txns", Int !txns;
                ( "transfers_per_txn",
                  Int Banking.default_params.Banking.transfers_per_txn );
                "seed", Int !seed ] );
          "skews", List (List.map (fun t -> Float t) thetas);
          "protocols", List (List.map curve_json curves);
          ( "gate",
            Obj
              [ "occ_commute_abort_lt_occ_rw", Bool gate_ok;
                "per_theta", List (List.map per_theta gate) ] );
          "all_certified", Bool all_certified ])
  in
  let oc = open_out !out in
  output_string oc (Json.indented json ^ "\n");
  close_out oc;
  Fmt.pr "wrote %s@." !out;
  if not all_certified then begin
    Fmt.epr "protocol_compare: a committed history failed certification@.";
    exit 1
  end;
  if not gate_ok then begin
    Fmt.epr
      "protocol_compare: occ(commute) abort rate is NOT strictly below \
       occ(rw) at every skew@.";
    exit 1
  end
