(* The model checker's scenario DSL and its built-in suites.

   A scenario is declarative data: N top-level transactions (top = 1 +
   position), each a straight-line sequence of method calls on objects
   of a freshly built database, plus read-only probe calls whose
   results fingerprint the terminal state for the serial-state oracle.
   Everything the checker needs — the independence relation, the serial
   replays, the sharded placement — is derived from this declaration,
   so a scenario file is a complete, replayable description of a
   model-checking problem. *)

open Ooser_core
open Ooser_oodb
module Crash = Ooser_recovery.Crash
module Router = Ooser_shard.Router

type call = { c_obj : string; c_meth : string; c_args : Value.t list }

let call ?(args = []) obj meth = { c_obj = obj; c_meth = meth; c_args = args }

type txn = { t_name : string; calls : call list }

let txn name calls = { t_name = name; calls }

(** Where the scenario runs: a single engine over a custom database
    (optionally under crash injection), or the in-process sharded
    dispatcher over one of the canned shard databases. *)
type mode =
  | Single of {
      setup : unit -> Database.t;
          (** fresh, identical database per run — stateless exploration
              re-executes the scenario from scratch for every schedule,
              and the serial-state oracle needs its own pristine copy *)
      protocol : [ `Open | `Flat | `Closed | `Certify ];
      crash : (Crash.site * int) list;
          (** crash plans [(site, after)]; when non-empty the run's
              first choice point picks one of them or no crash at all *)
    }
  | Occ of {
      setup : unit -> Database.t * Ooser_occ.Store.t;
          (** fresh database AND multiversion store per run — the
              version chains are the store's state, so stateless
              exploration must rebuild both from scratch; the store
              provides the protocol and the certifiable (restamped
              multiversion) history *)
    }
  | Sharded of {
      shards : int;
      db_kind : [ `Encyclopedia | `Banking | `Inventory ];
      protocol : [ `Open | `Flat | `Closed | `Certify ];
    }

type t = {
  name : string;
  descr : string;
  txns : txn list;
  probes : call list;
  mode : mode;
  expect_failure : bool;
      (** a planted-bug scenario: exploration must find a violation *)
}

let tops sc = List.mapi (fun i _ -> i + 1) sc.txns

(* -- building blocks ---------------------------------------------------------- *)

(* An integer cell with delta undo — the minimal recoverable object. *)
let register_cell db name ~spec v0 =
  let cell = ref v0 in
  let amount = function
    | [ Value.Int n ] -> n
    | _ -> invalid_arg "cell: int amount expected"
  in
  let add ctx args =
    let n = amount args in
    cell := !cell + n;
    Runtime.on_undo ctx (fun () -> cell := !cell - n);
    Value.unit
  in
  let read _ctx _args = Value.int !cell in
  Database.register db (Obj_id.v name) ~spec
    [ ("add", Database.primitive add); ("read", Database.primitive read) ]

let rw_cell = Commutativity.rw ~reads:[ "read" ] ~writes:[ "add" ]

(* -- single-engine suite ------------------------------------------------------ *)

(* Three transactions on three private counters: every pair is
   independent (disjoint base sets, Def. 9), so DPOR must collapse the
   3!-order blow-up to a handful of schedules — the headline reduction
   datapoint. *)
let disjoint =
  let setup () =
    let db = Database.create () in
    List.iter (fun n -> register_cell db n ~spec:rw_cell 0) [ "X"; "Y"; "Z" ];
    db
  in
  {
    name = "disjoint";
    descr = "3 txns on 3 private counters: pairwise independent";
    txns =
      [
        txn "tx" [ call "X" "add" ~args:[ Value.int 1 ]; call "X" "add" ~args:[ Value.int 2 ] ];
        txn "ty" [ call "Y" "add" ~args:[ Value.int 3 ]; call "Y" "add" ~args:[ Value.int 4 ] ];
        txn "tz" [ call "Z" "add" ~args:[ Value.int 5 ]; call "Z" "add" ~args:[ Value.int 6 ] ];
      ];
    probes = [ call "X" "read"; call "Y" "read"; call "Z" "read" ];
    mode = Single { setup; protocol = `Open; crash = [] };
    expect_failure = false;
  }

(* One register under the conventional all-conflict view: strict 2PL
   blocking, fully dependent — DPOR gets no traction and must not lose
   any terminal state either. *)
let shared_register =
  let setup () =
    let db = Database.create () in
    register_cell db "R" ~spec:Commutativity.all_conflict 0;
    db
  in
  {
    name = "shared-register";
    descr = "2 txns on one all-conflict register";
    txns =
      [
        txn "ta" [ call "R" "add" ~args:[ Value.int 1 ]; call "R" "add" ~args:[ Value.int 2 ] ];
        txn "tb" [ call "R" "add" ~args:[ Value.int 10 ]; call "R" "add" ~args:[ Value.int 20 ] ];
      ];
    probes = [ call "R" "read" ];
    mode = Single { setup; protocol = `Open; crash = [] };
    expect_failure = false;
  }

(* Opposite-order acquisition on two all-conflict cells: some
   interleavings deadlock, exercising victim selection, compensation
   and retry under the controlled scheduler. *)
let deadlock_pair =
  let setup () =
    let db = Database.create () in
    register_cell db "X" ~spec:Commutativity.all_conflict 0;
    register_cell db "Y" ~spec:Commutativity.all_conflict 0;
    db
  in
  {
    name = "deadlock-pair";
    descr = "opposite-order lock acquisition: deadlock + retry paths";
    txns =
      [
        txn "xy" [ call "X" "add" ~args:[ Value.int 1 ]; call "Y" "add" ~args:[ Value.int 1 ] ];
        txn "yx" [ call "Y" "add" ~args:[ Value.int 2 ]; call "X" "add" ~args:[ Value.int 2 ] ];
      ];
    probes = [ call "X" "read"; call "Y" "read" ];
    mode = Single { setup; protocol = `Open; crash = [] };
    expect_failure = false;
  }

(* One directory object, three transactions: same base object, but the
   keyed spec makes the different-key pair commute — independence via
   the commutativity probe rather than object disjointness. *)
let directory =
  let setup () =
    let db = Database.create () in
    let dir = Ooser_adts.Directory.create () in
    let kv = function
      | [ k; v ] -> (k, v)
      | _ -> invalid_arg "bind: key value expected"
    in
    let bind ctx args =
      let k, v = kv args in
      let prev = Ooser_adts.Directory.lookup dir k in
      Ooser_adts.Directory.bind dir k v;
      Runtime.on_undo ctx (fun () ->
          match prev with
          | Some v0 -> Ooser_adts.Directory.bind dir k v0
          | None -> Ooser_adts.Directory.unbind dir k);
      Value.unit
    in
    let lookup _ctx args =
      match args with
      | [ k ] -> (
          match Ooser_adts.Directory.lookup dir k with
          | Some v -> Value.pair (Value.str "some") v
          | None -> Value.str "none")
      | _ -> invalid_arg "lookup: key expected"
    in
    Database.register db (Obj_id.v "Dir") ~spec:Ooser_adts.Directory.spec
      [
        ("bind", Database.primitive bind);
        ("lookup", Database.primitive lookup);
      ];
    db
  in
  let k = Value.str in
  {
    name = "directory";
    descr = "keyed spec: different-key txns commute on one object";
    txns =
      [
        txn "bind-a" [ call "Dir" "bind" ~args:[ k "a"; Value.int 1 ] ];
        txn "bind-b" [ call "Dir" "bind" ~args:[ k "b"; Value.int 2 ] ];
        txn "read-bind-a"
          [
            call "Dir" "lookup" ~args:[ k "a" ];
            call "Dir" "bind" ~args:[ k "a"; Value.int 3 ];
          ];
      ];
    probes = [ call "Dir" "lookup" ~args:[ k "a" ]; call "Dir" "lookup" ~args:[ k "b" ] ];
    mode = Single { setup; protocol = `Open; crash = [] };
    expect_failure = false;
  }

(* Escrow bounds force data-dependent aborts: T1 needs 80 out of a
   balance of 50, so it can never commit, and whether T2 commits
   depends on the interleaving — the serial-state oracle must accept
   every committed subset it finds.  [escrow-certify] runs the same
   transactions lock-free under commit-time certification, where the
   pinned escrow spec keeps every commit on the incremental certifier. *)
let escrow_base name protocol =
  let setup () =
    let db = Database.create () in
    ignore
      (Ooser_workload.Banking.register_account db ~semantics:`Escrow 0
         ~balance:50 ~low:0 ~high:100);
    db
  in
  let acct = "Account0" in
  {
    name;
    descr = "escrow bounds: state-dependent commutativity and aborts";
    txns =
      [
        txn "greedy"
          [
            call acct "withdraw" ~args:[ Value.int 40 ];
            call acct "withdraw" ~args:[ Value.int 40 ];
          ];
        txn "modest" [ call acct "withdraw" ~args:[ Value.int 40 ] ];
      ];
    probes = [ call acct "balance" ];
    mode = Single { setup; protocol; crash = [] };
    expect_failure = false;
  }

let escrow = escrow_base "escrow" `Open
let escrow_certify = escrow_base "escrow-certify" `Certify

(* The planted escrow bug under certification: the account claims that
   deposits and withdrawals ALWAYS commute, ignoring the bounds, so the
   certifier sees no dependency at all.  "borrow" can only withdraw 60
   from a balance of 50 while "lend"'s deposit of 40 is in flight; the
   certifier accepts every commit, and only the serial-state oracle can
   tell that no serial order lets "borrow" succeed.  Certification is
   not a recoverability guard: under the sound pinned spec these two
   transactions still admit a dirty interleaving ("borrow" commits on
   "lend"'s uncommitted deposit, then "lend" rolls back), which is why
   the healthy twin keeps to withdrawals (DESIGN §21). *)
let escrow_certify_mutant =
  let setup () =
    let db = Database.create () in
    let c = Ooser_adts.Escrow_counter.create ~low:0 ~high:100 50 in
    let always =
      Commutativity.predicate ~stable:true ~name:"escrow-always-commute"
        (fun a b ->
          match
            ( Ooser_adts.Escrow_counter.delta_of a,
              Ooser_adts.Escrow_counter.delta_of b )
          with
          | Some _, Some _ -> true
          | None, None -> true
          | Some _, None | None, Some _ -> false)
    in
    let update apply undo ctx args =
      let n = match args with [ Value.Int n ] -> n | _ -> invalid_arg "amount" in
      apply c n;
      Runtime.on_undo ctx (fun () -> undo c n);
      Value.unit
    in
    let balance _ctx _args = Value.int (Ooser_adts.Escrow_counter.value c) in
    Database.register db (Obj_id.v "Account0") ~spec:always
      ~pin:(fun () -> Ooser_adts.Escrow_counter.pin c)
      [
        ( "deposit",
          Database.primitive
            (update Ooser_adts.Escrow_counter.incr Ooser_adts.Escrow_counter.decr) );
        ( "withdraw",
          Database.primitive
            (update Ooser_adts.Escrow_counter.decr Ooser_adts.Escrow_counter.incr) );
        ("balance", Database.primitive balance);
      ];
    db
  in
  let acct = "Account0" in
  {
    name = "escrow-certify-mutant";
    descr = "unsound always-commute escrow spec under certify: planted violation";
    txns =
      [
        txn "lend"
          [
            call acct "deposit" ~args:[ Value.int 40 ];
            call acct "withdraw" ~args:[ Value.int 40 ];
          ];
        txn "borrow"
          [
            call acct "withdraw" ~args:[ Value.int 60 ];
            call acct "deposit" ~args:[ Value.int 60 ];
          ];
      ];
    probes = [ call acct "balance" ];
    mode = Single { setup; protocol = `Certify; crash = [] };
    expect_failure = true;
  }

(* The planted bug: add and mul do NOT commute, but the registered spec
   claims everything does.  Locking grants every interleaving, the
   history checker (which trusts the same spec) stays green, and only
   the serial-state oracle can notice that ((1+3)*2+5)*3 matches no
   serial order.  Note DPOR trusts the same broken spec and would prune
   the offending interleavings — expect-failure scenarios are explored
   naively, which is itself the demonstration that spec soundness is a
   DPOR precondition. *)
let mutant =
  let setup () =
    let db = Database.create () in
    let cell = ref 1 in
    let amount = function
      | [ Value.Int n ] -> n
      | _ -> invalid_arg "amount expected"
    in
    let add ctx args =
      let n = amount args in
      cell := !cell + n;
      Runtime.on_undo ctx (fun () -> cell := !cell - n);
      Value.unit
    in
    let mul ctx args =
      let n = amount args in
      let old = !cell in
      cell := old * n;
      Runtime.on_undo ctx (fun () -> cell := old);
      Value.unit
    in
    let read _ctx _args = Value.int !cell in
    Database.register db (Obj_id.v "M") ~spec:Commutativity.all_commute
      [
        ("add", Database.primitive add);
        ("mul", Database.primitive mul);
        ("read", Database.primitive read);
      ];
    db
  in
  {
    name = "mutant";
    descr = "unsound all-commute spec over add/mul: planted violation";
    txns =
      [
        txn "adds" [ call "M" "add" ~args:[ Value.int 3 ]; call "M" "add" ~args:[ Value.int 5 ] ];
        txn "muls" [ call "M" "mul" ~args:[ Value.int 2 ]; call "M" "mul" ~args:[ Value.int 3 ] ];
      ];
    probes = [ call "M" "read" ];
    mode = Single { setup; protocol = `Open; crash = [] };
    expect_failure = true;
  }

(* -- occ suite ----------------------------------------------------------------- *)

(* The doctors-on-duty write-skew shape on the multiversion store: two
   transactions sign off the two doctors, each sign-off reading the
   OTHER doctor's status from its BEGIN snapshot.  Under validated occ
   (commute probes or the rw projection) a concurrent pair conflicts,
   so one transaction validation-aborts and retries against the other's
   commit — every terminal state matches a serial order.  The
   unvalidated variant is naive snapshot isolation: both sign-offs see
   the other still on duty, the committed history (where the snapshot
   read is folded into the update's commit stamp) stays green, and only
   the serial-state oracle can tell that "(off(saw on), off(saw on))"
   matches no serial order. *)
let occ_roster name ~mode ~expect_failure descr =
  {
    name;
    descr;
    txns =
      [
        txn "sign-x" [ call "Roster" "sign_off_x" ];
        txn "sign-y" [ call "Roster" "sign_off_y" ];
      ];
    probes = [ call "Roster" "read_x"; call "Roster" "read_y" ];
    mode = Occ { setup = (fun () -> Ooser_occ.Workloads.setup_roster ~mode ()) };
    expect_failure;
  }

let occ_write_skew =
  occ_roster "occ-write-skew" ~mode:Ooser_occ.Store.Commute
    ~expect_failure:false
    "doctors-on-duty write skew under commute-mode occ validation"

let occ_write_skew_rw =
  occ_roster "occ-write-skew-rw" ~mode:Ooser_occ.Store.Rw
    ~expect_failure:false
    "doctors-on-duty write skew under rw-projection (SSI) validation"

let occ_si_mutant =
  occ_roster "occ-si-mutant" ~mode:Ooser_occ.Store.Unvalidated
    ~expect_failure:true
    "unvalidated snapshot isolation: planted write-skew anomaly"

(* -- crash suite -------------------------------------------------------------- *)

(* Two counters, a journal, and a crash plan per oplog injection site:
   recovery must replay the stable prefix, compensate the losers once
   (no lost or duplicated compensation — the probe fingerprint exposes
   both), and recertify. *)
let crash_pair =
  let setup () =
    let db = Database.create () in
    register_cell db "X" ~spec:rw_cell 0;
    register_cell db "Y" ~spec:rw_cell 0;
    db
  in
  {
    name = "crash-pair";
    descr = "crash injection at every oplog site + recovery oracles";
    txns =
      [
        txn "two-step"
          [
            call "X" "add" ~args:[ Value.int 1 ];
            call "Y" "add" ~args:[ Value.int 2 ];
          ];
        txn "one-step" [ call "X" "add" ~args:[ Value.int 5 ] ];
      ];
    probes = [ call "X" "read"; call "Y" "read" ];
    mode =
      Single
        {
          setup;
          protocol = `Open;
          crash =
            [
              (Crash.Before_append, 0);
              (Crash.After_append, 0);
              (Crash.After_append, 1);
              (Crash.After_force, 0);
            ];
        };
    expect_failure = false;
  }

(* -- sharded suite ------------------------------------------------------------ *)

(* Placement is a pure function of the shard count, so scenarios can
   precompute which canned object lands on which shard. *)
let account_on ~shards wanted =
  let r = Router.create ~shards in
  let rec go i =
    if i >= 64 then failwith "no account on shard"
    else
      let obj = Printf.sprintf "Account%d" i in
      if Router.shard_of_call r ~obj ~args:[] = wanted then obj else go (i + 1)
  in
  go 0

let enc_key_on ~shards wanted =
  let r = Router.create ~shards in
  let rec go i =
    if i >= 40 then failwith "no preloaded key on shard"
    else
      let key = Printf.sprintf "k%05d" i in
      if Router.shard_of_call r ~obj:"Enc" ~args:[ Value.str key ] = wanted
      then key
      else go (i + 1)
  in
  go 0

(* Opposite-direction cross-shard transfers: both transactions prepare
   on both shards, so every 2PC vote-arrival order is explored; escrow
   semantics let both commit. *)
let shard_transfer_base name protocol expect_failure =
  let a0 = account_on ~shards:2 0 and a1 = account_on ~shards:2 1 in
  {
    name;
    descr = "opposite cross-shard transfers through 2PC";
    txns =
      [
        txn "t0to1"
          [
            call a0 "withdraw" ~args:[ Value.int 5 ];
            call a1 "deposit" ~args:[ Value.int 5 ];
          ];
        txn "t1to0"
          [
            call a1 "withdraw" ~args:[ Value.int 3 ];
            call a0 "deposit" ~args:[ Value.int 3 ];
          ];
      ];
    probes = [ call a0 "balance"; call a1 "balance" ];
    mode = Sharded { shards = 2; db_kind = `Banking; protocol };
    expect_failure;
  }

let shard_transfer = shard_transfer_base "shard-transfer" `Open false

(* Same shape under [`Certify]: votes window on the validation-frontier
   watermark instead of the lock protocols' pending-retirement window,
   and the vote-window audit re-runs every explored schedule with
   full-history votes to check the watermark window decides
   identically. *)
let shard_certify = shard_transfer_base "shard-certify" `Certify false

(* The planted Def. 15 cross-shard cycle of the shard tests, explored
   over every command/vote interleaving instead of one: each shard's
   local schedule stays fine, only edge exchange at prepare time can
   see the cycle, and some interleaving must abort one transaction. *)
let shard_cycle =
  let ka = enc_key_on ~shards:2 0 and kb = enc_key_on ~shards:2 1 in
  {
    name = "shard-cycle";
    descr = "opposite-order cross-shard updates: Def. 15 edge exchange";
    txns =
      [
        txn "ab"
          [
            call "Enc" "update" ~args:[ Value.str ka; Value.str "a1" ];
            call "Enc" "update" ~args:[ Value.str kb; Value.str "b1" ];
          ];
        txn "ba"
          [
            call "Enc" "update" ~args:[ Value.str kb; Value.str "b2" ];
            call "Enc" "update" ~args:[ Value.str ka; Value.str "a2" ];
          ];
      ];
    probes =
      [
        call "Enc" "search" ~args:[ Value.str ka ];
        call "Enc" "search" ~args:[ Value.str kb ];
      ];
    mode = Sharded { shards = 2; db_kind = `Encyclopedia; protocol = `Open };
    expect_failure = false;
  }

(* -- registry ----------------------------------------------------------------- *)

let all =
  [
    disjoint;
    shared_register;
    deadlock_pair;
    directory;
    escrow;
    escrow_certify;
    mutant;
    escrow_certify_mutant;
    occ_write_skew;
    occ_write_skew_rw;
    occ_si_mutant;
    crash_pair;
    shard_transfer;
    shard_cycle;
    shard_certify;
  ]

let suites =
  [
    ( "single",
      [
        "disjoint";
        "shared-register";
        "deadlock-pair";
        "directory";
        "escrow";
        "escrow-certify";
      ] );
    ("mutant", [ "mutant"; "escrow-certify-mutant" ]);
    ("occ", [ "occ-write-skew"; "occ-write-skew-rw"; "occ-si-mutant" ]);
    ("crash", [ "crash-pair" ]);
    ("sharded", [ "shard-transfer"; "shard-cycle"; "shard-certify" ]);
  ]

let find name = List.find_opt (fun sc -> sc.name = name) all

let suite name =
  if name = "all" then Some all
  else
    match List.assoc_opt name suites with
    | Some names -> Some (List.filter_map find names)
    | None -> None

let suite_names = "all" :: List.map fst suites
