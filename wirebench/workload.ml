(* The three traffic mixes and the seeded call scripts that drive them.

   A run is a fixed number of transactions: [txn_rate * seconds], where
   [txn_rate] is a per-workload constant sized so that the timed phase
   lasts about [seconds] on the reference machine.  The count depends
   only on the arguments, never on measured speed: per-commit cost grows
   with history length on enc-open, bank-certify and bank-occ, so a
   duration-boxed run would hand a faster engine a longer (and costlier)
   history. *)

open Ooser_core
module Rng = Ooser_sim.Rng
module Dist = Ooser_sim.Dist
module Server = Ooser_server.Server
module Wire = Ooser_server.Wire

type kind = Enc_open | Bank_certify | Bank_occ

type t = {
  name : string;
  kind : kind;
  sessions : int;
  txn_rate : int;  (* transactions per second of [--seconds] *)
  epochs : int;
      (* the run's transactions are split over this many fresh servers,
         each booted as in set-up *)
  spare_setups : int;
      (* extra boots, discarded at once, for more set-up samples where
         one boot is short *)
  prev_txns : int;
      (* > 0: the server is durable, and boots from the snapshot and log
         that an untimed previous run of this many transactions left *)
}

let calls_per_txn = 4
let accounts = 64
let initial_balance = 100

(* A preload larger than the encyclopedia's 256-frame buffer pool:
   1,000 keys at fanout 4 occupy 747 page objects. *)
let preload = 1000
let zipf_theta = 0.8

let workload name kind ~sessions ~txn_rate ~epochs ~spare_setups ~prev_txns =
  { name; kind; sessions; txn_rate; epochs; spare_setups; prev_txns }

(* With [--seconds 10]: enc-open runs 2 servers of 3,000 transactions;
   bank-certify 5 servers of 200, each booting from the log of a
   50-transaction previous run; bank-occ 2 servers of 10,000. *)
let all =
  [
    workload "enc-open" Enc_open ~sessions:2 ~txn_rate:600 ~epochs:2 ~spare_setups:8
      ~prev_txns:0;
    (* one session: with two, each waits behind the other's
       certification and latency turns bimodal.  Durable, so that the
       oplog and recovery layers are measured where the from-scratch
       certification dwarfs every force. *)
    workload "bank-certify" Bank_certify ~sessions:1 ~txn_rate:100 ~epochs:5 ~spare_setups:6
      ~prev_txns:50;
    workload "bank-occ" Bank_occ ~sessions:2 ~txn_rate:2000 ~epochs:2 ~spare_setups:30
      ~prev_txns:0;
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let config w ~socket ~durable_dir =
  let base = Server.default_config (Server.Unix_sock socket) in
  let protocol_kind =
    match w.kind with
    | Enc_open -> `Open
    | Bank_certify -> `Certify
    | Bank_occ -> `Occ
  in
  {
    base with
    Server.db_kind = (if w.kind = Enc_open then `Encyclopedia else `Banking);
    protocol_kind;
    preload;
    accounts;
    durable_dir;
    name = "wirebench";
  }

let txns_per_epoch w ~seconds = w.txn_rate * seconds / w.epochs

(* Zipf rank 0 is the hottest key; scatter ranks over the key space so
   that the hot keys do not all sit in the B-tree's leftmost leaves. *)
let key_of_rank rank = Ooser_workload.Enc_workload.key_of (rank * 7919 mod preload)

let enc_call rng zipf ~sid ~fresh =
  let key () = key_of_rank (Dist.sample rng zipf) in
  let pick = Rng.int rng 100 in
  if pick < 30 then begin
    incr fresh;
    (* a fresh key that sorts right after a preloaded one, so inserts
       spread over the tree instead of piling onto its last leaf *)
    let k = Printf.sprintf "%s.%d.%d" (key ()) sid !fresh in
    Wire.Call { obj = "Enc"; meth = "insert"; args = [ Value.str k; Value.str "fresh" ] }
  end
  else if pick < 70 then Wire.Call { obj = "Enc"; meth = "search"; args = [ Value.str (key ()) ] }
  else
    Wire.Call
      { obj = "Enc"; meth = "update"; args = [ Value.str (key ()); Value.str "updated" ] }

let bank_call rng =
  let meth = if Rng.bool rng then "deposit" else "withdraw" in
  Wire.Call
    {
      obj = Printf.sprintf "Account%d" (Rng.int rng accounts);
      meth;
      args = [ Value.int (1 + Rng.int rng 5) ];
    }

(* [scripts w ~seed ~epoch ~n] is each session's transactions, each an
   array of CALL requests.  It splits [n] transactions over the sessions
   round-robin; each session of each epoch draws from its own stream. *)
let scripts w ~seed ~epoch ~n =
  Array.init w.sessions (fun sid ->
      let rng = Rng.create ~seed:(Hashtbl.hash (seed, epoch, sid)) in
      let zipf = Dist.zipf ~theta:zipf_theta preload in
      let fresh = ref 0 in
      let mine = (n / w.sessions) + if sid < n mod w.sessions then 1 else 0 in
      Array.init mine (fun _ ->
          Array.init calls_per_txn (fun _ ->
              match w.kind with
              | Enc_open -> enc_call rng zipf ~sid ~fresh
              | Bank_certify | Bank_occ -> bank_call rng)))
