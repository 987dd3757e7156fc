(* Encyclopedia workloads: transaction mixes over the Fig. 2 application.

   The mix mirrors the publication-environment motivation of §1: inserts
   of new items, searches, in-place updates, and the long sequential read
   (readSeq) that conflicts with every writer at the Enc level. *)

open Ooser_core
open Ooser_oodb
module Rng = Ooser_sim.Rng
module Dist = Ooser_sim.Dist

type mix = {
  p_insert : float;
  p_search : float;
  p_update : float;
  p_readseq : float;
}

let insert_heavy = { p_insert = 0.6; p_search = 0.3; p_update = 0.1; p_readseq = 0.0 }
let with_scans = { p_insert = 0.4; p_search = 0.3; p_update = 0.2; p_readseq = 0.1 }

type params = {
  mix : mix;
  dist : Dist.t;  (* key popularity *)
  ops_per_txn : int;
  n_txns : int;
  preload : int;  (* keys inserted before the measured run *)
}

let default_params =
  {
    mix = insert_heavy;
    dist = Dist.uniform 200;
    ops_per_txn = 4;
    n_txns = 8;
    preload = 50;
  }

let key_of i = Printf.sprintf "k%05d" i

(* Preload runs as one transaction under a trivial protocol so the
   measured run starts from a populated tree. *)
let preload ?(keep = fun _ -> true) db enc ~keys =
  if keys > 0 then begin
    let body ctx =
      for i = 0 to keys - 1 do
        let key = key_of i in
        if keep key then
          Encyclopedia.insert enc ctx ~key ~text:("seed" ^ string_of_int i)
      done;
      Value.unit
    in
    let protocol = Ooser_cc.Protocol.unlocked () in
    let out = Engine.run db ~protocol [ (999, "preload", body) ] in
    match out.Engine.committed with
    | [ 999 ] -> ()
    | _ -> failwith "enc preload failed"
  end

type op = Insert of string | Search of string | Update of string | ReadSeq

let pick_op rng p ~fresh_key =
  let r = Rng.float rng in
  let m = p.mix in
  if r < m.p_insert then Insert (fresh_key ())
  else if r < m.p_insert +. m.p_search then
    Search (key_of (Dist.sample rng p.dist mod max 1 p.preload))
  else if r < m.p_insert +. m.p_search +. m.p_update then
    Update (key_of (Dist.sample rng p.dist mod max 1 p.preload))
  else ReadSeq

(* Generate the operation scripts up front (deterministic given the rng) —
   shared by the executable bodies and the static summaries. *)
let plan ~rng p =
  let fresh = ref p.preload in
  let fresh_key () =
    let k = !fresh in
    incr fresh;
    key_of k
  in
  List.init p.n_txns (fun i ->
      (i + 1, List.init p.ops_per_txn (fun _ -> pick_op rng p ~fresh_key)))

let transactions ~rng p enc =
  List.map
    (fun (i, ops) ->
      let body ctx =
        List.iter
          (fun op ->
            match op with
            | Insert k -> Encyclopedia.insert enc ctx ~key:k ~text:("v" ^ k)
            | Search k -> ignore (Encyclopedia.search enc ctx ~key:k)
            | Update k -> ignore (Encyclopedia.update enc ctx ~key:k ~text:"upd")
            | ReadSeq -> ignore (Encyclopedia.read_seq enc ctx))
          ops;
        Value.unit
      in
      (i, Printf.sprintf "txn%d" i, body))
    (plan ~rng p)

module Summary = Ooser_analysis.Summary

(* Static call summaries at the schema level (Enc, BpTree, LinkedList;
   leaves, pages and items are created dynamically and stay below the
   summary granularity).  BpTree.insert includes its potential re-entrant
   grow — the Def. 5 extension site the analyzer must surface. *)
let summary_of_op enc op =
  let enc_o = Encyclopedia.enc_object enc in
  let bptree = Encyclopedia.bptree_object enc in
  let ll = Encyclopedia.linkedlist_object enc in
  match op with
  | Insert k ->
      Summary.call
        ~args:[ Value.str k; Value.str ("v" ^ k) ]
        enc_o "insert"
        [
          Summary.call ~args:[ Value.str k ] bptree "insert"
            [ Summary.call bptree "grow" [] ];
          Summary.call ~args:[ Value.str k ] ll "append" [];
        ]
  | Search k ->
      Summary.call ~args:[ Value.str k ] enc_o "search"
        [ Summary.call ~args:[ Value.str k ] bptree "search" [] ]
  | Update k ->
      Summary.call
        ~args:[ Value.str k; Value.str "upd" ]
        enc_o "update"
        [ Summary.call ~args:[ Value.str k ] bptree "search" [] ]
  | ReadSeq ->
      Summary.call enc_o "readSeq" [ Summary.call ll "readSeq" [] ]

let static_summaries ~rng p enc =
  List.map
    (fun (i, ops) ->
      Summary.txn
        (Printf.sprintf "txn%d" i)
        (List.map (summary_of_op enc) ops))
    (plan ~rng p)

(* Build a database + encyclopedia, preload it, and return everything
   needed for a measured run. *)
let setup ?(fanout = 4) ~rng p =
  let db = Database.create () in
  let enc = Encyclopedia.create ~fanout db in
  preload db enc ~keys:p.preload;
  (db, enc, transactions ~rng p enc)
