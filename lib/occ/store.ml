(* The multiversion optimistic store and its commit-time validator.

   Execution is lock-free: each top-level transaction attempt snapshots
   the store's commit timestamp at BEGIN ([Protocol.on_begin] — retries
   re-snapshot), method bodies read the newest version at or below the
   snapshot overlaid with the transaction's own buffered intentions,
   and updates buffer as redo intentions (method + args) instead of
   mutating shared state.  Nothing needs undoing on abort beyond
   dropping the buffer — the intention-removal closures registered with
   the engine's undo machinery exist for PARTIAL rollback (a nested
   subtransaction aborting alone must take its buffered intentions with
   it).

   Commit runs validation ([Protocol.validate], called by the engine at
   the top-level commit point with the attempt's call tree and stamped
   primitives):

   1. Concurrency check — every action of the committing transaction T
      is probed against every update of every transaction that
      committed inside T's snapshot window (snap, now].  A
      non-commuting pair (per the registered spec in commute mode, per
      the read/write projection in rw mode) aborts T: T's client
      already observed snapshot-derived results, and a non-commuting
      concurrent update means those results differ from the
      commit-point serialization.  If every pair commutes, T is
      equivalent to a serial execution after all concurrent committers
      — commit order is the serialization order (the Kung–Robinson
      argument, generalized from read/write intersection to Def. 9
      commutativity).

   2. Replay — T's intentions re-apply, in buffer order, to the newest
      committed state (scratch first; a raise — e.g. combined
      concurrent escrow deltas exhausting a bound that every PAIR
      respected — aborts T instead of committing a violation).

   3. Certification — the transaction replays through an occ-owned
      Pearce–Kelly incremental certifier (lib/core/incremental.ml)
      whenever every registered spec is stable (always, in rw mode):
      pure reads re-stamp into the snapshot band (just after the
      snapshot's creating commit), updates into the commit band, so the
      certifier sees the multiversion serialization rather than the
      raw interleaved execution order.  Acyclicity of the Def. 10–13
      dependency relation is required for admission.  With
      state-reading specs (escrow) incremental maintenance is unsound
      and stage 1 alone decides — the from-scratch
      Serializability.check oracle remains the acceptance check over
      {!history} in the tests and benchmarks.

   Stamp encoding: band * 2^20 + seq, with band = 2*commit_ts for
   updates and 2*snap_ts + 1 for reads (reads of a snapshot sit
   strictly between the commit that created it and the next), and seq a
   per-band counter so stamps stay unique — the certifier compares span
   ends with [<] only and draws no edge between equal stamps. *)

open Ooser_core
module Protocol = Ooser_cc.Protocol
module Stats = Ooser_sim.Stats
module Database = Ooser_oodb.Database
module Runtime = Ooser_oodb.Runtime

type mode = Commute | Rw | Unvalidated

type version = { v_ts : int; v_state : Value.t }
type entry = { e_model : Model.t; mutable e_versions : version list (* newest first *) }

type intention = {
  i_id : int;
  i_obj : Obj_id.t;
  i_meth : string;
  i_args : Value.t list;
}

type buf = {
  mutable b_snap : int;
  mutable b_next : int;
  mutable b_intents : intention list;  (* newest first *)
}

type committed_txn = {
  c_ts : int;
  c_updates : Action.t list;  (* the update primitives, original stamps *)
}

type t = {
  mode : mode;
  objs : (Obj_id.t, entry) Hashtbl.t;
  bufs : (int, buf) Hashtbl.t;
  mutable commit_ts : int;
  mutable committed : committed_txn list;  (* newest first *)
  mutable trail : (Call_tree.t * (Ids.Action_id.t * int) list) list;
      (* committed (tree, re-stamped prims), newest first — the
         multiversion history for {!history} *)
  counters : Stats.Counter.t;
  band_seq : (int, int ref) Hashtbl.t;
  mutable cert : [ `Uninit | `On of Incremental.t | `Off ];
  mutable db : Database.t option;
}

let band_width = 1 lsl 20

let create ~mode () =
  {
    mode;
    objs = Hashtbl.create 64;
    bufs = Hashtbl.create 16;
    commit_ts = 0;
    committed = [];
    trail = [];
    counters = Stats.Counter.create ();
    band_seq = Hashtbl.create 16;
    cert = `Uninit;
    db = None;
  }

let mode t = t.mode
let counters t = t.counters
let commit_ts t = t.commit_ts

let entry store obj =
  match Hashtbl.find_opt store.objs obj with
  | Some e -> e
  | None -> invalid_arg ("Occ.Store: unregistered object " ^ Obj_id.to_string obj)

let committed_state store obj = (List.hd (entry store obj).e_versions).v_state

let state_at e ts =
  let rec find = function
    | [] -> invalid_arg "Occ.Store: no version at or below snapshot"
    | v :: rest -> if v.v_ts <= ts then v.v_state else find rest
  in
  find e.e_versions

let versions store obj =
  List.map (fun v -> (v.v_ts, v.v_state)) (entry store obj).e_versions

let registry store =
  match store.db with
  | Some db -> Database.spec_registry db
  | None -> Commutativity.uniform Commutativity.all_conflict

(* -- transaction-side surface -------------------------------------------------- *)

let begin_txn store top =
  Hashtbl.replace store.bufs top
    { b_snap = store.commit_ts; b_next = 0; b_intents = [] }

let buf_of store top =
  match Hashtbl.find_opt store.bufs top with
  | Some b -> b
  | None ->
      let b = { b_snap = store.commit_ts; b_next = 0; b_intents = [] } in
      Hashtbl.replace store.bufs top b;
      b

(* Snapshot state overlaid with the transaction's own buffered
   intentions on this object, in buffer order. *)
let local_state store buf obj =
  let e = entry store obj in
  let base = state_at e buf.b_snap in
  List.fold_left
    (fun st it ->
      if Obj_id.equal it.i_obj obj then
        match (e.e_model.Model.apply st it.i_meth it.i_args).Model.new_state with
        | Some st' -> st'
        | None -> st
      else st)
    base
    (List.rev buf.b_intents)

let exec store obj meth ctx args =
  let buf = buf_of store ctx.Runtime.top in
  let e = entry store obj in
  let out = e.e_model.Model.apply (local_state store buf obj) meth args in
  (match out.Model.new_state with
  | Some _ ->
      let it = { i_id = buf.b_next; i_obj = obj; i_meth = meth; i_args = args } in
      buf.b_next <- buf.b_next + 1;
      buf.b_intents <- it :: buf.b_intents;
      (* partial rollback: a nested subtransaction aborting alone takes
         its buffered intentions with it *)
      Runtime.on_undo ctx (fun () ->
          buf.b_intents <-
            List.filter (fun j -> j.i_id <> it.i_id) buf.b_intents)
  | None -> ());
  out.Model.result

(* -- registration -------------------------------------------------------------- *)

let register store db obj (model : Model.t) =
  store.db <- Some db;
  Hashtbl.replace store.objs obj
    { e_model = model; e_versions = [ { v_ts = 0; v_state = model.Model.init } ] };
  let spec =
    match store.mode with
    | Rw -> Model.rw_spec model
    | Commute | Unvalidated ->
        model.Model.spec_of ~current:(fun () -> committed_state store obj)
  in
  Database.register_or_replace db obj ~spec
    (List.map
       (fun m -> (m, Database.primitive (fun ctx args -> exec store obj m ctx args)))
       model.Model.methods)

(* -- validation ---------------------------------------------------------------- *)

let band_stamp store band =
  let r =
    match Hashtbl.find_opt store.band_seq band with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace store.band_seq band r;
        r
  in
  let s = !r in
  incr r;
  if s >= band_width then invalid_arg "Occ.Store: stamp band overflow";
  (band * band_width) + s

let ensure_cert store =
  match store.cert with
  | `On c -> Some c
  | `Off -> None
  | `Uninit ->
      let stable =
        match store.db with
        | None -> false
        | Some db ->
            List.for_all
              (fun o ->
                match Database.spec db o with
                | Some s -> Commutativity.stable s
                | None -> true)
              (Database.objects db)
      in
      if stable then begin
        let c = Incremental.create (registry store) in
        store.cert <- `On c;
        Some c
      end
      else begin
        store.cert <- `Off;
        None
      end

let is_store_update store a =
  match Hashtbl.find_opt store.objs (Action.obj a) with
  | Some e -> e.e_model.Model.is_update (Action.meth a)
  | None -> false

(* Re-stamp the committing attempt's primitives into the multiversion
   order: reads into the snapshot band, updates into the commit band.
   Actions outside the store (the root leaf of a call-less transaction)
   count as reads. *)
let restamp store buf ~commit ~tree ~prims =
  let acts = List.map (fun a -> (Action.id a, a)) (Call_tree.primitives tree) in
  List.sort (fun (_, s1) (_, s2) -> Int.compare s1 s2) prims
  |> List.map (fun (id, _) ->
         let upd =
           match List.assoc_opt id acts with
           | Some a -> is_store_update store a
           | None -> false
         in
         let band = if upd then 2 * commit else (2 * buf.b_snap) + 1 in
         (id, band_stamp store band))

let install store buf ~ts ~updates ~states ~tree ~restamped =
  Hashtbl.iter
    (fun obj st ->
      let e = entry store obj in
      e.e_versions <- { v_ts = ts; v_state = st } :: e.e_versions)
    states;
  store.commit_ts <- ts;
  store.committed <- { c_ts = ts; c_updates = updates } :: store.committed;
  store.trail <- (tree, restamped) :: store.trail;
  ignore buf

(* Replay the buffered intentions against the newest committed state,
   scratch-first: the per-object end states, or the raise that proves
   the combined concurrent deltas violate a bound no pairwise probe
   saw. *)
let replay store buf =
  let states : (Obj_id.t, Value.t) Hashtbl.t = Hashtbl.create 8 in
  try
    List.iter
      (fun it ->
        let e = entry store it.i_obj in
        let cur =
          match Hashtbl.find_opt states it.i_obj with
          | Some s -> s
          | None -> (List.hd e.e_versions).v_state
        in
        match (e.e_model.Model.apply cur it.i_meth it.i_args).Model.new_state with
        | Some st' -> Hashtbl.replace states it.i_obj st'
        | None -> ())
      (List.rev buf.b_intents);
    Ok states
  with
  | Runtime.Abort msg -> Error msg
  | exn -> Error (Printexc.to_string exn)

let apply_stale store buf ~tree ~restamped =
  let ts = store.commit_ts + 1 in
  List.iter
    (fun it ->
      let e = entry store it.i_obj in
      let committed = (List.hd e.e_versions).v_state in
      let snap = state_at e buf.b_snap in
      let st' = e.e_model.Model.stale_apply ~committed ~snap it.i_meth it.i_args in
      e.e_versions <- { v_ts = ts; v_state = st' } :: e.e_versions)
    (List.rev buf.b_intents);
  store.commit_ts <- ts;
  store.trail <- (tree, restamped) :: store.trail

let validate store ~top ~tree ~prims =
  Stats.Counter.incr store.counters "validations";
  let buf = buf_of store top in
  let commit_candidate = store.commit_ts + 1 in
  let restamped () = restamp store buf ~commit:commit_candidate ~tree ~prims in
  match store.mode with
  | Unvalidated ->
      (* the mutant: naive snapshot isolation, no validation at all *)
      apply_stale store buf ~tree ~restamped:(restamped ());
      Ok ()
  | Commute | Rw -> (
      let reg = registry store in
      let acts =
        List.filter
          (fun a ->
            (not (Action.is_virtual a)) && Hashtbl.mem store.objs (Action.obj a))
          (Call_tree.primitives tree)
      in
      (* 1. concurrency check against the snapshot window (snap, now]:
         [committed] is newest first, so the window is a prefix *)
      let rec window = function
        | c :: rest when c.c_ts > buf.b_snap -> c :: window rest
        | _ -> []
      in
      let concurrent = window store.committed in
      let conflict = ref None in
      let saves = ref 0 in
      List.iter
        (fun c ->
          List.iter
            (fun b ->
              List.iter
                (fun a ->
                  if Obj_id.equal (Action.obj a) (Action.obj b) then
                    if Commutativity.commutes reg a b then begin
                      (* rw validation refuses every same-object pair
                         with an update outright — this pair is an
                         admission only semantics buys *)
                      if store.mode = Commute && not (Action.equal a b) then
                        incr saves
                    end
                    else if !conflict = None then conflict := Some (a, b))
                acts)
            c.c_updates)
        concurrent;
      match !conflict with
      | Some (a, b) ->
          Stats.Counter.incr store.counters "aborts";
          Error
            (Fmt.str
               "validation failure: %s.%s does not commute with committed %s.%s"
               (Obj_id.to_string (Action.obj a))
               (Action.meth a)
               (Obj_id.to_string (Action.obj b))
               (Action.meth b))
      | None -> (
          Stats.Counter.incr ~by:!saves store.counters "commute-saves";
          (* 2. commit-point replay, scratch first *)
          match replay store buf with
          | Error msg ->
              Stats.Counter.incr store.counters "aborts";
              Error ("validation failure: replay: " ^ msg)
          | Ok states -> (
              (* 3. certifier stage (stable specs only) *)
              let restamped = restamped () in
              let updates = List.filter (is_store_update store) acts in
              let admit () =
                install store buf ~ts:commit_candidate ~updates ~states ~tree
                  ~restamped
              in
              match ensure_cert store with
              | None ->
                  admit ();
                  Ok ()
              | Some cert ->
                  let o = Incremental.add_commit cert ~tree ~prims:restamped in
                  if o.Incremental.accepted then begin
                    admit ();
                    Ok ()
                  end
                  else begin
                    Stats.Counter.incr store.counters "aborts";
                    Error
                      (match o.Incremental.rejection with
                      | Some r ->
                          Fmt.str "validation failure: %a"
                            Incremental.pp_rejection r
                      | None -> "validation failure: dependency cycle")
                  end)))

(* -- the protocol -------------------------------------------------------------- *)

let protocol_name store =
  match store.mode with
  | Commute -> "occ"
  | Rw -> "occ-rw"
  | Unvalidated -> "occ-unvalidated"

let protocol store =
  Protocol.optimistic ~name:(protocol_name store) ~counters:store.counters
    ~on_begin:(fun top -> begin_txn store top)
    ~validate:(fun ~top ~tree ~prims -> validate store ~top ~tree ~prims)
    ~on_top_commit:(fun top -> Hashtbl.remove store.bufs top)
    ~on_top_abort:(fun top -> Hashtbl.remove store.bufs top)
    ()

(* -- the multiversion history -------------------------------------------------- *)

(* The committed history in its multiversion serialization: trees in
   commit order, primitives ordered by their re-stamped positions
   (reads in their snapshot band, updates in their commit band).  This
   — not the raw interleaved execution order the engine records — is
   the history occ admission certifies, and the one
   [Serializability.check] must accept for every occ-committed run. *)
let history store =
  let trail = List.rev store.trail in
  let tops = List.map fst trail in
  let order =
    List.concat_map snd trail
    |> List.sort (fun (_, s1) (_, s2) -> Int.compare s1 s2)
    |> List.map fst
  in
  History.v ~tops ~order ~commut:(registry store)
