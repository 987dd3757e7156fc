(* Certification scaling benchmark.

   The workload is shaped to expose the asymptotic difference between
   the incremental certifier and the from-scratch checker, not to favour
   either on constants:

   - every transaction reads a single shared HOT object with the same
     method and arguments, so HOT accumulates one large commutativity
     class that the incremental bootstrap dismisses with one memoised
     spec probe, while the from-scratch checker re-examines all O(n^2)
     pairs of it on every run;

   - transaction [i] writes its own object W{i} and its predecessor's
     W{i-1}, so real conflicts (and hence dependency edges) keep
     arriving — a chain through the whole history — but only O(1) of
     them are NEW per commit.  Per-commit certification cost should
     therefore stay flat for the incremental path and grow at least
     linearly for the oracle.

   Timing uses wall-clock [Unix.gettimeofday]; per-commit costs are
   averaged over chunks to smooth GC noise, and the from-scratch checker
   is sampled at a few history lengths only (it is the expensive side). *)

open Ooser_core

let hot = Obj_id.v "HOT"
let w i = Obj_id.v (Printf.sprintf "W%d" i)

let rw = Commutativity.rw ~reads:[ "read" ] ~writes:[ "write" ]

(* The system object's actions carry no semantics (Def. 4) and must not
   accumulate probe work: all_commute, as the engine registers it. *)
let registry =
  Commutativity.registry (fun oid ->
      if Obj_id.equal (Obj_id.original oid) Call_tree.Build.default_sys then
        Commutativity.all_commute
      else rw)

(* Transaction [i]: read HOT; write W{i}; write W{i-1} (i > 1). *)
let tree i =
  let root_id = Ids.Action_id.root i in
  let process = Ids.Process_id.main i in
  let child j obj meth =
    let id = Ids.Action_id.child root_id j in
    Call_tree.v (Action.v ~id ~obj ~meth ~args:[ Value.int 0 ] ~process ()) []
  in
  let root =
    Action.v ~id:root_id ~obj:Call_tree.Build.default_sys ~meth:"top" ~process ()
  in
  let children =
    child 1 hot "read" :: child 2 (w i) "write"
    :: (if i > 1 then [ child 3 (w (i - 1)) "write" ] else [])
  in
  Call_tree.seq root children

let prims_with_stamps base t =
  List.mapi (fun j a -> (Action.id a, base + j)) (Call_tree.primitives t)

type point = { upto : int; seconds : float }
(* [upto]: number of committed transactions; [seconds]: mean per-commit
   certification time (incremental) or one full-check time (scratch) *)

type atlas_parity = {
  atlas_n : int;  (* transactions in each engine run *)
  parity : bool;  (* identical commit and abort sets *)
  committed : int;
  aborted : int;
  atlas_hits : int;  (* decisions answered from the table *)
  table_cells : int;
  probe_ns : float;  (* memoised spec-probe decision *)
  table_ns : float;  (* dense-table decision *)
}

type infer_stats = {
  infer_decided : int;  (* cells the inference decided on the adts target *)
  infer_total : int;
  infer_table_cells : int;  (* argument-independent cells it compiled *)
  infer_table_hits : int;  (* probe decisions the inferred table answered *)
  hand_probe_ns : float;  (* memoised hand-spec probe decision *)
  inferred_table_ns : float;  (* same decision from the inferred table *)
}

type result = {
  n_txns : int;
  chunk : int;
  incremental : point list;
  scratch : point list;
  act_edges : int;
  inc_growth : float;  (* last-chunk mean / first-chunk mean *)
  scratch_growth : float;  (* last-sample / first-sample *)
  len_growth : float;  (* history-length ratio between those endpoints *)
  incremental_sublinear : bool;
  scratch_superlinear : bool;
  atlas : atlas_parity;
  infer : infer_stats;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* Mean per-commit add_commit time over chunks of [chunk] commits. *)
let run_incremental ~n ~chunk =
  let cert = Incremental.create registry in
  let points = ref [] in
  let acc = ref 0. and in_chunk = ref 0 and stamp = ref 0 in
  for i = 1 to n do
    let t = tree i in
    let prims = prims_with_stamps !stamp t in
    stamp := !stamp + List.length prims;
    let outcome, dt = time (fun () -> Incremental.add_commit cert ~tree:t ~prims) in
    if not outcome.Incremental.accepted then
      invalid_arg "cert_bench: chain workload must always certify";
    acc := !acc +. dt;
    incr in_chunk;
    if !in_chunk = chunk then begin
      points := { upto = i; seconds = !acc /. float_of_int chunk } :: !points;
      acc := 0.;
      in_chunk := 0
    end
  done;
  (List.rev !points, (Incremental.stats cert).Incremental.act_edges)

(* One from-scratch [Serializability.check] on the [upto]-transaction
   prefix, at each sampled length. *)
let run_scratch ~samples =
  List.map
    (fun upto ->
      let trees = List.init upto (fun i -> tree (i + 1)) in
      let order = List.concat_map (fun t -> List.map Action.id (Call_tree.primitives t)) trees in
      let h = History.v ~tops:trees ~order ~commut:registry in
      let verdict, dt = time (fun () -> Serializability.check h) in
      if not verdict.Serializability.oo_serializable then
        invalid_arg "cert_bench: chain workload must be oo-serializable";
      { upto; seconds = dt })
    samples

let growth points =
  match (points, List.rev points) with
  | first :: _, last :: _ when first.seconds > 0. ->
      (last.seconds /. first.seconds,
       float_of_int last.upto /. float_of_int first.upto)
  | _ -> (1., 1.)

(* -- Atlas parity: probe path vs preloaded conflict table -------------------

   The same chain workload, run through the live engine (open-nested
   locking + incremental certification) twice: once deciding
   commutativity by memoised runtime spec probes, once with the
   statically compiled conflict table installed up front
   (Engine.preload_atlas).  The table may only change HOW decisions are
   computed, never WHAT they are — both runs must commit and abort
   exactly the same transactions.  The lookup comparison then times the
   two decision paths directly on a shared cache. *)

module Db = Ooser_oodb.Database
module Engine = Ooser_oodb.Engine
module Runtime = Ooser_oodb.Runtime
module Protocol = Ooser_cc.Protocol
module Analysis = Ooser_analysis
module Json = Ooser_sim.Json

let chain_db n =
  let db = Db.create () in
  let cell name =
    let state = ref 0 in
    let read _ _ = Value.int !state in
    let write ctx args =
      match args with
      | [ Value.Int v ] ->
          let old = !state in
          Runtime.on_undo ctx (fun () -> state := old);
          state := v;
          Value.unit
      | _ -> invalid_arg "cert_bench: write"
    in
    Db.register db (Obj_id.v name) ~spec:rw
      [ ("read", Db.primitive read); ("write", Db.primitive write) ]
  in
  cell "HOT";
  for i = 1 to n do
    cell (Printf.sprintf "W%d" i)
  done;
  db

let chain_bodies n =
  List.init n (fun k ->
      let i = k + 1 in
      let body ctx =
        ignore (Runtime.call ctx hot "read" []);
        ignore (Runtime.call ctx (w i) "write" [ Value.int i ]);
        if i > 1 then
          ignore (Runtime.call ctx (w (i - 1)) "write" [ Value.int i ]);
        Value.unit
      in
      (i, Printf.sprintf "chain%d" i, body))

let chain_summaries n =
  List.init n (fun k ->
      let i = k + 1 in
      Analysis.Summary.txn
        (Printf.sprintf "chain%d" i)
        (Analysis.Summary.call hot "read" []
         :: Analysis.Summary.call (w i) "write" []
         ::
         (if i > 1 then [ Analysis.Summary.call (w (i - 1)) "write" [] ]
          else [])))

let atlas_table ?(n = 40) () =
  let db = chain_db n in
  let target =
    Analysis.Lint.target ~name:"cert-bench" ~summaries:(chain_summaries n)
      (Db.spec_registry db)
  in
  (Analysis.Atlas.build target).Analysis.Atlas.table

let lookup_pairs () =
  let mk top obj meth =
    Action.v
      ~id:(Ids.Action_id.v ~top ~path:[ 1 ])
      ~obj ~meth ~args:[ Value.int 0 ]
      ~process:(Ids.Process_id.main top)
      ()
  in
  List.concat_map
    (fun obj ->
      [
        (mk 1 obj "read", mk 2 obj "write");
        (mk 1 obj "write", mk 2 obj "write");
        (mk 1 obj "read", mk 2 obj "read");
      ])
    [ hot; w 1; w 2; w 3 ]

let time_lookup pairs c =
  let reps = 20_000 in
  (* first pass warms the memo (probe path) / pays nothing (table) *)
  List.iter (fun (a, b) -> ignore (Commutativity.cached_test c a b)) pairs;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    List.iter (fun (a, b) -> ignore (Commutativity.cached_test c a b)) pairs
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (reps * List.length pairs)

let lookup_bench tbl =
  let pairs = lookup_pairs () in
  let probe_c = Commutativity.cached registry in
  let table_c = Commutativity.cached registry in
  Commutativity.preload table_c tbl;
  (time_lookup pairs probe_c, time_lookup pairs table_c)

(* Spec-inference datapoint: probe latency of the hand specs (memoised
   predicate calls, keyed dispatch) against the same decisions answered
   from the inferred conflict table compiled by Infer.run — plus the
   inference coverage itself. *)
let infer_stats () =
  let target = Lint_targets.adts () in
  let r = Analysis.Infer.run target in
  let mk top obj meth args =
    Action.v
      ~id:(Ids.Action_id.v ~top ~path:[ 1 ])
      ~obj:(Obj_id.v obj) ~meth ~args
      ~process:(Ids.Process_id.main top)
      ()
  in
  let a = Value.str "a" and b = Value.str "b" in
  (* pairs whose cells the inference proved argument-independent, so
     the preloaded inferred table answers every one of them *)
  let pairs =
    [
      (mk 1 "set" "insert" [ a ], mk 2 "set" "insert" [ b ]);
      (mk 1 "set" "contains" [ a ], mk 2 "set" "cardinal" []);
      (mk 1 "set" "insert" [ a ], mk 2 "set" "cardinal" []);
      (mk 1 "dir" "lookup" [ a ], mk 2 "dir" "lookup" [ b ]);
      (mk 1 "dir" "list" [], mk 2 "dir" "bind" [ a; Value.int 1 ]);
      (mk 1 "dir" "list" [], mk 2 "dir" "lookup" [ a ]);
    ]
  in
  let reg = target.Analysis.Lint.registry in
  let probe_c = Commutativity.cached reg in
  let table_c = Commutativity.cached reg in
  Commutativity.preload table_c r.Analysis.Infer.table;
  let hand_probe_ns = time_lookup pairs probe_c in
  let inferred_table_ns = time_lookup pairs table_c in
  let _, cells = Commutativity.table_stats r.Analysis.Infer.table in
  {
    infer_decided = r.Analysis.Infer.decided;
    infer_total = r.Analysis.Infer.total;
    infer_table_cells = cells;
    infer_table_hits = Commutativity.atlas_hits table_c;
    hand_probe_ns;
    inferred_table_ns;
  }

let atlas_run ?(n = 40) () =
  let tbl = atlas_table ~n () in
  let run_engine atlas =
    let db = chain_db n in
    let protocol = Protocol.open_nested ~reg:(Db.spec_registry db) () in
    let config =
      { (Engine.default_config protocol) with Engine.certify = true }
    in
    Engine.run ~config ?atlas db ~protocol (chain_bodies n)
  in
  let probe_out = run_engine None in
  let atlas_out = run_engine (Some tbl) in
  let commits o = List.sort Int.compare o.Engine.committed in
  let aborts o = List.sort compare (List.map fst o.Engine.aborted) in
  let parity =
    commits probe_out = commits atlas_out
    && aborts probe_out = aborts atlas_out
  in
  let atlas_hits =
    Option.value ~default:0 (List.assoc_opt "atlas-hits" atlas_out.Engine.metrics)
  in
  let _, table_cells = Commutativity.table_stats tbl in
  let probe_ns, table_ns = lookup_bench tbl in
  {
    atlas_n = n;
    parity;
    committed = List.length atlas_out.Engine.committed;
    aborted = List.length atlas_out.Engine.aborted;
    atlas_hits;
    table_cells;
    probe_ns;
    table_ns;
  }

let run ?(n = 600) ?(chunk = 50) ?(samples = [ 50; 150; 300; 600 ]) () =
  let samples = List.filter (fun s -> s <= n) samples in
  let incremental, act_edges = run_incremental ~n ~chunk in
  let scratch = run_scratch ~samples in
  let inc_growth, len_growth = growth incremental in
  let scratch_growth, scratch_len_growth = growth scratch in
  {
    n_txns = n;
    chunk;
    incremental;
    scratch;
    act_edges;
    inc_growth;
    scratch_growth;
    len_growth;
    (* sub-linear: per-commit cost grows clearly slower than the history.
       The floor of 2x absorbs timer/GC noise on short runs, where
       len_growth/2 would demand the cost shrink outright; a genuinely
       linear certifier still fails it from ~4x history growth on *)
    incremental_sublinear = inc_growth < Float.max (len_growth /. 2.) 2.0;
    scratch_superlinear = scratch_growth >= scratch_len_growth;
    atlas = atlas_run ();
    infer = infer_stats ();
  }

let json_fields r =
  let point p = Json.(Obj [ "upto", Int p.upto; "seconds", Float p.seconds ]) in
  let a = r.atlas and i = r.infer in
  Json.
    [ "n_txns", Int r.n_txns; "chunk", Int r.chunk;
      "incremental_per_commit", List (List.map point r.incremental);
      "scratch_full_check", List (List.map point r.scratch);
      "act_edges", Int r.act_edges; "inc_growth", Float r.inc_growth;
      "scratch_growth", Float r.scratch_growth;
      "len_growth", Float r.len_growth;
      "incremental_sublinear", Bool r.incremental_sublinear;
      "scratch_superlinear", Bool r.scratch_superlinear;
      ( "atlas",
        Obj
          [ "n", Int a.atlas_n; "parity", Bool a.parity;
            "committed", Int a.committed;
            "aborted", Int a.aborted; "atlas_hits", Int a.atlas_hits;
            "table_cells", Int a.table_cells; "probe_ns", Float a.probe_ns;
            "table_ns", Float a.table_ns ] );
      ( "infer",
        Obj
          [ "decided", Int i.infer_decided; "total", Int i.infer_total;
            "table_cells", Int i.infer_table_cells;
            "table_hits", Int i.infer_table_hits;
            "hand_probe_ns", Float i.hand_probe_ns;
            "inferred_table_ns", Float i.inferred_table_ns ] ) ]

let pp ppf r =
  Fmt.pf ppf "@[<v>certification scaling (%d txns, chunks of %d)@," r.n_txns
    r.chunk;
  Fmt.pf ppf "incremental mean per-commit:@,";
  List.iter
    (fun p -> Fmt.pf ppf "  upto %4d: %8.2f us@," p.upto (p.seconds *. 1e6))
    r.incremental;
  Fmt.pf ppf "from-scratch full check:@,";
  List.iter
    (fun p -> Fmt.pf ppf "  upto %4d: %8.2f ms@," p.upto (p.seconds *. 1e3))
    r.scratch;
  Fmt.pf ppf "growth: incremental %.2fx vs history %.2fx (sublinear: %b)@,"
    r.inc_growth r.len_growth r.incremental_sublinear;
  Fmt.pf ppf "        scratch %.2fx (superlinear: %b)@,"
    r.scratch_growth r.scratch_superlinear;
  Fmt.pf ppf
    "atlas parity (%d txns): %s — %d committed, %d aborted, %d table hits@,"
    r.atlas.atlas_n
    (if r.atlas.parity then "identical to probe path" else "MISMATCH")
    r.atlas.committed r.atlas.aborted r.atlas.atlas_hits;
  Fmt.pf ppf
    "conflict lookup: probe %.1f ns vs table %.1f ns (%d cells)@,"
    r.atlas.probe_ns r.atlas.table_ns r.atlas.table_cells;
  Fmt.pf ppf
    "spec inference (adts): %d/%d cells decided, %d compiled; hand probe \
     %.1f ns vs inferred table %.1f ns (%d table hits)@]"
    r.infer.infer_decided r.infer.infer_total r.infer.infer_table_cells
    r.infer.hand_probe_ns r.infer.inferred_table_ns r.infer.infer_table_hits
