(* Offline-certification scaling curve (self-contained: no bechamel,
   so it also runs in CI).  One question: what does segmenting a
   recorded history at quiescent points buy over replaying it through
   the online incremental certifier?

   The harness generates a synthetic trace with Bench_trace (bursts of
   overlapping flat transactions over a bounded key universe — see
   bench_trace.mli for why the history is serializable by construction
   yet has no quiescent point inside a burst), certifies it with
   [Certify.run] at workers ∈ {1, 2, 4, 8}, and then replays the same
   trace through one [Incremental.t] fed commit-by-commit in stamp
   order — which is literally the engine's online certification path —
   as the verdict baseline.

   Per-segment certifier work grows quadratically with segment length
   on a fixed key universe (every conflicting pair on a key costs an
   edge), so more workers → smaller default segments → less total
   work: the speedup is real even on a single hardware thread, and the
   online monolithic replay is the most expensive point of all.  A
   planted-cycle trace exercises the rejection side: every worker
   count and the online replay must all reject it.

   Exits non-zero unless workers=4 certifies at least [gate_speedup]x
   faster than workers=1, every point accepts the clean trace, the
   online replay agrees with every point on both traces, and the
   planted cycle is rejected everywhere.  Writes the curve to
   BENCH_certify.json. *)

module BT = Ooser_certify.Bench_trace
module Certify = Ooser_certify.Certify
module Trace = Ooser_certify.Trace
module Incremental = Ooser_core.Incremental
module Json = Ooser_sim.Json

let gate_speedup = 2.5
let worker_points = [ 1; 2; 4; 8 ]

(* default key universe scales with the trace so conflict density per
   segment — and with it the quadratic share of the certifier's work —
   is the same at CI size and at the committed 1M+ size *)
let auto_keys txns = max 256 (txns / 36)

(* largest trace the online baseline replays in full: its cost per
   edge grows with history size (the whole point of going offline), so
   past the cap the baseline runs on a cap-sized trace of the same
   distribution and the big trace's verdict is cross-checked across
   the four worker segmentations instead *)
let default_online_cap = 100_000

type point = {
  p_workers : int;
  p_segments : int;
  p_act_edges : int;
  p_peak_live : int;
  p_seg_seconds : float;
  p_elapsed : float;
  p_txn_per_s : float;
  p_ok : bool;
}

let point_of_report (r : Certify.report) =
  {
    p_workers = r.Certify.workers;
    p_segments = r.Certify.segments;
    p_act_edges = r.Certify.act_edges;
    p_peak_live = r.Certify.peak_live;
    p_seg_seconds = r.Certify.seg_seconds;
    p_elapsed = r.Certify.elapsed_seconds;
    p_txn_per_s = r.Certify.segment_txn_per_s;
    p_ok = r.Certify.ok;
  }

(* the online baseline: one incremental certifier over the whole trace
   in commit order, exactly as the engine certifies live traffic; the
   verdict is "no commit was rejected" (the engine aborts a rejected
   transaction and carries on, so replay continues past a rejection) *)
let online_replay trace =
  let t0 = Unix.gettimeofday () in
  let cert = Incremental.create (BT.registry ()) in
  let rejected = ref 0 in
  let n = Trace.length trace in
  for i = 0 to n - 1 do
    let r = Trace.record trace i in
    let outcome =
      Incremental.add_commit cert ~tree:r.Trace.tree ~prims:r.Trace.prims
    in
    if not outcome.Incremental.accepted then incr rejected
  done;
  let stats = Incremental.stats cert in
  ( Unix.gettimeofday () -. t0,
    stats.Incremental.act_edges,
    !rejected = 0 )

let run_curve trace =
  List.map
    (fun w ->
      let r = Certify.run ~workers:w ~registry:(BT.registry ()) trace in
      let p = point_of_report r in
      Fmt.pr
        "  workers=%d  %s  %3d segments  %8d edges  seg %7.2fs  total %7.2fs  \
         %6.0f txn/s@."
        w
        (if p.p_ok then "ok " else "REJ")
        p.p_segments p.p_act_edges p.p_seg_seconds p.p_elapsed p.p_txn_per_s;
      p)
    worker_points

let to_json ~params ~trace_bytes points ~online:(on_txns, on_s, on_edges, on_ok)
    ~planted:(planted_txns, seg_reject, on_reject) ~speedup ~agree ~gate_ok =
  let point p =
    Json.(
      Obj
        [ "workers", Int p.p_workers; "ok", Bool p.p_ok;
          "segments", Int p.p_segments; "act_edges", Int p.p_act_edges;
          "peak_live", Int p.p_peak_live; "seg_seconds", Float p.p_seg_seconds;
          "elapsed_s", Float p.p_elapsed; "txn_per_s", Float p.p_txn_per_s ])
  in
  Json.(
    Obj
      [ ( "workload",
          Obj
            [ "txns", Int params.BT.txns; "keys", Int params.BT.keys;
              "calls", Int params.BT.calls; "burst", Int params.BT.burst;
              "p_write", Float params.BT.p_write; "seed", Int params.BT.seed;
              "trace_bytes", Int trace_bytes ] );
        "curve", List (List.map point points);
        ( "online",
          Obj
            [ "txns", Int on_txns; "elapsed_s", Float on_s;
              "act_edges", Int on_edges; "ok", Bool on_ok ] );
        ( "planted_cycle",
          Obj
            [ "txns", Int planted_txns; "segmented_rejects", Bool seg_reject;
              "online_rejects", Bool on_reject ] );
        "speedup_workers4_over_1", Float speedup;
        "verdicts_agree_with_online", Bool agree;
        "gate", Obj [ "min_speedup", Float gate_speedup; "ok", Bool gate_ok ] ])

let () =
  let out = ref "BENCH_certify.json" in
  let txns = ref 1_000_000 in
  let keys = ref 0 in
  let seed = ref 7 in
  let keep = ref "" in
  let online_cap = ref default_online_cap in
  let rec parse = function
    | [] -> ()
    | "-o" :: path :: rest ->
        out := path;
        parse rest
    | "-n" :: n :: rest ->
        txns := int_of_string n;
        parse rest
    | "-k" :: k :: rest ->
        keys := int_of_string k;
        parse rest
    | "-seed" :: s :: rest ->
        seed := int_of_string s;
        parse rest
    | "-t" :: path :: rest ->
        keep := path;
        parse rest
    | "-online-cap" :: m :: rest ->
        online_cap := int_of_string m;
        parse rest
    | a :: _ ->
        Fmt.epr
          "usage: certify_scaling [-n TXNS] [-k KEYS] [-seed N] [-o FILE] \
           [-t TRACE_FILE] [-online-cap M] (unknown arg %s)@."
          a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let keys = if !keys > 0 then !keys else auto_keys !txns in
  let params = { BT.default_params with BT.txns = !txns; keys; seed = !seed } in
  let path =
    if !keep <> "" then !keep
    else Filename.temp_file "certify_scaling" ".trc"
  in
  Fmt.pr "generating %d-txn trace (%d keys, bursts of %d) ...@." !txns keys
    params.BT.burst;
  BT.generate ~path params;
  let trace_bytes = (Unix.stat path).Unix.st_size in
  Fmt.pr "trace: %s (%d bytes)@." path trace_bytes;
  let trace = Trace.load path in
  Fmt.pr "@.scaling curve:@.";
  let points = run_curve trace in
  (* online baseline: full trace when affordable, else a cap-sized
     trace of the same distribution (same seed and density), whose
     segmented verdict is compared against the online one *)
  let online_txns = min !txns !online_cap in
  Fmt.pr
    "@.online monolithic replay (the engine's certification path, %d txns):@."
    online_txns;
  let on_s, on_edges, on_ok, on_seg_ok =
    if !txns <= !online_cap then
      let s, e, ok = online_replay trace in
      (s, e, ok, List.for_all (fun p -> p.p_ok) points)
    else begin
      let ci_keys = max 256 (online_txns * keys / !txns) in
      let cparams =
        { params with BT.txns = online_txns; keys = ci_keys }
      in
      let cpath = Filename.temp_file "certify_online" ".trc" in
      BT.generate ~path:cpath cparams;
      let ctrace = Trace.load cpath in
      let seg_ok =
        (Certify.run ~workers:4 ~registry:(BT.registry ()) ctrace).Certify.ok
      in
      let s, e, ok = online_replay ctrace in
      Sys.remove cpath;
      (s, e, ok, seg_ok)
    end
  in
  let online = (online_txns, on_s, on_edges, on_ok) in
  Fmt.pr "  online     %s  %8d edges  total %7.2fs@."
    (if on_ok then "ok " else "REJ")
    on_edges on_s;
  if !keep = "" then Sys.remove path;
  (* rejection side: a small hot trace with one planted cycle must be
     rejected by every worker count and by the online replay *)
  let planted_params =
    {
      BT.default_params with
      BT.txns = 10_000;
      keys = 256;
      seed = !seed;
      plant_cycle = true;
    }
  in
  let ppath = Filename.temp_file "certify_planted" ".trc" in
  BT.generate ~path:ppath planted_params;
  let ptrace = Trace.load ppath in
  let seg_reject =
    List.for_all
      (fun w ->
        not (Certify.run ~workers:w ~registry:(BT.registry ()) ptrace).Certify.ok)
      worker_points
  in
  let _, _, p_on_ok = online_replay ptrace in
  let on_reject = not p_on_ok in
  Sys.remove ppath;
  Fmt.pr
    "planted cycle (%d txns): segmented rejects=%b, online rejects=%b@."
    planted_params.BT.txns seg_reject on_reject;
  let find n = List.find (fun p -> p.p_workers = n) points in
  let t1 = (find 1).p_elapsed and t4 = (find 4).p_elapsed in
  let speedup = if t4 > 0.0 then t1 /. t4 else 0.0 in
  let all_ok = List.for_all (fun p -> p.p_ok) points in
  (* the four worker points are four different segmentations of the
     same trace — their verdicts must match each other and the online
     baseline's on its trace *)
  let unanimous =
    List.for_all (fun p -> p.p_ok = (find 1).p_ok) points
  in
  let agree = unanimous && on_seg_ok = on_ok in
  let gate_ok =
    speedup >= gate_speedup && all_ok && on_ok && agree && seg_reject
    && on_reject
  in
  Fmt.pr "@.workers=4 over workers=1: %.2fx (gate %.1fx)@." speedup
    gate_speedup;
  let json =
    to_json ~params ~trace_bytes points ~online
      ~planted:(planted_params.BT.txns, seg_reject, on_reject)
      ~speedup ~agree ~gate_ok
  in
  let oc = open_out !out in
  output_string oc (Json.indented json ^ "\n");
  close_out oc;
  Fmt.pr "wrote %s@." !out;
  if not gate_ok then begin
    if not all_ok then
      Fmt.epr "GATE FAILED: a worker point rejected the clean trace@.";
    if not on_ok then
      Fmt.epr "GATE FAILED: the online replay rejected the clean trace@.";
    if not (seg_reject && on_reject) then
      Fmt.epr "GATE FAILED: the planted cycle was not rejected everywhere@.";
    if speedup < gate_speedup then
      Fmt.epr "GATE FAILED: speedup %.2fx below %.1fx@." speedup gate_speedup;
    exit 1
  end
