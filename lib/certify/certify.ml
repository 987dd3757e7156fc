open Ooser_core
open Ids
module Json = Ooser_sim.Json

type violation = { segment : int; witness : int list; detail : string }

type report = {
  ok : bool;
  violation : violation option;
  txns : int;
  segments : int;
  workers : int;
  act_edges : int;
  txn_edges : int;
  peak_live : int;
  seg_seconds : float;
  seg_busy_seconds : float;
  elapsed_seconds : float;
  segment_txn_per_s : float;
}

type seg_result = {
  r_rejection : Incremental.rejection option;
  r_act_edges : int;
  r_txn_edges : int;
  r_seconds : float;
}

let tops_of_cycle cycle =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun id ->
      let top = Action_id.top id in
      if Hashtbl.mem seen top then None
      else begin
        Hashtbl.add seen top ();
        Some top
      end)
    cycle

let certify_segment trace plan ~registry ~stop (s : Segment.seg) =
  let t0 = Unix.gettimeofday () in
  let cert = Incremental.create registry in
  let rejection = ref None in
  let p = ref s.Segment.lo in
  while !rejection = None && !p < s.Segment.hi && not (Atomic.get stop) do
    let r = Trace.record trace plan.Segment.order.(!p) in
    let outcome =
      Incremental.add_commit cert ~tree:r.Trace.tree ~prims:r.Trace.prims
    in
    if not outcome.Incremental.accepted then
      rejection := outcome.Incremental.rejection;
    incr p
  done;
  let stats = Incremental.stats cert in
  {
    r_rejection = !rejection;
    r_act_edges = stats.Incremental.act_edges;
    r_txn_edges = stats.Incremental.txn_edges;
    r_seconds = Unix.gettimeofday () -. t0;
  }

let run ?(workers = 4) ?segment_target ~registry trace =
  let t_start = Unix.gettimeofday () in
  let txns = Trace.length trace in
  let workers = max 1 workers in
  let target =
    match segment_target with
    | Some k -> max 1 k
    | None -> Segment.default_target ~txns ~workers
  in
  let plan = Segment.plan trace ~target in
  let segs = plan.Segment.segs in
  let nsegs = Array.length segs in
  (* largest first, so a straggler segment starts early *)
  let queue = Array.init nsegs (fun i -> i) in
  let len i = segs.(i).Segment.hi - segs.(i).Segment.lo in
  Array.stable_sort (fun a b -> Int.compare (len b) (len a)) queue;
  let results : seg_result option array = Array.make nsegs None in
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  let live = Atomic.make 0 in
  let peak = Atomic.make 0 in
  let seg_t0 = Unix.gettimeofday () in
  let worker () =
    let continue = ref true in
    while !continue do
      let k = Atomic.fetch_and_add next 1 in
      if k >= nsegs || Atomic.get stop then continue := false
      else begin
        let l = Atomic.fetch_and_add live 1 + 1 in
        let rec bump () =
          let p = Atomic.get peak in
          if l > p && not (Atomic.compare_and_set peak p l) then bump ()
        in
        bump ();
        let i = queue.(k) in
        let r = certify_segment trace plan ~registry ~stop segs.(i) in
        results.(i) <- Some r;
        if r.r_rejection <> None then Atomic.set stop true;
        ignore (Atomic.fetch_and_add live (-1))
      end
    done
  in
  let domains =
    List.init
      (min (workers - 1) (max 0 (nsegs - 1)))
      (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join domains;
  let seg_seconds = Unix.gettimeofday () -. seg_t0 in
  let seg_busy, act_edges, txn_edges =
    Array.fold_left
      (fun ((s, a, x) as acc) r ->
        match r with
        | Some r -> (s +. r.r_seconds, a + r.r_act_edges, x + r.r_txn_edges)
        | None -> acc)
      (0.0, 0, 0) results
  in
  (* every boundary is quiescent, so the global verdict is the
     conjunction of the segment verdicts; report the first refusal in
     trace order *)
  let violation = ref None in
  Array.iteri
    (fun i r ->
      match r with
      | Some { r_rejection = Some rej; _ } when !violation = None ->
          violation :=
            Some
              {
                segment = i;
                witness = tops_of_cycle rej.Incremental.cycle;
                detail = Fmt.str "%a" Incremental.pp_rejection rej;
              }
      | _ -> ())
    results;
  {
    ok = !violation = None;
    violation = !violation;
    txns;
    segments = nsegs;
    workers;
    act_edges;
    txn_edges;
    peak_live = Atomic.get peak;
    seg_seconds;
    seg_busy_seconds = seg_busy;
    elapsed_seconds = Unix.gettimeofday () -. t_start;
    segment_txn_per_s =
      (if seg_seconds > 0.0 then float_of_int txns /. seg_seconds else 0.0);
  }

let to_json r =
  let violation v =
    let witness = List.map (fun t -> Json.Int t) v.witness in
    Json.
      [ ( "violation",
          Obj [ "segment", Int v.segment; "witness", List witness ] ) ]
  in
  Json.(
    Obj
      ([ "ok", Bool r.ok; "txns", Int r.txns; "segments", Int r.segments;
         "workers", Int r.workers; "act_edges", Int r.act_edges;
         "txn_edges", Int r.txn_edges;
         "peak_live_segments", Int r.peak_live;
         "segment_txn_per_s", Float r.segment_txn_per_s;
         "seg_seconds", Float r.seg_seconds;
         "seg_busy_seconds", Float r.seg_busy_seconds;
         "elapsed_seconds", Float r.elapsed_seconds ]
      @ Option.fold ~none:[] ~some:violation r.violation))

let pp ppf r =
  Fmt.pf ppf
    "@[<v>%s: %d txns in %d segments@,\
     workers %d: certified in %.3fs wall (%.3fs busy, peak %d live), total \
     %.3fs@]"
    (if r.ok then "CERTIFIED" else "NOT oo-serializable")
    r.txns r.segments r.workers r.seg_seconds r.seg_busy_seconds r.peak_live
    r.elapsed_seconds;
  match r.violation with
  | Some v -> Fmt.pf ppf "@,violation (segment %d): %s" v.segment v.detail
  | None -> ()
