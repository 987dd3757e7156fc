open Ooser_core
open Ids
module Json = Ooser_sim.Json

module Itop = struct
  type t = int

  let compare = Int.compare
  let pp = Fmt.int
end

module G = Digraph.Make (Itop)

type violation = {
  where : [ `Segment of int | `Probe of int * int | `Stitch ];
  witness : int list;
  detail : string;
}

type report = {
  ok : bool;
  violation : violation option;
  txns : int;
  segments : int;
  quiescent_cuts : int;
  heuristic_cuts : int;
  multi_chains : int;
  escalated : int;
  workers : int;
  probes : int;
  probe_edges : int;
  root_edges : int;
  act_edges : int;
  txn_edges : int;
  peak_live : int;
  seg_seconds : float;
  seg_busy_seconds : float;
  stitch_seconds : float;
  elapsed_seconds : float;
  segment_txn_per_s : float;
}

(* One schedulable unit of per-segment work: a single segment, or a
   whole heuristic chain merged because it contains nested (depth >= 2)
   transactions — inherited dependencies between such transactions are
   not recoverable from pairwise probes, so the chain is certified
   sequentially as one certifier run. *)
type unit_work = {
  u_lo : int;  (* position range into plan.order *)
  u_hi : int;
  u_seg : int;  (* first segment index, for violation reporting *)
  u_escalated : bool;
  u_stitch : bool;
      (* true iff this unit is one segment of a flat multi-segment
         heuristic chain — the only case where its root-root frontier
         must be exported to the global stitch digraph.  A cycle can
         never cross a quiescent cut (every cross-cut edge points
         forward), so quiescent-isolated segments and escalated chains
         are fully discharged by their own certifier run. *)
}

type unit_result = {
  r_edges : (int * int) list;  (* Def. 15 root-root frontier *)
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

let certify_unit trace plan ~registry ~stop u =
  let t0 = Unix.gettimeofday () in
  let cert = Incremental.create registry in
  let rejection = ref None in
  let p = ref u.u_lo in
  while !rejection = None && !p < u.u_hi && not (Atomic.get stop) do
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
    r_edges =
      (if !rejection = None && u.u_stitch then Incremental.root_txn_edges cert
       else []);
    r_rejection = !rejection;
    r_act_edges = stats.Incremental.act_edges;
    r_txn_edges = stats.Incremental.txn_edges;
    r_seconds = Unix.gettimeofday () -. t0;
  }

(* footprint: the original object names the transaction's primitives
   touch — two transactions without a common object have no direct
   dependency edge, so their probe is skipped *)
let footprint (r : Trace.record) =
  let fp = Hashtbl.create 8 in
  List.iter
    (fun act ->
      Hashtbl.replace fp (Obj_id.name (Obj_id.original (Action.obj act))) ())
    (Call_tree.primitives r.Trace.tree);
  fp

let footprints_intersect a b =
  let small, big =
    if Hashtbl.length a <= Hashtbl.length b then (a, b) else (b, a)
  in
  Hashtbl.fold (fun k () acc -> acc || Hashtbl.mem big k) small false

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
  let entries = Trace.entries trace in
  let nsegs = Array.length plan.Segment.segs in
  let quiescent_cuts =
    Array.fold_left
      (fun acc (s : Segment.seg) ->
        if s.Segment.cut_before = Segment.Quiescent then acc + 1 else acc)
      (-1) plan.Segment.segs
    |> max 0
  in
  let heuristic_cuts =
    Array.fold_left
      (fun acc (s : Segment.seg) ->
        if s.Segment.cut_before = Segment.Heuristic then acc + 1 else acc)
      0 plan.Segment.segs
  in
  let chain_nested (i, j) =
    let lo = plan.Segment.segs.(i).Segment.lo
    and hi = plan.Segment.segs.(j).Segment.hi in
    let rec scan p =
      p < hi
      && (entries.(plan.Segment.order.(p)).Trace.max_depth >= 2 || scan (p + 1))
    in
    scan lo
  in
  (* build the work units: escalate nested heuristic chains *)
  let units = ref [] in
  let escalated = ref 0 in
  let flat_chains = ref [] in
  Array.iter
    (fun (i, j) ->
      if i = j then
        units :=
          {
            u_lo = plan.Segment.segs.(i).Segment.lo;
            u_hi = plan.Segment.segs.(i).Segment.hi;
            u_seg = i;
            u_escalated = false;
            u_stitch = false;
          }
          :: !units
      else if chain_nested (i, j) then begin
        incr escalated;
        units :=
          {
            u_lo = plan.Segment.segs.(i).Segment.lo;
            u_hi = plan.Segment.segs.(j).Segment.hi;
            u_seg = i;
            u_escalated = true;
            u_stitch = false;
          }
          :: !units
      end
      else begin
        flat_chains := (i, j) :: !flat_chains;
        for s = i to j do
          units :=
            {
              u_lo = plan.Segment.segs.(s).Segment.lo;
              u_hi = plan.Segment.segs.(s).Segment.hi;
              u_seg = s;
              u_escalated = false;
              u_stitch = true;
            }
            :: !units
        done
      end)
    plan.Segment.chains;
  (* largest first, so a straggler unit starts early *)
  let units =
    List.sort (fun a b -> Int.compare (b.u_hi - b.u_lo) (a.u_hi - a.u_lo)) !units
    |> Array.of_list
  in
  let nunits = Array.length units in
  let results : unit_result option array = Array.make nunits None in
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  let live = Atomic.make 0 in
  let peak = Atomic.make 0 in
  let seg_t0 = Unix.gettimeofday () in
  let worker () =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= nunits || Atomic.get stop then continue := false
      else begin
        let l = Atomic.fetch_and_add live 1 + 1 in
        let rec bump () =
          let p = Atomic.get peak in
          if l > p && not (Atomic.compare_and_set peak p l) then bump ()
        in
        bump ();
        let r = certify_unit trace plan ~registry ~stop units.(i) in
        results.(i) <- Some r;
        if r.r_rejection <> None then Atomic.set stop true;
        ignore (Atomic.fetch_and_add live (-1))
      end
    done
  in
  let domains =
    List.init
      (min (workers - 1) (max 0 (nunits - 1)))
      (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join domains;
  let seg_seconds = Unix.gettimeofday () -. seg_t0 in
  let seg_busy =
    Array.fold_left
      (fun acc r -> match r with Some r -> acc +. r.r_seconds | None -> acc)
      0.0 results
  in
  let act_edges, txn_edges =
    Array.fold_left
      (fun (a, x) r ->
        match r with
        | Some r -> (a + r.r_act_edges, x + r.r_txn_edges)
        | None -> (a, x))
      (0, 0) results
  in
  let violation = ref None in
  Array.iteri
    (fun i r ->
      match r with
      | Some { r_rejection = Some rej; _ } when !violation = None ->
          violation :=
            Some
              {
                where = `Segment units.(i).u_seg;
                witness = tops_of_cycle rej.Incremental.cycle;
                detail = Fmt.str "%a" Incremental.pp_rejection rej;
              }
      | _ -> ())
    results;
  (* ---------- stitch ---------- *)
  let stitch_t0 = Unix.gettimeofday () in
  let g = G.Incremental.create () in
  let inserted = Hashtbl.create 4096 in
  let root_edges = ref 0 in
  let probes = ref 0 in
  let probe_edges = ref 0 in
  let insert_edge ~where (a, b) =
    if a <> b && (not (Hashtbl.mem inserted (a, b))) && !violation = None then begin
      Hashtbl.add inserted (a, b) ();
      G.Incremental.add_vertex g a;
      G.Incremental.add_vertex g b;
      match G.Incremental.add_edge g a b with
      | `Ok -> incr root_edges
      | `Cycle ws ->
          violation :=
            Some
              {
                where;
                witness = ws;
                detail =
                  Fmt.str "global transaction-dependency cycle %a"
                    Fmt.(list ~sep:(any "->") int)
                    ws;
              }
    end
  in
  if !violation = None then begin
    (* only segments of flat multi-segment chains export a frontier
       (u_stitch); two units never share a transaction, so these
       insertions alone cannot cycle — cycles appear only once probe
       edges bridge the segments of a heuristic chain *)
    Array.iteri
      (fun i r ->
        match r with
        | Some r ->
            List.iter (insert_edge ~where:(`Segment units.(i).u_seg)) r.r_edges
        | None -> ())
      results;
    (* pairwise cross-segment probes inside each flat heuristic chain:
       the direct Def. 15 edges between two flat transactions derive
       from their two trees and stamps alone *)
    List.iter
      (fun (ci, cj) ->
        if !violation = None then begin
          let lo = plan.Segment.segs.(ci).Segment.lo
          and hi = plan.Segment.segs.(cj).Segment.hi in
          let seg_of = Array.make (hi - lo) ci in
          for s = ci to cj do
            for p = plan.Segment.segs.(s).Segment.lo
                to plan.Segment.segs.(s).Segment.hi - 1 do
              seg_of.(p - lo) <- s
            done
          done;
          let recs =
            Array.init (hi - lo) (fun k ->
                Trace.record trace plan.Segment.order.(lo + k))
          in
          let fps = Array.map footprint recs in
          for a = 0 to hi - lo - 1 do
            for b = a + 1 to hi - lo - 1 do
              if
                !violation = None
                && seg_of.(a) <> seg_of.(b)
                && footprints_intersect fps.(a) fps.(b)
              then begin
                incr probes;
                let mini = Incremental.create registry in
                let feed r =
                  Incremental.add_commit mini ~tree:r.Trace.tree
                    ~prims:r.Trace.prims
                in
                let oa = feed recs.(a) in
                let ob = if oa.Incremental.accepted then feed recs.(b) else oa in
                let ta = recs.(a).Trace.top and tb = recs.(b).Trace.top in
                match
                  if not oa.Incremental.accepted then oa.Incremental.rejection
                  else if not ob.Incremental.accepted then
                    ob.Incremental.rejection
                  else None
                with
                | Some rej ->
                    violation :=
                      Some
                        {
                          where = `Probe (ta, tb);
                          witness = tops_of_cycle rej.Incremental.cycle;
                          detail = Fmt.str "%a" Incremental.pp_rejection rej;
                        }
                | None ->
                    List.iter
                      (fun e ->
                        incr probe_edges;
                        insert_edge ~where:(`Probe (ta, tb)) e)
                      (Incremental.root_txn_edges mini)
              end
            done
          done
        end)
      (List.rev !flat_chains)
  end;
  let stitch_seconds = Unix.gettimeofday () -. stitch_t0 in
  let multi_chains =
    Array.fold_left
      (fun acc (i, j) -> if j > i then acc + 1 else acc)
      0 plan.Segment.chains
  in
  {
    ok = !violation = None;
    violation = !violation;
    txns;
    segments = nsegs;
    quiescent_cuts;
    heuristic_cuts;
    multi_chains;
    escalated = !escalated;
    workers;
    probes = !probes;
    probe_edges = !probe_edges;
    root_edges = !root_edges;
    act_edges;
    txn_edges;
    peak_live = Atomic.get peak;
    seg_seconds;
    seg_busy_seconds = seg_busy;
    stitch_seconds;
    elapsed_seconds = Unix.gettimeofday () -. t_start;
    segment_txn_per_s =
      (if seg_seconds > 0.0 then float_of_int txns /. seg_seconds else 0.0);
  }

let to_json r =
  let violation v =
    let where =
      match v.where with
      | `Segment s -> Printf.sprintf "segment-%d" s
      | `Probe (a, b) -> Printf.sprintf "probe-T%d-T%d" a b
      | `Stitch -> "stitch"
    in
    let witness = List.map (fun t -> Json.Int t) v.witness in
    Json.[ "violation", Obj [ "where", String where; "witness", List witness ] ]
  in
  Json.(
    Obj
      ([ "ok", Bool r.ok; "txns", Int r.txns; "segments", Int r.segments;
         "workers", Int r.workers; "quiescent_cuts", Int r.quiescent_cuts;
         "heuristic_cuts", Int r.heuristic_cuts;
         "multi_chains", Int r.multi_chains;
         "escalated", Int r.escalated; "probes", Int r.probes;
         "probe_edges", Int r.probe_edges; "root_edges", Int r.root_edges;
         "act_edges", Int r.act_edges; "txn_edges", Int r.txn_edges;
         "peak_live_segments", Int r.peak_live;
         "segment_txn_per_s", Float r.segment_txn_per_s;
         "seg_seconds", Float r.seg_seconds;
         "seg_busy_seconds", Float r.seg_busy_seconds;
         "stitch_seconds", Float r.stitch_seconds;
         "elapsed_seconds", Float r.elapsed_seconds ]
      @ Option.fold ~none:[] ~some:violation r.violation))

let pp ppf r =
  Fmt.pf ppf
    "@[<v>%s: %d txns in %d segments (%d quiescent cuts, %d heuristic, %d \
     chains stitched, %d escalated)@,\
     workers %d: certified in %.3fs wall (%.3fs busy, peak %d live), stitch \
     %.3fs (%d probes, %d root edges), total %.3fs@]"
    (if r.ok then "CERTIFIED" else "NOT oo-serializable")
    r.txns r.segments r.quiescent_cuts r.heuristic_cuts r.multi_chains
    r.escalated r.workers r.seg_seconds r.seg_busy_seconds r.peak_live
    r.stitch_seconds r.probes r.root_edges r.elapsed_seconds;
  match r.violation with
  | Some v ->
      Fmt.pf ppf "@,violation (%s): %s"
        (match v.where with
        | `Segment s -> Printf.sprintf "segment %d" s
        | `Probe (a, b) -> Printf.sprintf "probe T%d/T%d" a b
        | `Stitch -> "stitch")
        v.detail
  | None -> ()
