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
  }

module Json = Ooser_sim.Json

let json_fields r =
  let point p = Json.(Obj [ "upto", Int p.upto; "seconds", Float p.seconds ]) in
  Json.
    [ "n_txns", Int r.n_txns; "chunk", Int r.chunk;
      "incremental_per_commit", List (List.map point r.incremental);
      "scratch_full_check", List (List.map point r.scratch);
      "act_edges", Int r.act_edges; "inc_growth", Float r.inc_growth;
      "scratch_growth", Float r.scratch_growth;
      "len_growth", Float r.len_growth;
      "incremental_sublinear", Bool r.incremental_sublinear;
      "scratch_superlinear", Bool r.scratch_superlinear ]

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
  Fmt.pf ppf "        scratch %.2fx (superlinear: %b)@]"
    r.scratch_growth r.scratch_superlinear
