(* Offline certification: trace format round-trip and torn tails, the
   segmenter's quiescent cuts, and the headline soundness property —
   [Certify.run] agrees with the from-scratch [Serializability.check]
   oracle on random histories, including a planted ring that no
   quiescent point splits. *)

open Ooser_core
open Ooser_certify
module Rs = Ooser_workload.Random_schedules
open Ids

let tmp_trace () =
  let path = Filename.temp_file "ooser_trace" ".bin" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* ---------- little builders ---------- *)

let rw_registry () = Bench_trace.registry ()

(* flat transaction [top] doing [(key, write?)] ops at the given stamps *)
let flat ~top ops stamps =
  let root =
    Action.v
      ~id:(Action_id.root top)
      ~obj:(Obj_id.v "S") ~meth:"txn"
      ~process:(Process_id.main top)
      ()
  in
  let children =
    List.mapi
      (fun k (key, is_w) ->
        Call_tree.v
          (Action.v
             ~id:(Action_id.child (Action_id.root top) (k + 1))
             ~obj:(Obj_id.v (Printf.sprintf "K%d" key))
             ~meth:(if is_w then "w" else "r")
             ~process:(Process_id.main top)
             ())
          [])
      ops
  in
  {
    Trace.top;
    tree = Call_tree.seq root children;
    prims =
      List.mapi
        (fun k s -> (Action_id.child (Action_id.root top) (k + 1), s))
        stamps;
  }

let write_records path records =
  let w = Trace.create_writer ~registry:"bench:rw" path in
  List.iter (Trace.append w) records;
  Trace.close w

(* ---------- trace format ---------- *)

let test_roundtrip () =
  let path = tmp_trace () in
  let r1 = flat ~top:1 [ (0, true); (1, false) ] [ 1; 4 ] in
  let r2 = flat ~top:2 [ (1, true) ] [ 2 ] in
  write_records path [ r1; r2 ];
  let t = Trace.load path in
  Alcotest.(check string) "registry" "bench:rw" (Trace.registry_name t);
  Alcotest.(check int) "length" 2 (Trace.length t);
  let e = (Trace.entries t).(0) in
  Alcotest.(check int) "top" 1 e.Trace.e_top;
  Alcotest.(check int) "min" 1 e.Trace.min_stamp;
  Alcotest.(check int) "max" 4 e.Trace.max_stamp;
  Alcotest.(check int) "depth" 1 e.Trace.max_depth;
  let r1' = Trace.record t 0 in
  Alcotest.(check int) "record top" 1 r1'.Trace.top;
  Alcotest.(check int) "prims" 2 (List.length r1'.Trace.prims);
  Alcotest.(check bool) "tree equal" true
    (Call_tree.act r1'.Trace.tree |> Action.meth = "txn");
  let prim = List.hd (Call_tree.children r1'.Trace.tree) in
  Alcotest.(check string) "child obj" "K0"
    (Obj_id.name (Action.obj (Call_tree.act prim)));
  Alcotest.(check string) "child meth" "w" (Action.meth (Call_tree.act prim))

let test_torn_tail () =
  let path = tmp_trace () in
  write_records path
    [ flat ~top:1 [ (0, true) ] [ 1 ]; flat ~top:2 [ (0, true) ] [ 2 ] ];
  let whole = In_channel.with_open_bin path In_channel.input_all in
  (* truncate mid-way through the last frame: the reader must keep the
     stable prefix *)
  let torn = String.sub whole 0 (String.length whole - 5) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc torn);
  let t = Trace.load path in
  Alcotest.(check int) "torn tail truncated" 1 (Trace.length t);
  Alcotest.(check int) "surviving top" 1 (Trace.record t 0).Trace.top

let test_not_a_trace () =
  let path = tmp_trace () in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "garbage that is not a trace at all");
  Alcotest.check_raises "bad magic" (Failure "Trace: empty or torn header")
    (fun () -> ignore (Trace.load path))

let test_trace_zero_byte () =
  let path = tmp_trace () in
  Out_channel.with_open_bin path (fun _ -> ());
  (* a 0-byte file has no header frame at all — must refuse, not return
     an empty trace that would "certify" vacuously *)
  Alcotest.check_raises "zero-byte file"
    (Failure "Trace: empty or torn header") (fun () ->
      ignore (Trace.load path))

let test_trace_header_only () =
  let path = tmp_trace () in
  (* a recorder that crashed before its first commit leaves exactly the
     header: a legitimate, empty trace *)
  Trace.close (Trace.create_writer ~registry:"bench:rw" path);
  let t = Trace.load path in
  Alcotest.(check string) "registry survives" "bench:rw" (Trace.registry_name t);
  Alcotest.(check int) "no records" 0 (Trace.length t);
  let plan = Segment.plan t ~target:1 in
  Alcotest.(check int) "no segments" 0 (Array.length plan.Segment.segs)

(* ---------- segmenter ---------- *)

(* [plan]'s segments tile [0, n) in order, and no span crosses a
   boundary: everything before it ended before everything after it
   started *)
let tiles_quiescently t (plan : Segment.t) =
  let entries = Trace.entries t in
  let n = Array.length entries in
  let segs = Array.to_list plan.Segment.segs in
  let rec tiles pos = function
    | [] -> pos = n
    | (s : Segment.seg) :: rest ->
        s.Segment.lo = pos && s.Segment.hi > pos && tiles s.Segment.hi rest
  in
  let stamp p f = f entries.(plan.Segment.order.(p)) in
  let quiescent (s : Segment.seg) =
    s.Segment.hi = n
    ||
    let reach = ref min_int in
    for p = 0 to s.Segment.hi - 1 do
      reach := max !reach (stamp p (fun e -> e.Trace.max_stamp))
    done;
    let start = ref max_int in
    for p = s.Segment.hi to n - 1 do
      start := min !start (stamp p (fun e -> e.Trace.min_stamp))
    done;
    !reach < !start
  in
  tiles 0 segs && List.for_all quiescent segs

let test_segment_quiescent () =
  let path = tmp_trace () in
  (* three serial transactions: every boundary is quiescent *)
  write_records path
    [
      flat ~top:1 [ (0, true) ] [ 1 ];
      flat ~top:2 [ (0, true) ] [ 2 ];
      flat ~top:3 [ (0, true) ] [ 3 ];
    ];
  let t = Trace.load path in
  let plan = Segment.plan t ~target:1 in
  Alcotest.(check int) "three segments" 3 (Array.length plan.Segment.segs);
  Alcotest.(check bool) "quiescent tiling" true (tiles_quiescently t plan)

let test_segment_no_quiescent_point () =
  let path = tmp_trace () in
  (* T1 spans everything: no quiescent point exists, so however small
     the target the whole trace is one segment *)
  write_records path
    [
      flat ~top:1 [ (9, true); (9, true) ] [ 1; 100 ];
      flat ~top:2 [ (0, true) ] [ 2 ];
      flat ~top:3 [ (1, true) ] [ 3 ];
      flat ~top:4 [ (2, true) ] [ 4 ];
      flat ~top:5 [ (3, true) ] [ 5 ];
      flat ~top:6 [ (4, true) ] [ 6 ];
      flat ~top:7 [ (5, true) ] [ 7 ];
      flat ~top:8 [ (6, true) ] [ 8 ];
      flat ~top:9 [ (7, true) ] [ 9 ];
    ];
  let t = Trace.load path in
  let plan = Segment.plan t ~target:2 in
  Alcotest.(check int) "one segment" 1 (Array.length plan.Segment.segs);
  Alcotest.(check int) "covers lo" 0 plan.Segment.segs.(0).Segment.lo;
  Alcotest.(check int) "covers hi" 9 plan.Segment.segs.(0).Segment.hi

(* every boundary quiescent AND target 1: n degenerate one-transaction
   segments, each trivially serializable on its own — the planner must
   not merge or skip them *)
let test_segment_degenerate_singletons () =
  let path = tmp_trace () in
  write_records path [ flat ~top:1 [ (0, true); (1, false) ] [ 1; 2 ] ];
  let t1 = Trace.load path in
  let plan1 = Segment.plan t1 ~target:1 in
  Alcotest.(check int) "single record: one segment" 1
    (Array.length plan1.Segment.segs);
  let s = plan1.Segment.segs.(0) in
  Alcotest.(check int) "covers lo" 0 s.Segment.lo;
  Alcotest.(check int) "covers hi" 1 s.Segment.hi;
  (* four serial writers, target 1: four 1-txn segments, and
     certification over them still reaches the right verdict *)
  write_records path
    (List.init 4 (fun k -> flat ~top:(k + 1) [ (0, true) ] [ k + 1 ]));
  let t4 = Trace.load path in
  let plan4 = Segment.plan t4 ~target:1 in
  Alcotest.(check int) "four 1-txn segments" 4
    (Array.length plan4.Segment.segs);
  Array.iter
    (fun (s : Segment.seg) ->
      Alcotest.(check int) "degenerate width" 1 (s.Segment.hi - s.Segment.lo))
    plan4.Segment.segs;
  let r = Certify.run ~workers:2 ~segment_target:1 ~registry:(rw_registry ()) t4 in
  Alcotest.(check bool) "serial trace certifies" true r.Certify.ok;
  Alcotest.(check int) "all four counted" 4 r.Certify.txns;
  Alcotest.(check int) "four segments certified" 4 r.Certify.segments

(* ---------- certification ---------- *)

let run_path ?workers ?segment_target ~registry path =
  Certify.run ?workers ?segment_target ~registry (Trace.load path)

let test_certify_clean () =
  let path = tmp_trace () in
  let p = { Bench_trace.default_params with txns = 400; burst = 16; keys = 32 } in
  Bench_trace.generate ~path p;
  let t = Trace.load path in
  let r = Certify.run ~workers:2 ~segment_target:50 ~registry:(rw_registry ()) t in
  Alcotest.(check bool) "certified" true r.Certify.ok;
  Alcotest.(check int) "all txns" 400 r.Certify.txns;
  Alcotest.(check bool) "segmented" true (r.Certify.segments > 1);
  Alcotest.(check bool) "quiescent cuts" true
    (tiles_quiescently t (Segment.plan t ~target:50))

let test_certify_planted () =
  let path = tmp_trace () in
  let p =
    {
      Bench_trace.default_params with
      txns = 400;
      burst = 16;
      keys = 32;
      plant_cycle = true;
    }
  in
  Bench_trace.generate ~path p;
  let r = run_path ~workers:2 ~segment_target:50 ~registry:(rw_registry ()) path in
  Alcotest.(check bool) "rejected" false r.Certify.ok;
  match r.Certify.violation with
  | Some v -> Alcotest.(check bool) "witness tops" true (v.Certify.witness <> [])
  | None -> Alcotest.fail "no violation reported"

(* The planted ring: an eight-transaction write cycle
   T1 -> T2 -> ... -> T8 -> T1.  T1's second write lands after
   everything else, so no quiescent point exists and the ring is one
   segment even at target 1: its own certifier sees the whole cycle. *)
let test_ring_one_segment () =
  let path = tmp_trace () in
  write_records path
    [
      (* Ti writes P(i-1) then P(i mod 8); T1's P0 write comes last,
         after T8's, closing the ring backwards *)
      flat ~top:1 [ (1, true); (0, true) ] [ 2; 100 ];
      flat ~top:2 [ (1, true); (2, true) ] [ 3; 4 ];
      flat ~top:3 [ (2, true); (3, true) ] [ 5; 6 ];
      flat ~top:4 [ (3, true); (4, true) ] [ 7; 8 ];
      flat ~top:5 [ (4, true); (5, true) ] [ 9; 10 ];
      flat ~top:6 [ (5, true); (6, true) ] [ 11; 12 ];
      flat ~top:7 [ (6, true); (7, true) ] [ 13; 14 ];
      flat ~top:8 [ (7, true); (0, true) ] [ 15; 16 ];
    ];
  let t = Trace.load path in
  let r = Certify.run ~workers:2 ~segment_target:1 ~registry:(rw_registry ()) t in
  Alcotest.(check int) "one segment" 1 r.Certify.segments;
  Alcotest.(check bool) "cycle caught" false r.Certify.ok;
  (match r.Certify.violation with
  | Some v ->
      Alcotest.(check int) "refused by segment 0" 0 v.Certify.segment;
      Alcotest.(check (list int)) "witness holds the ring"
        [ 1; 2; 3; 4; 5; 6; 7; 8 ]
        (List.sort_uniq Int.compare v.Certify.witness)
  | None -> Alcotest.fail "no violation");
  (* the oracle agrees the full history is bad *)
  let h = Trace.to_history t ~commut:(rw_registry ()) in
  Alcotest.(check bool) "oracle agrees" false
    (Serializability.oo_serializable h)

(* ---------- agreement with the oracle ---------- *)

let verdict_oracle h =
  (Serializability.check h).Serializability.oo_serializable

(* random flat spans, some overlapping, some not, cut at targets 1-4 *)
let prop_segment_tiling =
  QCheck.Test.make
    ~name:"segments tile the trace at quiescent points (random flat)"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, target) ->
      let rng = Random.State.make [| seed; 91 |] in
      let n = Random.State.int rng 16 in
      let records =
        List.init n (fun k ->
            let lo = 1 + Random.State.int rng (3 * n) in
            let hi = lo + Random.State.int rng 6 in
            flat ~top:(k + 1) [ (k mod 4, true); ((k + 1) mod 4, false) ] [ lo; hi ])
      in
      let path = tmp_trace () in
      write_records path records;
      let t = Trace.load path in
      tiles_quiescently t (Segment.plan t ~target))

(* random flat traces: overlapping spans, tiny segment targets *)
let prop_flat_agreement =
  QCheck.Test.make ~name:"certify = oracle (random flat interleavings)"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 77 |] in
      let n = 6 + Random.State.int rng 6 in
      let keys = 4 in
      (* random spans: each txn gets 2 prims at random distinct stamps *)
      let stamps = Array.init (2 * n) (fun i -> i + 1) in
      (* shuffle stamp slots among transactions *)
      for i = Array.length stamps - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = stamps.(i) in
        stamps.(i) <- stamps.(j);
        stamps.(j) <- tmp
      done;
      let records =
        List.init n (fun k ->
            let s1 = stamps.(2 * k) and s2 = stamps.((2 * k) + 1) in
            let lo = min s1 s2 and hi = max s1 s2 in
            let ops =
              List.init 2 (fun _ ->
                  ( Random.State.int rng keys,
                    Random.State.bool rng ))
            in
            flat ~top:(k + 1) ops [ lo; hi ])
      in
      let path = tmp_trace () in
      write_records path records;
      let t = Trace.load path in
      let registry = rw_registry () in
      let r = Certify.run ~workers:2 ~segment_target:2 ~registry t in
      let oracle = verdict_oracle (Trace.to_history t ~commut:registry) in
      r.Certify.ok = oracle)

(* random nested (depth-2) systems under random interleavings: a burst
   with inherited dependencies (Def. 11) stays one segment and exact *)
let prop_nested_agreement =
  QCheck.Test.make ~name:"certify = oracle (random nested interleavings)"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params =
        {
          Rs.default_params with
          Rs.n_txns = 4;
          calls_per_txn = 2;
          prims_per_call = 2;
          n_objects = 3;
          n_pages = 4;
          p_commute = 0.5;
        }
      in
      let h = Rs.history ~seed ~order_seed:(seed * 31 + 1) params in
      let path = tmp_trace () in
      Trace.write_history ~registry:"random" path h;
      let t = Trace.load path in
      let registry = History.commut h in
      let r = Certify.run ~workers:2 ~segment_target:1 ~registry t in
      r.Certify.ok = verdict_oracle h)

(* serial orders: every transaction boundary is quiescent, so this
   exercises pure per-segment conjunction over one-transaction segments *)
let prop_serial_agreement =
  QCheck.Test.make ~name:"certify = oracle (serial nested orders)" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params =
        {
          Rs.default_params with
          Rs.n_txns = 5;
          calls_per_txn = 2;
          prims_per_call = 2;
          n_objects = 3;
          n_pages = 4;
          p_commute = 0.4;
        }
      in
      let trees, registry = Rs.system ~seed params in
      let order = List.concat_map History.serial_primitives trees in
      let h = History.v ~tops:trees ~order ~commut:registry in
      let path = tmp_trace () in
      Trace.write_history ~registry:"random" path h;
      let t = Trace.load path in
      let r = Certify.run ~workers:2 ~segment_target:1 ~registry t in
      r.Certify.ok = verdict_oracle h)

(* ---------- pinned escrow traces ---------- *)

(* A near-bound escrow banking run recorded through the engine's trace
   sink, lock-free, with certification on or off.  Returns the trace
   image and the engine's committed history. *)
let escrow_trace ~seed ~certify =
  let module Engine = Ooser_oodb.Engine in
  let module Banking = Ooser_workload.Banking in
  let p =
    {
      Banking.default_params with
      Banking.accounts = 3;
      initial = 6;
      high = 12;
      amount = 2;
      transfers_per_txn = 2;
      n_txns = 6;
    }
  in
  let db, _ = Banking.setup ~semantics:`Escrow p in
  let protocol = Ooser_cc.Protocol.unlocked () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.certify;
      strategy = Engine.Random_pick (Ooser_sim.Rng.create ~seed);
      max_restarts = 3;
    }
  in
  let txns = Banking.transactions ~rng:(Ooser_sim.Rng.create ~seed) p in
  let eng = Engine.create ~config db ~protocol in
  List.iter (fun (top, name, body) -> Engine.submit eng ~top ~name body) txns;
  let path = tmp_trace () in
  let w = Trace.create_writer ~registry:"banking" path in
  Engine.set_trace_sink eng
    (Some (fun ~top ~tree ~prims -> Trace.append w { Trace.top; tree; prims }));
  ignore (Engine.pump eng);
  Trace.close w;
  (* offline, specs resolve against a REBUILT database: fresh counters
     at their initial balances — only the recorded pins can reproduce
     the online verdicts *)
  let fresh, _ = Banking.setup ~semantics:`Escrow p in
  Ooser_oodb.Database.register fresh (Obj_id.v "S")
    ~spec:Commutativity.all_commute [];
  (Trace.load path, Engine.final_history eng, Ooser_oodb.Database.spec_registry fresh)

let pins_of tree =
  List.map (fun a -> (Action.id a, Action.pin a)) (Call_tree.primitives tree)

let test_escrow_trace_pins () =
  let rejected = ref 0 in
  for seed = 1 to 20 do
    (* the codec carries every pin *)
    let t, h, registry = escrow_trace ~seed ~certify:true in
    let online =
      List.concat_map pins_of (History.tops h) |> List.sort compare
    in
    let decoded =
      List.init (Trace.length t) (fun i -> (Trace.record t i).Trace.tree)
      |> List.concat_map pins_of |> List.sort compare
    in
    Alcotest.(check bool) "pins round-trip" true (online = decoded);
    Alcotest.(check bool) "pins recorded" true
      (List.exists (fun (_, p) -> p <> None) decoded);
    (* every commit the online certifier admitted certifies offline *)
    Alcotest.(check bool) "certified run certifies offline" true
      (Certify.run ~workers:1 ~registry t).Certify.ok;
    (* certification off: offline verdict = oracle on the pinned history *)
    let t, _, registry = escrow_trace ~seed ~certify:false in
    let oracle =
      Serializability.oo_serializable (Trace.to_history t ~commut:registry)
    in
    let offline = (Certify.run ~workers:1 ~registry t).Certify.ok in
    Alcotest.(check bool) (Printf.sprintf "seed %d: offline = oracle" seed)
      oracle offline;
    if not offline then incr rejected
  done;
  Alcotest.(check bool) "some uncertified history rejected" true (!rejected > 0)

let suites =
  [
    ( "certify",
      [
        Alcotest.test_case "trace round-trip" `Quick test_roundtrip;
        Alcotest.test_case "trace torn tail" `Quick test_torn_tail;
        Alcotest.test_case "trace bad magic" `Quick test_not_a_trace;
        Alcotest.test_case "trace zero-byte file" `Quick test_trace_zero_byte;
        Alcotest.test_case "trace header only" `Quick test_trace_header_only;
        Alcotest.test_case "escrow trace: pins round-trip, offline = online"
          `Quick test_escrow_trace_pins;
        Alcotest.test_case "segmenter quiescent cuts" `Quick
          test_segment_quiescent;
        Alcotest.test_case "segmenter degenerate 1-txn segments" `Quick
          test_segment_degenerate_singletons;
        Alcotest.test_case "no quiescent point: one segment" `Quick
          test_segment_no_quiescent_point;
        Alcotest.test_case "clean bench trace certifies" `Quick
          test_certify_clean;
        Alcotest.test_case "planted cycle rejected" `Quick test_certify_planted;
        Alcotest.test_case "planted ring is one segment" `Quick
          test_ring_one_segment;
        QCheck_alcotest.to_alcotest prop_segment_tiling;
        QCheck_alcotest.to_alcotest prop_flat_agreement;
        QCheck_alcotest.to_alcotest prop_nested_agreement;
        QCheck_alcotest.to_alcotest prop_serial_agreement;
      ] );
  ]
