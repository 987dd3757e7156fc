open Ooser_core
open Ids

let registry_name = "bench:rw"

let registry () =
  let key_spec = Commutativity.rw ~reads:[ "r" ] ~writes:[ "w" ] in
  Commutativity.registry
    ~known:(fun _ -> true)
    (fun o ->
      if Obj_id.equal (Obj_id.original o) Call_tree.Build.default_sys then
        Commutativity.all_commute
      else key_spec)

type params = {
  txns : int;
  keys : int;
  calls : int;
  burst : int;
  p_write : float;
  seed : int;
  plant_cycle : bool;
}

let default_params =
  {
    txns = 100_000;
    keys = 512;
    calls = 3;
    burst = 64;
    p_write = 0.3;
    seed = 7;
    plant_cycle = false;
  }

(* one flat transaction: root on S, primitive children given as
   (object name, method) in program order, [stamps] the global execution
   stamps of the primitives in the same order *)
let record ~top ~ops ~stamps =
  let root_act =
    Action.v
      ~id:(Action_id.root top)
      ~obj:Call_tree.Build.default_sys ~meth:"txn"
      ~process:(Process_id.main top)
      ()
  in
  let children =
    List.mapi
      (fun k (obj, meth) ->
        Call_tree.v
          (Action.v
             ~id:(Action_id.child (Action_id.root top) (k + 1))
             ~obj:(Obj_id.v obj) ~meth
             ~process:(Process_id.main top)
             ())
          [])
      ops
  in
  let tree = Call_tree.seq root_act children in
  let prims =
    List.mapi
      (fun k stamp ->
        (Action_id.child (Action_id.root top) (k + 1), stamp))
      stamps
  in
  { Trace.top; tree; prims }

let key_ops ops =
  List.map
    (fun (key, is_write) ->
      (Printf.sprintf "K%d" key, if is_write then "w" else "r"))
    ops

let generate ~path p =
  let rng = Random.State.make [| p.seed |] in
  let w = Trace.create_writer ~registry:registry_name path in
  Fun.protect
    ~finally:(fun () -> Trace.close w)
    (fun () ->
      let stamp = ref 0 in
      let next_stamp () =
        incr stamp;
        !stamp
      in
      let top = ref 0 in
      let planted = ref (not p.plant_cycle) in
      let mid = p.txns / 2 in
      let emitted = ref 0 in
      while !emitted < p.txns do
        let burst = min p.burst (p.txns - !emitted) in
        (* Each transaction's key operations get a contiguous stamp
           block, so every conflict edge follows block order and the
           history is serializable by construction.  A trailing read of
           the shared PAD object (reads commute: no edges) is stamped
           after all the burst's blocks, stretching every span over the
           rest of the burst — no quiescent point exists inside a
           burst, only at burst boundaries. *)
        let txns =
          Array.init burst (fun _ ->
              incr top;
              let ops =
                List.init p.calls (fun _ ->
                    ( Random.State.int rng p.keys,
                      Random.State.float rng 1.0 < p.p_write ))
              in
              let stamps = List.map (fun _ -> next_stamp ()) ops in
              (!top, ops, stamps))
        in
        Array.iter
          (fun (top, ops, stamps) ->
            let pad = next_stamp () in
            Trace.append w
              (record ~top
                 ~ops:(key_ops ops @ [ ("PAD", "r") ])
                 ~stamps:(stamps @ [ pad ])))
          txns;
        emitted := !emitted + burst;
        if (not !planted) && !emitted >= mid then begin
          (* two writers with reversed orders on two fresh-ish keys:
             X: Ta before Tb, Y: Tb before Ta — a root-level 2-cycle *)
          planted := true;
          let x = 0 and y = 1 in
          let sa1 = next_stamp () in
          let sb1 = next_stamp () in
          let sb2 = next_stamp () in
          let sa2 = next_stamp () in
          incr top;
          let ta = !top in
          incr top;
          let tb = !top in
          Trace.append w
            (record ~top:tb
               ~ops:(key_ops [ (y, true); (x, true) ])
               ~stamps:[ sb1; sb2 ]);
          Trace.append w
            (record ~top:ta
               ~ops:(key_ops [ (x, true); (y, true) ])
               ~stamps:[ sa1; sa2 ])
        end
      done)
