(* oosdb — command line interface to the oo-serializability toolkit.

     oosdb check FILE [-v]        check a history description file
     oosdb fmt FILE               reprint a file canonically
     oosdb run [options]          run an encyclopedia workload
     oosdb acceptance [options]   acceptance rates of random interleavings
     oosdb lint [options]         static analysis of specs and programs
     oosdb analyze [options]      whole-workload static conflict atlas
     oosdb demo                   the paper's Example 4, with dependency table
     oosdb serve [options]        network transaction server (loopback/unix)
     oosdb recover DIR [options]  replay and re-certify a durable directory
     oosdb certify FILE [options] certify a recorded history trace offline
     oosdb client [options]       one-shot scripted transaction against a server
     oosdb loadgen [options]      closed-loop load generator against a server
*)

open Cmdliner
open Ooser_core
open Ooser_text
open Ooser_oodb
open Ooser_workload
module Protocol = Ooser_cc.Protocol
module Stack = Ooser_shard.Engine_stack
module Rng = Ooser_sim.Rng
module Json = Ooser_sim.Json
module Occ = Ooser_occ

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* -- check ----------------------------------------------------------------- *)

let print_verdicts ?(explain = false) ~verbose h =
  let v = Serializability.check h in
  Fmt.pr "transactions:                %d@." (List.length (History.tops h));
  Fmt.pr "primitive actions:           %d@." (List.length (History.order h));
  Fmt.pr "oo-serializable:             %b@." v.Serializability.oo_serializable;
  Fmt.pr "conventionally serializable: %b@."
    (Baselines.conventional_serializable h);
  if Baselines.is_layered h then
    Fmt.pr "multilevel serializable:     %b@."
      (Baselines.multilevel_serializable h);
  (match v.Serializability.witness with
  | Some w ->
      Fmt.pr "equivalent serial order:     %a@."
        (Fmt.list ~sep:Fmt.sp Ids.Action_id.pp) w
  | None -> ());
  if verbose then begin
    Fmt.pr "@.per-object verdicts:@.";
    List.iter
      (fun ov -> Fmt.pr "  %a@." Serializability.pp_object_verdict ov)
      v.Serializability.objects;
    let sched = Schedule.compute h in
    Fmt.pr "@.per-object transaction dependencies:@.";
    List.iter
      (fun os ->
        let deps = Action.Rel.edges os.Schedule.txn_dep in
        if deps <> [] then
          Fmt.pr "  %-14s %a@."
            (Obj_id.to_string os.Schedule.obj)
            (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (a, b) ->
                 Fmt.pf ppf "%a -> %a" Ids.Action_id.pp a Ids.Action_id.pp b))
            deps)
      (Schedule.objects sched)
  end;
  if explain then begin
    Fmt.pr "@.explanation:@.%s@." (Report.explain h)
  end;
  if v.Serializability.oo_serializable then 0 else 1

let check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"History description file (see the grammar in the README).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-object detail.")
  in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Trace every dependency (and any cycle) to its roots.")
  in
  let run file verbose explain =
    match Parser.parse_history (read_file file) with
    | Error msg ->
        Fmt.epr "error: %s@." msg;
        2
    | Ok h -> print_verdicts ~explain ~verbose h
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check the oo-serializability of a history description file.")
    Term.(const run $ file $ verbose $ explain)

(* -- fmt ------------------------------------------------------------------- *)

let fmt_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file =
    match Parser.parse_string (read_file file) with
    | Error msg ->
        Fmt.epr "error: %s@." msg;
        2
    | Ok doc ->
        print_string (Doc.to_string doc);
        0
  in
  Cmd.v
    (Cmd.info "fmt" ~doc:"Reprint a history description file canonically.")
    Term.(const run $ file)

(* -- run --------------------------------------------------------------------- *)

let protocol_conv =
  Arg.enum
    [ ("open", `Open); ("flat", `Flat); ("closed", `Closed); ("none", `None);
      ("certify", `Certify); ("occ", `Occ); ("occ-rw", `Occ_rw) ]

(* The occ engine run: the multiversion store registers the database, so
   the workload is the escrow banking mix (occ's model coverage) rather
   than the encyclopedia.  The certifiable history is the store's
   multiversion order — the engine's raw execution order can place a
   snapshot read after a concurrent commit it did not observe. *)
let run_occ ~txns ~seed mode =
  let p = { Banking.default_params with Banking.n_txns = txns } in
  let db, store =
    Occ.Workloads.setup_banking ~mode ~accounts:p.Banking.accounts
      ~balance:p.Banking.initial ~low:p.Banking.low ~high:p.Banking.high ()
  in
  let bodies = Banking.transactions ~rng:(Rng.create ~seed) p in
  let protocol = Occ.Store.protocol store in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:(seed + 1));
    }
  in
  let out = Engine.run ~config db ~protocol bodies in
  Fmt.pr "protocol:   %s (escrow banking mix)@." (Protocol.name protocol);
  Fmt.pr "committed:  %d / %d@." (List.length out.Engine.committed) txns;
  Fmt.pr "steps:      %d@." out.Engine.steps;
  List.iter (fun (k, v) -> Fmt.pr "%-11s %d@." (k ^ ":") v) out.Engine.metrics;
  Fmt.pr "total balance: %d (conserved: %b)@."
    (Occ.Workloads.total_balance store ~accounts:p.Banking.accounts)
    (Occ.Workloads.total_balance store ~accounts:p.Banking.accounts
    = p.Banking.accounts * p.Banking.initial);
  Fmt.pr "history oo-serializable: %b@."
    (Serializability.oo_serializable (Occ.Store.history store));
  if List.length out.Engine.committed = txns then 0 else 1

let run_cmd =
  let txns =
    Arg.(value & opt int 8 & info [ "n"; "txns" ] ~doc:"Concurrent transactions.")
  in
  let fanout =
    Arg.(value & opt int 8 & info [ "fanout" ] ~doc:"B+ tree keys per node.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let protocol =
    Arg.(value & opt protocol_conv `Open
         & info [ "p"; "protocol" ]
             ~doc:
               "Protocol: open, flat, closed, none, certify, occ (escrow \
                commutativity validation), occ-rw (read/write-projection \
                validation, the plain-SSI baseline).")
  in
  let scans =
    Arg.(value & flag & info [ "scans" ] ~doc:"Include readSeq scans in the mix.")
  in
  let dump =
    Arg.(value & opt (some string) None
         & info [ "dump" ]
             ~doc:"Write the executed history as a checkable description file.")
  in
  let run txns fanout seed protocol scans dump =
    let go protocol =
    let p =
      {
        Enc_workload.default_params with
        Enc_workload.n_txns = txns;
        mix =
          (if scans then Enc_workload.with_scans else Enc_workload.insert_heavy);
      }
    in
    let db, enc, bodies = Enc_workload.setup ~fanout ~rng:(Rng.create ~seed) p in
    let proto, certify =
      match protocol with
      | `None -> (Protocol.unlocked (), false)
      | #Stack.lock_kind as k -> (Stack.protocol k db, k = `Certify)
    in
    let config =
      {
        (Engine.default_config proto) with
        Engine.certify;
        Engine.strategy = Engine.Random_pick (Rng.create ~seed:(seed + 1));
      }
    in
    let out = Engine.run ~config db ~protocol:proto bodies in
    Fmt.pr "protocol:   %s@." (Protocol.name proto);
    Fmt.pr "committed:  %d / %d@." (List.length out.Engine.committed) txns;
    Fmt.pr "steps:      %d@." out.Engine.steps;
    List.iter (fun (k, v) -> Fmt.pr "%-11s %d@." (k ^ ":") v) out.Engine.metrics;
    Fmt.pr "structure:  %a@." Encyclopedia.pp_structure (Encyclopedia.structure enc);
    Fmt.pr "history oo-serializable: %b@."
      (Serializability.oo_serializable out.Engine.history);
    (match dump with
    | Some path ->
        let doc = Doc.of_history out.Engine.history in
        let oc = open_out path in
        output_string oc
          "# executed history dumped by oosdb run; commutativity specs are\n";
        output_string oc
          "# not recoverable from the engine: add object declarations before\n";
        output_string oc "# checking (undeclared objects default to allconflict).\n";
        output_string oc (Doc.to_string doc);
        close_out oc;
        Fmt.pr "history written to %s@." path
    | None -> ());
    if List.length out.Engine.committed = txns then 0 else 1
    in
    match protocol with
    | `Occ -> run_occ ~txns ~seed Occ.Store.Commute
    | `Occ_rw -> run_occ ~txns ~seed Occ.Store.Rw
    | `Open -> go `Open
    | `Flat -> go `Flat
    | `Closed -> go `Closed
    | `None -> go `None
    | `Certify -> go `Certify
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run an encyclopedia workload under a protocol ($(b,-p occ) runs \
          the escrow banking mix — the occ store's model coverage).")
    Term.(
      const run $ txns $ fanout $ seed $ protocol $ scans $ dump)

(* -- acceptance -------------------------------------------------------------- *)

let acceptance_cmd =
  let samples =
    Arg.(value & opt int 100 & info [ "samples" ] ~doc:"Interleavings to sample.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"System seed.") in
  let p_commute =
    Arg.(value & opt float 0.5
         & info [ "p-commute" ] ~doc:"Mid-level commutativity density.")
  in
  let atomic =
    Arg.(value & flag
         & info [ "atomic" ] ~doc:"Interleave at subtransaction granularity.")
  in
  let run samples seed p_commute atomic =
    let p =
      { Random_schedules.default_params with Random_schedules.p_commute }
    in
    let granularity = if atomic then `Subtransaction else `Primitive in
    let a = Random_schedules.acceptance ~granularity ~seed ~samples p in
    let pct n = 100.0 *. float_of_int n /. float_of_int samples in
    Fmt.pr "samples:      %d@." samples;
    Fmt.pr "conventional: %.1f%%@." (pct a.Random_schedules.conventional_accepted);
    Fmt.pr "multilevel:   %.1f%%@." (pct a.Random_schedules.multilevel_accepted);
    Fmt.pr "oo:           %.1f%%@." (pct a.Random_schedules.oo_accepted);
    0
  in
  Cmd.v
    (Cmd.info "acceptance"
       ~doc:"Acceptance rates of random interleavings per criterion.")
    Term.(const run $ samples $ seed $ p_commute $ atomic)

(* -- lint / analyze ----------------------------------------------------------- *)

module Analysis = Ooser_analysis

(* arguments shared by [lint] and [analyze] — one vocabulary, one
   exit-code mapping (Analysis.Lint.exit_code) for both *)
let suite_arg =
  let suite_conv =
    Arg.enum
      [ ("all", `All); ("banking", `Banking); ("inventory", `Inventory);
        ("encyclopedia", `Encyclopedia) ]
  in
  Arg.(value & opt suite_conv `All
       & info [ "suite" ]
           ~doc:"Registry to analyze: all, banking, inventory, encyclopedia.")

let lint_seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~doc:"Seed for the workload transaction mixes.")

let semantics_arg =
  let semantics_conv =
    Arg.enum [ ("escrow", `Escrow); ("rw", `Rw); ("conflict", `Conflict) ]
  in
  Arg.(value & opt semantics_conv `Escrow
       & info [ "semantics" ]
           ~doc:"Banking commutativity level: escrow, rw, conflict.")

let strict_arg =
  Arg.(value & flag
       & info [ "strict" ] ~doc:"Treat warnings as errors (exit non-zero).")

let lint_targets suite seed semantics =
  match suite with
  | `All -> Lint_targets.all ~seed ()
  | `Banking -> [ Lint_targets.banking ~semantics ~seed () ]
  | `Inventory -> [ Lint_targets.inventory ~seed () ]
  | `Encyclopedia -> [ Lint_targets.encyclopedia ~seed () ]

let lint_cmd =
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ]
             ~doc:"Output: text (human report) or json (one diagnostic per \
                   line).")
  in
  let run suite seed semantics strict format =
    List.fold_left
      (fun code t ->
        let diags = Analysis.Lint.run t in
        (match format with
        | `Text -> Analysis.Lint.report Fmt.stdout t diags
        | `Json ->
            List.iter
              (fun d ->
                print_endline (Json.compact (Analysis.Diagnostic.to_json d)))
              diags);
        max code (Analysis.Lint.exit_code ~strict diags))
      0
      (lint_targets suite seed semantics)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze commutativity specs and transaction programs: \
          spec soundness (SPEC*), Def. 5 virtual-object extension sites \
          (CALL*), and lock-order deadlock potential (DL*), without running \
          the engine.")
    Term.(const run $ suite_arg $ lint_seed_arg $ semantics_arg $ strict_arg
          $ format)

let analyze_cmd =
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json); ("dot", `Dot) ]) `Text
         & info [ "format" ]
             ~doc:"Output: text (atlas report), json (JSON Lines: one \
                   document per suite, one line each), or dot (conflict \
                   graph).")
  in
  let budget =
    Arg.(value & opt int 20_000
         & info [ "max-interleavings" ]
             ~doc:"Exhaustive-replay budget per transaction pair; pairs \
                   above it are reported unknown, never safe.")
  in
  let run suite seed semantics strict format budget =
    List.fold_left
      (fun code t ->
        let atlas = Analysis.Atlas.build ~max_interleavings:budget t in
        (match format with
        | `Text -> Fmt.pr "%a@." Analysis.Atlas.pp atlas
        | `Json -> print_endline (Json.compact (Analysis.Atlas.to_json atlas))
        | `Dot -> print_string (Analysis.Atlas.to_dot atlas));
        (* an unsafe pair is a warning: raw interleavings of the two
           types can violate oo-serializability, so the pair depends on
           the concurrency-control protocol for correctness.  Errors are
           reserved for defects (asymmetric specs, table contradictions);
           the lint exit-code mapping then applies to both commands. *)
        let diags =
          atlas.Analysis.Atlas.diagnostics
          @ List.map
              (fun (e : Analysis.Atlas.entry) ->
                Analysis.Diagnostic.v ~code:"ATLAS001"
                  ~severity:Analysis.Diagnostic.Warning
                  ~txn:(fst e.Analysis.Atlas.pair ^ "/"
                        ^ snd e.Analysis.Atlas.pair)
                  ~hint:
                    "run these transaction types under a locking protocol \
                     or certification, or strengthen the commutativity \
                     specs"
                  "two concurrent instances admit a non-oo-serializable \
                   interleaving (witness schedule in the atlas)")
              (Analysis.Atlas.unsafe_entries atlas)
        in
        max code (Analysis.Lint.exit_code ~strict diags))
      0
      (lint_targets suite seed semantics)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Whole-workload static conflict atlas: interprocedural dependency \
          inheritance (Defs. 10-13) over the workload's transaction \
          summaries, a safety verdict or minimal witness schedule per \
          transaction pair, and the HOT001/COMP001 rules.  Exits non-zero on any \
          unsafe pair (error), or on warnings under --strict — the same \
          mapping as lint.")
    Term.(const run $ suite_arg $ lint_seed_arg $ semantics_arg $ strict_arg
          $ format $ budget)

(* -- infer -------------------------------------------------------------------- *)

let infer_cmd =
  let suite_conv =
    Arg.enum
      [ ("adts", `Adts); ("all", `All); ("banking", `Banking);
        ("inventory", `Inventory); ("encyclopedia", `Encyclopedia) ]
  in
  let suite =
    Arg.(value & opt suite_conv `Adts
         & info [ "suite" ]
             ~doc:"Registry to audit: adts (default — the four semantic \
                   ADTs), all, banking, inventory, encyclopedia.")
  in
  let format =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ]
             ~doc:"Output: text (inference report) or json (one document \
                   per suite).")
  in
  let random_states =
    Arg.(value & opt int 100
         & info [ "random-states" ]
             ~doc:"Size of the randomized-state soundness pass per object \
                   group (commuting verdicts must also survive it).")
  in
  let run suite seed semantics strict format random_states =
    let targets =
      match suite with
      | `Adts -> [ Lint_targets.adts () ]
      | `All -> Lint_targets.adts () :: Lint_targets.all ~seed ()
      | `Banking -> [ Lint_targets.banking ~semantics ~seed () ]
      | `Inventory -> [ Lint_targets.inventory ~seed () ]
      | `Encyclopedia -> [ Lint_targets.encyclopedia ~seed () ]
    in
    List.fold_left
      (fun code t ->
        let r = Analysis.Infer.run ~seed ~random_states t in
        (match format with
        | `Text -> Fmt.pr "%a@." Analysis.Infer.pp r
        | `Json -> print_endline (Json.compact (Analysis.Infer.to_json r)));
        max code (Analysis.Lint.exit_code ~strict r.Analysis.Infer.diagnostics))
      0 targets
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:
         "Infer commutativity matrices from executable ADT semantics \
          (small-scope enumeration + randomized-state pass, forward \
          commutativity and abort safety) and diff them against the \
          registered hand specs: INFER001 (error) for unsound hand cells \
          with a minimal replayable witness, INFER002 (warning) for \
          provably conservative cells, INFER003 (info) for undecidable \
          cells.  Exit mapping as lint.")
    Term.(const run $ suite $ lint_seed_arg $ semantics_arg $ strict_arg
          $ format $ random_states)

(* -- demo --------------------------------------------------------------------- *)

let demo_cmd =
  let run () =
    let h = Paper_examples.example4_serial () in
    Fmt.pr "Example 4 (Figs. 7-8), serial execution T1 T2 T3 T4:@.@.";
    let sched = Schedule.compute h in
    List.iter
      (fun os ->
        let deps = Action.Rel.edges os.Schedule.txn_dep in
        if deps <> [] then
          Fmt.pr "  %-12s %a@."
            (Obj_id.to_string os.Schedule.obj)
            (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (a, b) ->
                 Fmt.pf ppf "%a -> %a" Ids.Action_id.pp a Ids.Action_id.pp b))
            deps)
      (Schedule.objects sched);
    Fmt.pr "@.crossing interleaving of T1/T3 (Fig. 7):@.";
    let h' = Paper_examples.example4_crossing () in
    Fmt.pr "  conventionally serializable: %b@."
      (Baselines.conventional_serializable h');
    Fmt.pr "  oo-serializable:             %b@."
      (Serializability.oo_serializable h');
    0
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"The paper's Example 4 dependency table.")
    Term.(const run $ const ())

(* -- serve / client / loadgen -------------------------------------------------- *)

module Srv = Ooser_server.Server
module Sclient = Ooser_server.Client
module Loadgen = Ooser_server.Loadgen
module Wire = Ooser_server.Wire

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Listen/connect on a unix-domain socket.")

let port_arg =
  Arg.(value & opt int 7707
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port on 127.0.0.1 (ignored with $(b,--socket)).")

let addr_of socket port =
  match socket with Some p -> Srv.Unix_sock p | None -> Srv.Tcp port

(* every database kind under the name flags and trace headers use *)
let db_kinds =
  List.map
    (fun k -> (Stack.db_kind_name k, k))
    [ `Encyclopedia; `Banking; `Inventory ]

let db_conv = Arg.enum db_kinds

let server_protocol_conv =
  Arg.enum
    [ ("open", `Open); ("flat", `Flat); ("closed", `Closed);
      ("certify", `Certify); ("occ", `Occ); ("occ-rw", `Occ_rw) ]

let serve_cmd =
  let db =
    Arg.(value & opt db_conv `Encyclopedia
         & info [ "db" ] ~doc:"Database: encyclopedia, banking, inventory.")
  in
  let protocol =
    Arg.(value & opt server_protocol_conv `Open
         & info [ "p"; "protocol" ]
             ~doc:"Protocol: open, flat, closed, certify, occ, occ-rw.")
  in
  let max_inflight =
    Arg.(value & opt int 32
         & info [ "max-inflight" ]
             ~doc:"Admission limit; further BEGINs queue.")
  in
  let timeout_ms =
    Arg.(value & opt int 0
         & info [ "timeout-ms" ]
             ~doc:"Default transaction deadline (0 = none).")
  in
  let preload =
    Arg.(value & opt int 200
         & info [ "preload" ] ~doc:"Encyclopedia keys seeded before serving.")
  in
  let durable =
    Arg.(value & opt (some string) None
         & info [ "durable" ] ~docv:"DIR"
             ~doc:
               "Journal commits to $(docv)/oplog.bin; on boot, recover \
                $(docv)'s snapshot and stable log before serving.  With \
                $(b,--shards), each shard journals to $(docv)/shard-N and \
                the coordinator's decisions to $(docv)/decisions.bin.")
  in
  let shards =
    Arg.(value & opt int 0
         & info [ "shards" ]
             ~doc:
               "Partition objects across $(docv) shard engines, each on \
                its own domain; cross-shard transactions two-phase-commit \
                through the Def. 15 edge-exchange coordinator.  0 = one \
                engine, no dispatcher." ~docv:"N")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "Record the committed history to $(docv) as an \
                offline-certifiable trace for $(b,oosdb certify): a \
                single-shard server streams every commit, a sharded \
                server exports the merged history at drain.")
  in
  let run socket port db protocol max_inflight timeout_ms preload durable
      shards trace =
    let config =
      {
        (Srv.default_config (addr_of socket port)) with
        Srv.db_kind = db;
        protocol_kind = protocol;
        shards;
        max_inflight;
        default_timeout_ms = timeout_ms;
        preload;
        durable_dir = durable;
        trace_path = trace;
      }
    in
    match
      (try Ok (Srv.create config) with Invalid_argument msg -> Error msg)
    with
    | Error msg ->
        Fmt.epr "oosdb serve: %s@." msg;
        2
    | Ok t ->
    Fmt.pr "oosdb serve: %a db=%s protocol=%s max-inflight=%d%s%s@."
      Srv.pp_addr config.Srv.addr
      (Stack.db_kind_name db)
      (Srv.protocol_kind_name protocol)
      max_inflight
      (if shards > 0 then Printf.sprintf " shards=%d" shards else "")
      (match durable with Some d -> " durable=" ^ d | None -> "");
    Option.iter (Fmt.pr "recovered: %a@." Stack.pp_report) (Srv.last_recovery t);
    (* drain on SIGINT/SIGTERM: the handler only raises a flag; the
       loop initiates the shutdown at a quiet point *)
    let stop = ref false in
    let handler = Sys.Signal_handle (fun _ -> stop := true) in
    (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
    while Srv.running t do
      if !stop then Srv.initiate_shutdown t;
      Srv.step t ~timeout:0.1
    done;
    let ok = Srv.certified t in
    Fmt.pr "%s@." (Srv.stats_json ~certified:(Some ok) t);
    if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Network transaction server: sessions over a loopback TCP or \
          unix-domain socket, multiplexed onto one engine.  Exits non-zero \
          if the committed history fails certification.")
    Term.(
      const run $ socket_arg $ port_arg $ db $ protocol $ max_inflight
      $ timeout_ms $ preload $ durable $ shards $ trace)

(* -- recover ------------------------------------------------------------------- *)

module RSnapshot = Ooser_recovery.Snapshot
module Recovery = Ooser_recovery.Recovery

let recover_cmd =
  let dir =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
           ~doc:"Durable directory (oplog.bin / snapshot.bin).")
  in
  let db =
    Arg.(value & opt db_conv `Encyclopedia
         & info [ "db" ]
             ~doc:"Database the log was recorded against: encyclopedia, \
                   banking, inventory.")
  in
  let protocol =
    Arg.(value & opt server_protocol_conv `Open
         & info [ "p"; "protocol" ]
             ~doc:"Protocol: open, flat, closed, certify.")
  in
  let preload =
    Arg.(value & opt int 200
         & info [ "preload" ] ~doc:"Encyclopedia keys the server preloads.")
  in
  let checkpoint =
    Arg.(value & flag
         & info [ "checkpoint" ]
             ~doc:"After a successful replay, fold the winners into the \
                   snapshot and truncate the log.")
  in
  let shards_arg =
    Arg.(value & opt int 0
         & info [ "shards" ] ~docv:"N"
             ~doc:
               "Recover a sharded server's directory: $(docv) per-shard \
                subdirectories (shard-0 ..), with in-doubt prepared \
                transactions resolved against DIR/decisions.bin \
                (presumed abort without a logged commit decision).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "After replay, export the recovered committed history to \
                $(docv) as an offline-certifiable trace for $(b,oosdb \
                certify).  Single-engine directories only: per-shard \
                logs carry shard-local stamps that do not merge into \
                one global execution order offline.")
  in
  let run dir db protocol preload checkpoint shards trace =
    match protocol with
    | `Occ | `Occ_rw ->
        Fmt.epr
          "oosdb recover: occ servers are in-memory (nothing durable to \
           recover)@.";
        2
    | #Stack.lock_kind as protocol_kind ->
    let config = { Stack.default with db_kind = db; protocol_kind; preload } in
    if shards > 0 && trace <> None then begin
      Fmt.epr "oosdb recover: --trace requires a single-engine directory@.";
      2
    end
    else if shards > 0 then begin
      let module DL = Ooser_recovery.Decision_log in
      let decisions, replays = Stack.replay_shards ~dir ~shards config in
      Fmt.pr "decisions:  %d logged (%d commit)@." (List.length decisions)
        (List.length (List.filter (fun d -> d.DL.commit) decisions));
      let ok =
        List.for_all Fun.id
          (List.mapi
             (fun i (r : Stack.replayed) ->
               Fmt.pr "shard %d: %a@." i Stack.pp_report r.report;
               let ok = Stack.ok r.report in
               if ok && checkpoint then
                 ignore (Stack.fold r);
               ok)
             replays)
      in
      if ok && checkpoint then begin
        DL.reset ~dir;
        Fmt.pr "checkpointed: %d shards, decision log reset@." shards
      end;
      if ok then 0 else 1
    end
    else begin
    let r = Stack.replay ~dir (Stack.build config) in
    let report = r.report in
    Fmt.pr "log:        %d stable records@." r.records;
    Fmt.pr "snapshot:   %d entries@." (List.length r.base.RSnapshot.entries);
    Fmt.pr "winners:    %d replayed, %d snapshot-deduped@."
      (List.length report.Engine.rec_winners)
      report.Engine.skipped_attempts;
    Fmt.pr "aborted:    %d compensated at their logged decision@."
      (List.length report.Engine.plan.Recovery.aborted);
    Fmt.pr "losers:     %d undone (in flight at the crash)@."
      (List.length report.Engine.undone);
    Fmt.pr "replayed:   %d root calls (%d failures)@."
      report.Engine.replayed_calls report.Engine.replay_failures;
    Fmt.pr "re-certified oo-serializable: %b@." report.Engine.recertified;
    let ok = Stack.ok report in
    (match trace with
    | Some path ->
        Ooser_certify.Trace.write_history
          ~registry:(Stack.db_kind_name db)
          path (Engine.final_history r.engine);
        Fmt.pr "trace:      wrote %s@." path
    | None -> ());
    if ok && checkpoint then begin
      let snap = Stack.fold r in
      Fmt.pr "checkpointed: %d snapshot entries, log truncated@."
        (List.length snap.RSnapshot.entries)
    end;
    if ok then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Replay a durable directory's snapshot and stable operation log \
          through a fresh engine, report the winners / losers, and \
          re-certify the recovered history.  Exits non-zero if replay \
          fails or the history is not oo-serializable.")
    Term.(const run $ dir $ db $ protocol $ preload $ checkpoint $ shards_arg
          $ trace)

(* -- certify ------------------------------------------------------------------- *)

module Ctrace = Ooser_certify.Trace
module Certify = Ooser_certify.Certify
module Bench_trace = Ooser_certify.Bench_trace

(* A database's registry, extended with the system object (Def. 4) the
   engine registers at create time (roots live there, all-commuting)
   and with [dynamic], the database kind's name-family resolver for
   objects a live run registered as it allocated them (encyclopedia
   pages, nodes, items) — a rebuilt database never allocated those.
   Objects neither knows resolve to all-conflict — sound but
   conservative, so a trace touching genuinely unknown objects may be
   refused where the live server would have accepted it. *)
let offline_db_registry ?(dynamic = fun _ -> None) db =
  let reg = Database.spec_registry db in
  let is_sys o =
    Ids.Obj_id.equal (Ids.Obj_id.original o) Call_tree.Build.default_sys
  in
  Commutativity.registry
    ~known:(fun o -> is_sys o || Commutativity.known reg o || dynamic o <> None)
    (fun o ->
      if is_sys o then Commutativity.all_commute
      else if Commutativity.known reg o then Commutativity.spec_for reg o
      else
        match dynamic o with
        | Some spec -> spec
        | None -> Commutativity.all_conflict)

let dynamic_of_kind = function
  | `Encyclopedia -> Ooser_oodb.Encyclopedia.offline_spec
  | _ -> fun _ -> None

(* A sharded trace's objects carry "s<i>:" prefixes (each shard's
   namespace is disjoint); specs are resolved by the unprefixed name
   against one rebuilt database of the same kind — shard databases
   assign specs by object name, so the spec is the same on every
   shard. *)
let offline_sharded_registry ?dynamic db =
  let inner = offline_db_registry ?dynamic db in
  let strip o =
    let n = Ids.Obj_id.name (Ids.Obj_id.original o) in
    if n = Ids.Obj_id.name Call_tree.Build.default_sys then Some n
    else
      match String.index_opt n ':' with
      | Some j when j > 1 && n.[0] = 's' ->
          Some (String.sub n (j + 1) (String.length n - j - 1))
      | _ -> None
  in
  Commutativity.registry
    ~known:(fun o ->
      match strip o with
      | Some base -> Commutativity.known inner (Ids.Obj_id.v base)
      | None -> false)
    (fun o ->
      match strip o with
      | Some base -> Commutativity.spec_for inner (Ids.Obj_id.v base)
      | None -> Commutativity.all_conflict)

(* Resolve the registry a trace header names.  [db_override] forces a
   database kind regardless of the header. *)
let resolve_trace_registry ~db_override ~preload ~accounts ~products name =
  let build kind =
    Stack.build_db { Stack.default with db_kind = kind; preload; accounts; products }
  in
  match db_override with
  | Some kind ->
      if String.length name > 8 && String.sub name 0 8 = "sharded:" then
        Ok (offline_sharded_registry ~dynamic:(dynamic_of_kind kind) (build kind))
      else Ok (offline_db_registry ~dynamic:(dynamic_of_kind kind) (build kind))
  | None -> (
      if name = Bench_trace.registry_name then Ok (Bench_trace.registry ())
      else
        let strip prefix =
          let np = String.length prefix in
          if String.length name > np && String.sub name 0 np = prefix then
            Some (String.sub name np (String.length name - np))
          else None
        in
        match List.assoc_opt name db_kinds with
        | Some kind -> Ok (offline_db_registry ~dynamic:(dynamic_of_kind kind) (build kind))
        | None -> (
            match strip "sharded:" with
            | Some base -> (
                match List.assoc_opt base db_kinds with
                | Some kind -> Ok (offline_sharded_registry ~dynamic:(dynamic_of_kind kind) (build kind))
                | None ->
                    Error
                      (Printf.sprintf "unknown sharded database %S" base))
            | None -> (
                match strip "client:" with
                | Some base -> (
                    match List.assoc_opt base db_kinds with
                    | Some kind -> Ok (offline_db_registry ~dynamic:(dynamic_of_kind kind) (build kind))
                    | None ->
                        Error
                          (Printf.sprintf "unknown client database %S" base))
                | None ->
                    Error
                      (Printf.sprintf
                         "trace names registry %S; pass --db to force one"
                         name))))

let certify_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"History trace recorded by serve/loadgen/recover --trace \
                   or generated by the benchmark.")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N"
             ~doc:"Domains certifying segments in parallel.")
  in
  let segment_target =
    Arg.(value & opt (some int) None
         & info [ "segment-target" ] ~docv:"K"
             ~doc:
               "Transactions per segment before the segmenter looks for a \
                quiescent cut (default: about four segments per worker).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let db_override =
    Arg.(value & opt (some db_conv) None
         & info [ "db" ]
             ~doc:
               "Resolve commutativity specs against this database kind \
                instead of the trace header's registry name.")
  in
  let preload =
    Arg.(value & opt int 200
         & info [ "preload" ]
             ~doc:"Encyclopedia keys the recorded server preloaded.")
  in
  let accounts =
    Arg.(value & opt int 10 & info [ "accounts" ] ~doc:"Banking accounts.")
  in
  let products =
    Arg.(value & opt int 4 & info [ "products" ] ~doc:"Inventory products.")
  in
  let run file workers segment_target json db_override preload accounts
      products =
    match Ctrace.load file with
    | exception Failure msg ->
        Fmt.epr "oosdb certify: %s@." msg;
        2
    | t -> (
        match
          resolve_trace_registry ~db_override ~preload ~accounts ~products
            (Ctrace.registry_name t)
        with
        | Error msg ->
            Fmt.epr "oosdb certify: %s@." msg;
            2
        | Ok registry ->
            let r =
              Certify.run ~workers ?segment_target:
                (match segment_target with
                | Some k -> Some (max 1 k)
                | None -> None)
                ~registry t
            in
            if json then print_endline (Json.indented (Certify.to_json r))
            else Fmt.pr "%a@." Certify.pp r;
            if r.Certify.ok then 0 else 1)
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Certify a recorded history trace offline: cut it at quiescent \
          points only, certify each segment on parallel domains, and \
          accept iff every segment does.  Exits 1 on a violation, 2 on a \
          bad trace or unresolvable registry.")
    Term.(const run $ file $ workers $ segment_target $ json $ db_override
          $ preload $ accounts $ products)

(* "Obj.meth arg.." with ints, true/false and bare strings as values *)
let parse_call spec =
  match String.split_on_char ' ' spec |> List.filter (fun s -> s <> "") with
  | [] -> invalid_arg "empty --call"
  | target :: raw_args ->
      let obj, meth =
        match String.index_opt target '.' with
        | Some i ->
            ( String.sub target 0 i,
              String.sub target (i + 1) (String.length target - i - 1) )
        | None -> invalid_arg ("--call " ^ spec ^ ": expected Obj.meth")
      in
      let value_of s =
        match int_of_string_opt s with
        | Some n -> Value.int n
        | None -> (
            match s with
            | "true" -> Value.bool true
            | "false" -> Value.bool false
            | "()" -> Value.unit
            | s -> Value.str s)
      in
      Wire.Call { obj; meth; args = List.map value_of raw_args }

let client_cmd =
  let calls =
    Arg.(value & opt_all string []
         & info [ "c"; "call" ] ~docv:"SPEC"
             ~doc:
               "A method call, e.g. 'Enc.search k00042' (repeatable; runs \
                as one transaction).")
  in
  let timeout_ms =
    Arg.(value & opt int 0 & info [ "timeout-ms" ] ~doc:"Transaction deadline.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print server statistics.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to drain and exit.")
  in
  let run socket port calls timeout_ms stats shutdown =
    let c = Sclient.connect (Srv.sockaddr_of (addr_of socket port)) in
    let finish code =
      Sclient.close c;
      code
    in
    match Sclient.request c (Wire.Hello "oosdb-client") with
    | Wire.Welcome { server; db; protocol } -> (
        Fmt.pr "connected: %s db=%s protocol=%s@." server db protocol;
        let rec txn () =
          match calls with
          | [] -> 0
          | specs -> (
              match
                Sclient.request c (Wire.Begin { name = "cli"; timeout_ms })
              with
              | Wire.Begun { top } ->
                  Fmt.pr "begun T%d@." top;
                  run_calls (List.map parse_call specs)
              | resp ->
                  Fmt.epr "BEGIN refused: %a@." Wire.pp_response resp;
                  1)
        and run_calls = function
          | [] -> (
              match Sclient.request c Wire.Commit with
              | Wire.Committed v ->
                  Fmt.pr "committed: %a@." Value.pp v;
                  0
              | Wire.Aborted reason ->
                  Fmt.pr "aborted: %s@." reason;
                  1
              | resp ->
                  Fmt.epr "unexpected: %a@." Wire.pp_response resp;
                  1)
          | call :: rest -> (
              match Sclient.request c call with
              | Wire.Result v ->
                  Fmt.pr "%a -> %a@." Wire.pp_request call Value.pp v;
                  run_calls rest
              | Wire.Failed msg ->
                  Fmt.pr "%a failed: %s@." Wire.pp_request call msg;
                  run_calls rest
              | Wire.Aborted reason ->
                  Fmt.pr "aborted: %s@." reason;
                  1
              | resp ->
                  Fmt.epr "unexpected: %a@." Wire.pp_response resp;
                  1)
        in
        let code = txn () in
        if stats then (
          match Sclient.request c Wire.Stats with
          | Wire.Stats_json j -> Fmt.pr "%s@." j
          | resp -> Fmt.epr "STATS: unexpected %a@." Wire.pp_response resp);
        if shutdown then ignore (Sclient.request c Wire.Shutdown)
        else ignore (Sclient.request c Wire.Bye);
        finish code)
    | resp ->
        Fmt.epr "HELLO: unexpected %a@." Wire.pp_response resp;
        finish 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "One-shot scripted transaction against a running server: HELLO, \
          BEGIN, the given calls, COMMIT.")
    Term.(const run $ socket_arg $ port_arg $ calls $ timeout_ms $ stats
          $ shutdown)

let loadgen_cmd =
  let sessions =
    Arg.(value & opt int 16
         & info [ "sessions" ] ~doc:"Concurrent closed-loop sessions.")
  in
  let txns =
    Arg.(value & opt int 8 & info [ "n"; "txns" ] ~doc:"Transactions per session.")
  in
  let calls =
    Arg.(value & opt int 4 & info [ "calls" ] ~doc:"Calls per transaction.")
  in
  let db =
    Arg.(value & opt db_conv `Encyclopedia
         & info [ "db" ] ~doc:"Op mix: encyclopedia, banking, inventory.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let timeout_ms =
    Arg.(value & opt int 0 & info [ "timeout-ms" ] ~doc:"BEGIN deadline.")
  in
  let keys =
    Arg.(value & opt int 200
         & info [ "keys" ] ~doc:"Server's encyclopedia preload count.")
  in
  let theta =
    Arg.(value & opt float 0.8 & info [ "theta" ] ~doc:"Zipf skew over keys.")
  in
  let shutdown =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"Ask the server to drain and exit after the run.")
  in
  let rate =
    Arg.(value & opt float 0.0
         & info [ "rate" ] ~docv:"TXN/S"
             ~doc:
               "Open-loop mode: transactions arrive on a global schedule \
                of $(docv) per second and latency is measured from the \
                scheduled arrival (includes backlog queueing).  0 = \
                closed loop.")
  in
  let route_shards =
    Arg.(value & opt int 0
         & info [ "route-shards" ] ~docv:"N"
             ~doc:
               "Shard-affine mix against a --shards $(docv) server: each \
                session keeps its keys on its home shard so transactions \
                stay single-shard except for --cross excursions.")
  in
  let cross =
    Arg.(value & opt float 0.05
         & info [ "cross" ]
             ~doc:
               "With --route-shards: probability a call targets a foreign \
                shard, forcing a cross-shard 2PC commit.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the result as JSON to $(docv).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "Record the client-observed committed history to $(docv) \
                as an offline-certifiable trace for $(b,oosdb certify) \
                (black-box audit; the server's $(b,--trace) records the \
                authoritative execution order).")
  in
  let run socket port sessions txns calls db seed timeout_ms keys theta
      shutdown rate route_shards cross json trace =
    let cfg =
      {
        (Loadgen.default_cfg (Srv.sockaddr_of (addr_of socket port))) with
        Loadgen.sessions;
        txns_per_session = txns;
        calls_per_txn = calls;
        db_kind = db;
        seed;
        timeout_ms;
        key_universe = keys;
        theta;
        shutdown;
        rate;
        route_shards;
        cross;
        trace_path = trace;
      }
    in
    let r = Loadgen.run cfg in
    Fmt.pr
      "loadgen: %d sessions, %d committed / %d aborted (%d calls, %d \
       failed), %.2fs, %.1f txn/s@."
      r.Loadgen.n_sessions r.Loadgen.committed r.Loadgen.aborted
      r.Loadgen.calls r.Loadgen.failed_calls r.Loadgen.elapsed
      r.Loadgen.throughput;
    Fmt.pr "latency p50=%.4fs p95=%.4fs p99=%.4fs@."
      (Loadgen.Stats.Histogram.quantile r.Loadgen.latency 0.50)
      (Loadgen.Stats.Histogram.quantile r.Loadgen.latency 0.95)
      (Loadgen.Stats.Histogram.quantile r.Loadgen.latency 0.99);
    Fmt.pr "certified: %s@."
      (match r.Loadgen.certified with
      | Some true -> "true"
      | Some false -> "FALSE"
      | None -> "unknown");
    (match json with
    | Some file ->
        let oc = open_out file in
        output_string oc (Json.indented (Loadgen.to_json r));
        output_string oc "\n";
        close_out oc;
        Fmt.pr "wrote %s@." file
    | None -> ());
    if r.Loadgen.certified = Some true && r.Loadgen.committed > 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Closed-loop load generator: N concurrent sessions of BEGIN/CALL/\
          COMMIT against a running server.  Exits non-zero unless \
          transactions committed and the server certified the history \
          oo-serializable.")
    Term.(const run $ socket_arg $ port_arg $ sessions $ txns $ calls $ db
          $ seed $ timeout_ms $ keys $ theta $ shutdown $ rate
          $ route_shards $ cross $ json $ trace)

(* -- mc ------------------------------------------------------------------------ *)

module Mc = Ooser_mc.Mc
module Mc_scenario = Ooser_mc.Scenario
module Mc_explore = Ooser_mc.Explore

let mc_cmd =
  let suite =
    Arg.(value & opt (some string) None
         & info [ "suite" ] ~docv:"NAME"
             ~doc:"Built-in scenario suite: all, single, mutant, crash, \
                   sharded.")
  in
  let scenarios =
    Arg.(value & opt_all string []
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Run one built-in scenario (repeatable).")
  in
  let dpor_only =
    Arg.(value & flag
         & info [ "dpor" ]
             ~doc:"Explore with sleep-set DPOR only (default: both modes, \
                   so the reduction factor is measured).")
  in
  let no_dpor =
    Arg.(value & flag
         & info [ "no-dpor" ] ~doc:"Naive enumeration only, no reduction.")
  in
  let max_schedules =
    Arg.(value & opt int 20_000
         & info [ "max-schedules" ]
             ~doc:"Schedule cap per exploration; hitting it (instead of \
                   exhausting the tree) fails the scenario.")
  in
  let seed =
    Arg.(value & opt int 0
         & info [ "seed" ]
             ~doc:"Rotate candidate order at fresh branch points (0 = \
                   declaration order).")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the full report to $(docv).")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"TRACE"
             ~doc:"Replay one recorded choice trace (e.g. a minimised \
                   witness such as t1,t1,t2,t2) against a single \
                   --scenario instead of exploring; prints the verdict \
                   and any violations.")
  in
  let require_reduction =
    Arg.(value & flag
         & info [ "require-reduction" ]
             ~doc:"Exit non-zero unless DPOR explored strictly fewer \
                   schedules than naive on at least one scenario (the CI \
                   mc-gate assertion).")
  in
  let run suite scenarios dpor_only no_dpor max_schedules seed json replay
      require_reduction =
    let fail fmt = Fmt.kstr (fun s -> Fmt.epr "mc: %s@." s; `Error) fmt in
    let resolve () =
      let by_suite =
        match suite with
        | None -> Ok []
        | Some s -> (
            match Mc_scenario.suite s with
            | Some l -> Ok l
            | None ->
                Error
                  (Printf.sprintf "unknown suite %s (have: %s)" s
                     (String.concat ", " Mc_scenario.suite_names)))
      in
      let by_name =
        List.fold_left
          (fun acc n ->
            match (acc, Mc_scenario.find n) with
            | Error _, _ -> acc
            | Ok l, Some sc -> Ok (l @ [ sc ])
            | Ok _, None -> Error (Printf.sprintf "unknown scenario %s" n))
          (Ok []) scenarios
      in
      match (by_suite, by_name) with
      | Error e, _ | _, Error e -> Error e
      | Ok [], Ok [] -> Ok (Option.get (Mc_scenario.suite "all"))
      | Ok a, Ok b -> Ok (a @ b)
    in
    match resolve () with
    | Error e -> ignore (fail "%s" e); 2
    | Ok scs -> (
        match replay with
        | Some trace_s -> (
            match (scs, Mc_explore.trace_of_string trace_s) with
            | [ sc ], Some trace ->
                let verdict, violations = Mc.replay sc trace in
                Fmt.pr "replay %s: %s@." sc.Mc_scenario.name verdict;
                List.iter (fun v -> Fmt.pr "  violation: %s@." v) violations;
                if violations = [] then Fmt.pr "  all invariants green@.";
                (* a replayed witness must reproduce the planted
                   violation; on a healthy scenario it must not *)
                if sc.Mc_scenario.expect_failure = (violations <> []) then 0
                else 1
            | _ :: _ :: _, _ ->
                ignore (fail "--replay needs exactly one --scenario"); 2
            | _, None -> ignore (fail "unparsable trace %S" trace_s); 2
            | [], _ -> ignore (fail "--replay needs a --scenario"); 2)
        | None ->
            let mode =
              if dpor_only && no_dpor then `Both
              else if dpor_only then `Dpor
              else if no_dpor then `Naive
              else `Both
            in
            let reports =
              List.map
                (fun sc ->
                  let r = Mc.run_scenario ~mode ~seed ~max_schedules sc in
                  let pr_expl name = function
                    | None -> ""
                    | Some (e : Mc.exploration) ->
                        Printf.sprintf " %s=%d%s" name
                          e.Mc.stats.Mc_explore.schedules
                          (if e.Mc.stats.Mc_explore.exhausted then ""
                           else if e.Mc.failure <> None then "(stopped)"
                           else "(capped)")
                  in
                  Fmt.pr "mc %-16s [%s]%s%s%s%s%s: %s@." r.Mc.r_scenario
                    r.Mc.r_mode
                    (pr_expl "naive" r.Mc.r_naive)
                    (pr_expl "dpor" r.Mc.r_dpor)
                    (match r.Mc.r_reduction with
                    | Some f when f > 1.0 -> Printf.sprintf " (%.0fx)" f
                    | _ -> "")
                    (match r.Mc.r_witness with
                    | Some w ->
                        " witness=" ^ Mc_explore.trace_to_string w
                    | None -> "")
                    (match r.Mc.r_audit with
                    | Some a ->
                        Printf.sprintf " audit=%d/%d" a.Mc.audited a.Mc.recorded
                    | None -> "")
                    (if r.Mc.r_ok then "ok" else "FAIL");
                  List.iter (fun p -> Fmt.pr "    %s@." p) r.Mc.r_problems;
                  r)
                scs
            in
            (match json with
            | Some file ->
                let oc = open_out file in
                output_string oc (Json.compact (Mc.to_json reports) ^ "\n");
                close_out oc;
                Fmt.pr "wrote %s@." file
            | None -> ());
            let all_ok = List.for_all (fun r -> r.Mc.r_ok) reports in
            let reduced =
              List.exists
                (fun r ->
                  match r.Mc.r_reduction with Some f -> f > 1.0 | None -> false)
                reports
            in
            if require_reduction && not reduced then begin
              Fmt.epr "mc: no scenario showed a DPOR reduction@.";
              1
            end
            else if all_ok then 0
            else 1)
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Stateless model checker: exhaustively explore the interleavings \
          of small transaction scenarios against the real engine (and the \
          in-process sharded 2PC coordinator), with sleep-set DPOR driven \
          by the commutativity specs, invariant oracles at every terminal \
          state, and the DESIGN \xc2\xa717 vote-window audit on sharded \
          runs.  Exits non-zero on any violation, non-exhaustion, or \
          naive/DPOR verdict disagreement.")
    Term.(const run $ suite $ scenarios $ dpor_only $ no_dpor $ max_schedules
          $ seed $ json $ replay $ require_reduction)

let main =
  Cmd.group
    (Cmd.info "oosdb" ~version:"1.0.0"
       ~doc:
         "Object-oriented serializability toolkit (Rakow, Gu & Neuhold, ICDE \
          1990).")
    [ check_cmd; fmt_cmd; run_cmd; acceptance_cmd; lint_cmd;
      analyze_cmd; infer_cmd; demo_cmd; serve_cmd; recover_cmd; certify_cmd;
      client_cmd; loadgen_cmd; mc_cmd ]

let () = exit (Cmd.eval' main)
