(* Shard scaling curve (self-contained: no bechamel, so it also runs
   in CI).  One question: what does partitioning the object space
   across shard engines buy under a contended closed-loop workload?

   For each point shards ∈ {1, 2, 4, 8} the harness boots a fresh
   sharded server on a unix socket with its select loop on a dedicated
   domain (same shape as the CI smoke's separate server process),
   drives it with the stock loadgen mix (16 sessions, shard-affine
   routing with a small per-call cross-shard excursion rate, so most
   transactions are single-shard but 2PC is exercised at every
   multi-shard point), sends SHUTDOWN, and
   requires a certified drain.  The curve isolates what the shard
   domains contribute: smaller lock tables, shorter wound chains, and
   per-shard certifier work instead of one global certifier.

   Exits non-zero unless the shards=4 point reaches [gate_speedup]x
   the shards=1 throughput, every point's committed history is
   certified oo-serializable by the server, and every multi-shard
   point actually committed cross-shard transactions (the certified
   flag must cover real 2PC traffic, not its absence).  Writes the
   curve to BENCH_server.json. *)

module Server = Ooser_server.Server
module Loadgen = Ooser_server.Loadgen
module Dispatcher = Ooser_shard.Dispatcher
module Stats = Ooser_sim.Stats
module Json = Ooser_sim.Json

let gate_speedup = 3.0
let shard_points = [ 1; 2; 4; 8 ]

type point = {
  shards : int;
  committed : int;
  aborted : int;
  elapsed : float;
  throughput : float;
  p50 : float;
  p95 : float;
  cross_commits : int;
  two_pc_aborts : int;
  certified : bool;
}

let temp_sock () =
  let path = Filename.temp_file "oosdb_scaling" ".sock" in
  Sys.remove path;
  path

let counter counters name =
  match List.assoc_opt name counters with Some n -> n | None -> 0

let run_point ~sessions ~txns ~calls ~preload ~seed ~cross shards =
  let sock = temp_sock () in
  let config =
    {
      (Server.default_config (Server.Unix_sock sock)) with
      Server.db_kind = `Encyclopedia;
      protocol_kind = `Open;
      shards;
      preload;
      name = Printf.sprintf "scaling-%d" shards;
    }
  in
  let srv = Server.create config in
  let server_domain = Domain.spawn (fun () -> Server.serve srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.close srv;
      (try Sys.remove sock with Sys_error _ -> ()))
    (fun () ->
      let cfg =
        {
          (Loadgen.default_cfg (Server.sockaddr_of config.Server.addr)) with
          Loadgen.sessions;
          txns_per_session = txns;
          calls_per_txn = calls;
          key_universe = preload;
          seed;
          route_shards = shards;
          cross;
          shutdown = true;
        }
      in
      let r = Loadgen.run cfg in
      (* the SHUTDOWN drains the server and its serve loop returns,
         joining the shard domains; then the final counters are stable *)
      Domain.join server_domain;
      let counters =
        match Server.dispatcher srv with
        | Some d -> Dispatcher.counters d
        | None -> []
      in
      let q p = Stats.Histogram.quantile r.Loadgen.latency p in
      {
        shards;
        committed = r.Loadgen.committed;
        aborted = r.Loadgen.aborted;
        elapsed = r.Loadgen.elapsed;
        throughput = r.Loadgen.throughput;
        p50 = q 0.50;
        p95 = q 0.95;
        cross_commits = counter counters "cross-shard-commits";
        two_pc_aborts = counter counters "2pc-aborts";
        certified = r.Loadgen.certified = Some true;
      })

let to_json ~sessions ~txns ~calls ~cross points ~speedup ~gate_ok =
  let point p =
    Json.(
      Obj
        [ "shards", Int p.shards; "committed", Int p.committed;
          "aborted", Int p.aborted; "elapsed_s", Float p.elapsed;
          "throughput_txn_per_s", Float p.throughput;
          "latency_p50_s", Float p.p50; "latency_p95_s", Float p.p95;
          "cross_shard_commits", Int p.cross_commits;
          "2pc_aborts", Int p.two_pc_aborts; "certified", Bool p.certified ])
  in
  Json.(
    Obj
      [ ( "workload",
          Obj
            [ "db", String "encyclopedia"; "protocol", String "open";
              "sessions", Int sessions; "txns_per_session", Int txns;
              "calls_per_txn", Int calls; "cross_per_call", Float cross ] );
        "curve", List (List.map point points);
        "speedup_shards4_over_1", Float speedup;
        "gate", Obj [ "min_speedup", Float gate_speedup; "ok", Bool gate_ok ] ])

let () =
  let out = ref "BENCH_server.json" in
  let txns = ref 8 in
  let cross = ref 0.02 in
  let rec parse = function
    | [] -> ()
    | "-o" :: path :: rest ->
        out := path;
        parse rest
    | "-n" :: n :: rest ->
        txns := int_of_string n;
        parse rest
    | "-x" :: x :: rest ->
        cross := float_of_string x;
        parse rest
    | a :: _ ->
        Fmt.epr "usage: server_scaling [-o FILE] [-n TXNS_PER_SESSION] \
                 [-x CROSS_PER_CALL] (unknown arg %s)@." a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sessions = 16 and calls = 4 and preload = 64 and seed = 42 in
  Fmt.pr "shard scaling (%d sessions, %d txns each, %d calls per txn):@."
    sessions !txns calls;
  let points =
    List.map
      (fun shards ->
        let p = run_point ~sessions ~txns:!txns ~calls ~preload ~seed ~cross:!cross shards in
        Fmt.pr
          "  shards=%d  %3d committed  %2d aborted  %6.1f txn/s  p95 %.3fs  \
           %d cross-shard  certified=%b@."
          p.shards p.committed p.aborted p.throughput p.p95 p.cross_commits
          p.certified;
        p)
      shard_points
  in
  let find n = List.find (fun p -> p.shards = n) points in
  let t1 = (find 1).throughput and t4 = (find 4).throughput in
  let speedup = if t1 > 0.0 then t4 /. t1 else 0.0 in
  let all_certified = List.for_all (fun p -> p.certified) points in
  let all_committed = List.for_all (fun p -> p.committed > 0) points in
  let crossed =
    List.for_all (fun p -> p.shards = 1 || p.cross_commits > 0) points
  in
  let gate_ok =
    speedup >= gate_speedup && all_certified && all_committed && crossed
  in
  Fmt.pr "@.shards=4 over shards=1: %.2fx (gate %.1fx)@." speedup gate_speedup;
  let json = to_json ~sessions ~txns:!txns ~calls ~cross:!cross points ~speedup ~gate_ok in
  let oc = open_out !out in
  output_string oc (Json.indented json ^ "\n");
  close_out oc;
  Fmt.pr "wrote %s@." !out;
  if not gate_ok then begin
    if not all_certified then
      Fmt.epr "GATE FAILED: a point's committed history was not certified@.";
    if not all_committed then
      Fmt.epr "GATE FAILED: a point committed nothing@.";
    if not crossed then
      Fmt.epr
        "GATE FAILED: a multi-shard point committed no cross-shard \
         transactions@.";
    if speedup < gate_speedup then
      Fmt.epr "GATE FAILED: speedup %.2fx below %.1fx@." speedup gate_speedup;
    exit 1
  end
