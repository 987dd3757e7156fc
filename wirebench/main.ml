(* wirebench: one workload of the wire-server benchmark per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Builds the database and an in-process [Server] on a Unix socket,
   drives it with the closed-loop client of [Closed_loop] for [txn_rate * S]
   transactions generated from the seed, then checks the outputs
   untimed.  Files (the durable workload's directories) go under
   [.wirebench/PID/] and are removed on exit.  The last line of standard output is one JSON
   object: the end-to-end metrics with [--trace 0], the per-layer
   metrics with [--trace 1].  A failed check exits 1 after printing;
   any other failure exits 2 without a result. *)

open Ooser_core
module Server = Ooser_server.Server
module Wire = Ooser_server.Wire
module Engine = Ooser_oodb.Engine
module Protocol = Ooser_cc.Protocol
module Oplog = Ooser_recovery.Oplog
module Store = Ooser_occ.Store
module Counter = Ooser_sim.Stats.Counter

let ( // ) = Filename.concat
let now = Unix.gettimeofday

(* -- files ---------------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path data = Out_channel.with_open_bin path (fun oc -> output_string oc data)

let fsync_path path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* The copy is made durable before the timed phase, so that no commit's
   force pays for flushing the benchmark's own writes. *)
let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun f ->
      write_file (dst // f) (read_file (src // f));
      fsync_path (dst // f))
    (Sys.readdir src);
  fsync_path dst

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> function
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "no VmHWM in /proc/self/status"

(* -- statistics ----------------------------------------------------------------- *)

(* Exact order statistic (nearest rank) of an ascending array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median l = quantile (Array.of_list (List.sort compare l)) 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

let mean a lo hi =
  let s = ref 0.0 in
  for i = lo to hi - 1 do
    s := !s +. a.(i)
  done;
  ratio !s (float (hi - lo))

(* -- one pass: set up, time the scripts, check -------------------------------- *)

(* One epoch: a fresh server's set-up, its timed phase and its checks. *)
type epoch = {
  setup : float;
  wall : float;
  cpu : float;  (* process user + system seconds over the timed phase *)
  txns : Checks.txn list;
  sorted : float array;  (* latencies in ms, ascending *)
  rss_mb : float;  (* VmHWM after the timed phase *)
  layers : (string * float) list;
  checks : (string * (unit, string) result) list;
  revised : int;  (* withdraw answers that the committing replay reversed *)
}

let committed e = List.length (List.filter Checks.committed e.txns)
let throughput e = ratio (float (committed e)) e.wall
let p50 e = quantile e.sorted 0.5
let p95 e = quantile e.sorted 0.95

(* A pass pools its epochs: throughput is every committed transaction
   over the summed timed wall time, and the percentiles are order
   statistics of every decided transaction's latency. *)
type pass = { spare_setups : float list; epochs : epoch list }

let sum p f = List.fold_left (fun acc e -> acc + f e) 0 p.epochs

let pooled p =
  let sorted = Array.concat (List.map (fun e -> e.sorted) p.epochs) in
  Array.sort compare sorted;
  let wall = List.fold_left (fun acc e -> acc +. e.wall) 0.0 p.epochs in
  (ratio (float (sum p committed)) wall, quantile sorted 0.5, quantile sorted 0.95, Array.length sorted)

let attempted p = sum p (fun e -> List.length e.txns)
let failed p = attempted p - sum p committed
let setups p = p.spare_setups @ List.map (fun e -> e.setup) p.epochs

type ctx = { w : Workload.t; root : string; seed : int; n : int }

let txns scripts = Array.map (Array.map Checks.txn) scripts

(* Sockets live in the abstract namespace (a leading NUL byte): binding
   one touches no file system, so no boot waits on the journal of the
   disk that holds the checkout.  Names are unique per boot, since an
   abandoned server keeps its listener bound. *)
let boots = ref 0

let boot ?trace ctx ~tag ~durable_dir =
  incr boots;
  let socket = Printf.sprintf "\000wirebench-%d-%s-%d" (Unix.getpid ()) tag !boots in
  let server = Server.create (Workload.config ctx.w ~socket ~durable_dir) in
  (server, Closed_loop.connect ?trace server ~socket ~sessions:ctx.w.sessions)

(* The server's committed call trees: for each top, its root-level
   calls as (call index, call); Def. 2 numbers a root's children from 1. *)
let committed_calls server =
  let trees =
    match Server.occ_store server with
    | Some store ->
        List.map
          (fun tree -> (Ids.Action_id.top (Action.id tree.Call_tree.act), tree))
          (History.tops (Store.history store))
    | None -> Engine.committed_trees (Server.engine server)
  in
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun (top, tree) ->
      Hashtbl.replace tbl top
        (List.map
           (fun child ->
             let a = child.Call_tree.act in
             ( (match Ids.Action_id.path (Action.id a) with [ k ] -> k - 1 | _ -> -1),
               Wire.Call
                 { obj = Obj_id.to_string (Action.obj a); meth = Action.meth a; args = Action.args a } ))
           tree.Call_tree.children))
    trees;
  Hashtbl.find_opt tbl

type prev = {
  pristine : string;  (* the previous run's directory, kept unmodified *)
  prev_txns : Checks.txn list;
  prev_tree : int -> (int * Wire.request) list option;
}

(* A durable workload's previous run: the same traffic, from its own
   stream of the seed, against an empty directory, abandoned without a
   drain, so the directory holds the boot snapshot and the log of every
   forced commit. *)
let previous_run ctx =
  let dir = ctx.root // "prev" in
  mkdir_p dir;
  let server, client = boot ctx ~tag:"prev" ~durable_dir:(Some dir) in
  let scripts = txns (Workload.scripts ctx.w ~seed:ctx.seed ~epoch:(-1) ~n:ctx.w.prev_txns) in
  ignore (Closed_loop.run client scripts);
  Closed_loop.close client;
  {
    pristine = dir;
    prev_txns = List.concat_map Array.to_list (Array.to_list scripts);
    prev_tree = committed_calls server;
  }

type counters = {
  steps : int;
  engine : (string * int) list;
  lock : (string * int) list;
  occ : (string * int) list;
  appends : int;
  forces : int;
  gc : Gc.stat;
}

let snapshot_counters server =
  let eng = Server.engine server in
  let journal = Engine.journal eng in
  {
    steps = Engine.steps eng;
    engine = Counter.to_list (Engine.counters eng);
    lock = Counter.to_list (Protocol.counters (Server.protocol server));
    occ =
      Option.fold ~none:[] ~some:(fun s -> Counter.to_list (Store.counters s))
        (Server.occ_store server);
    appends = Option.fold ~none:0 ~some:Oplog.appends journal;
    forces = Option.fold ~none:0 ~some:Oplog.forces journal;
    gc = Gc.quick_stat ();
  }

(* Re-append the run's log records to a fresh file, forcing at each
   Commit as the engine does; mean microseconds per force. *)
let force_us ctx records =
  let file = ctx.root // "replay.bin" in
  let log = Oplog.create ~file () in
  let spent = ref 0.0 and n = ref 0 in
  List.iter
    (fun r ->
      ignore (Oplog.append log r);
      match r with
      | Oplog.Commit _ ->
          let t0 = now () in
          Oplog.force log;
          spent := !spent +. (now () -. t0);
          incr n
      | _ -> ())
    records;
  Oplog.close log;
  1e6 *. ratio !spent (float !n)

(* Decode every captured request and re-encode and frame every captured
   response, as the server does per frame; median of three replays. *)
let codec_s (tr : Closed_loop.trace) =
  let responses = List.map Wire.decode_response tr.responses in
  let once () =
    let t0 = now () in
    List.iter (fun p -> ignore (Sys.opaque_identity (Wire.decode_request p))) tr.requests;
    List.iter
      (fun r -> ignore (Sys.opaque_identity (Wire.frame (Wire.encode_response r))))
      responses;
    now () -. t0
  in
  median [ once (); once (); once () ]

let layers ctx ~server ~(client : Closed_loop.t) ~(before : counters) ~durable_dir ~wall ~committed
    ~latencies =
  let after = snapshot_counters server in
  let per x = ratio x (float committed) in
  let get l k = Option.value ~default:0 (List.assoc_opt k l) in
  let d c0 c1 k = float (get c1 k - get c0 k) in
  let eng k = d before.engine after.engine k in
  let lock k = d before.lock after.lock k in
  let occ k = d before.occ after.occ k in
  let tr = Option.get client.Closed_loop.trace in
  let tenth = Array.length latencies / 10 in
  let n = Array.length latencies in
  let journal = Engine.journal (Server.engine server) in
  [
    ("server.busy_ms_per_txn", per (1e3 *. tr.server_s));
    ("server.steps_per_txn", per (float client.steps));
    ("wire.bytes_per_txn", per (float client.bytes));
    ("wire.codec_us_per_txn", per (1e6 *. codec_s tr));
    ("client.ms_per_txn", per (1e3 *. tr.client_s));
    ("time.unexplained_ms_per_txn", per (1e3 *. (wall -. tr.server_s -. tr.client_s)));
    ("engine.steps_per_txn", per (float (after.steps - before.steps)));
    ("engine.restarts_per_txn", per (eng "restarts"));
    ("engine.waits_per_txn", per (eng "waits"));
    ("engine.commit_ratio", ratio (eng "commits") (eng "starts"));
    ("engine.history_growth", ratio (mean latencies (n - tenth) n) (mean latencies 0 tenth));
    ("lock.requests_per_txn", per (lock "requests"));
    ("lock.conflicts_per_txn", per (lock "conflicts"));
    ("cert.oracle_per_txn", per (eng "cert-oracle"));
    ("cert.incremental_per_txn", per (eng "cert-incremental"));
    ("cert.failures_per_txn", per (eng "certification-failures"));
    ("oplog.appends_per_txn", per (float (after.appends - before.appends)));
    ("oplog.forces_per_txn", per (float (after.forces - before.forces)));
    ( "oplog.bytes_per_txn",
      per (float (Option.fold ~none:0 ~some:(fun dir -> file_size (Oplog.log_file ~dir)) durable_dir))
    );
    ("oplog.force_us", match journal with Some j -> force_us ctx (Oplog.all j) | None -> 0.0);
    ( "recovery.replayed_calls",
      match Server.last_recovery server with
      | Some r -> float r.Engine.replayed_calls
      | None -> 0.0 );
    ("occ.validations_per_txn", per (occ "validations"));
    ("occ.aborts_per_txn", per (occ "aborts"));
    ("occ.commute_saves_per_txn", per (occ "commute-saves"));
    ("gc.minor_words_per_txn", per (after.gc.Gc.minor_words -. before.gc.Gc.minor_words));
    ( "gc.major_collections_per_txn",
      per (float (after.gc.Gc.major_collections - before.gc.Gc.major_collections)) );
    ("gc.live_words_end", float (Gc.stat ()).Gc.live_words);
  ]

let checks ctx ~server ~(client : Closed_loop.t) ~txns ~prev ~durable_dir ~recover =
  let prev_txns, prev_tree =
    match prev with Some p -> (p.prev_txns, p.prev_tree) | None -> ([], fun _ -> None)
  in
  let all = prev_txns @ txns in
  let base =
    [
      ("decided", Checks.decided all);
      ("quiescent", Checks.quiescent (Protocol.quiescent (Server.protocol server)));
    ]
  in
  match ctx.w.Workload.kind with
  | Workload.Enc_open ->
      let acked = Checks.acked_inserts txns in
      let rec chunks l =
        match l with
        | [] -> []
        | _ -> List.filteri (fun i _ -> i < 64) l :: chunks (List.filteri (fun i _ -> i >= 64) l)
      in
      let searches =
        List.map (fun keys -> Closed_loop.run_one client (Checks.search_calls keys)) (chunks acked)
      in
      (base @ [ ("inserts-found", Checks.inserts_found ~acked searches) ], 0)
  | Workload.Bank_certify | Workload.Bank_occ -> (
      let tree =
        let mine = committed_calls server in
        (* a recovered server numbers the calls it replays afresh, so the
           previous run's own trees answer for the previous run *)
        fun top -> match prev_tree top with Some c -> Some c | None -> mine top
      in
      match
        Checks.expected_balances ~accounts:Workload.accounts ~initial:Workload.initial_balance
          ~tree all
      with
      | Error msg -> (base @ [ ("committed-effects", Error msg) ], 0)
      | Ok (expected, revised) ->
          let read client =
            Closed_loop.run_one client (Checks.balance_calls ~accounts:Workload.accounts)
          in
          let live = ("balances", Checks.balances ~what:"live" ~expected (read client)) in
          let recovered =
            match durable_dir with
            | Some dir when recover ->
                (* abandon the measured server without a drain and boot a
                   second one on its directory *)
                let server2, client2 = boot ctx ~tag:"recovered" ~durable_dir:(Some dir) in
                let r = Checks.balances ~what:"recovered" ~expected (read client2) in
                Closed_loop.close client2;
                Server.close server2;
                [ ("recovered-balances", r) ]
            | _ -> []
          in
          (base @ [ ("committed-effects", Ok ()); live ] @ recovered, revised))

(* One epoch: boot a fresh server (one set-up sample), time the epoch's
   scripts, then run the checks untimed.  A durable workload boots every
   epoch from a fresh copy of the previous run's directory. *)
let run_pass ctx ~epochs ~traced ~prev =
  let w = ctx.w in
  let work = ctx.root // "work" in
  let boot_timed () =
    let durable_dir =
      Option.map
        (fun p ->
          copy_dir p.pristine work;
          work)
        prev
    in
    let trace = if traced then Some (Closed_loop.new_trace ()) else None in
    Gc.full_major ();
    let t0 = now () in
    let server, client = boot ?trace ctx ~tag:"main" ~durable_dir in
    (now () -. t0, server, client, durable_dir)
  in
  let spare_setups =
    List.init w.Workload.spare_setups (fun _ ->
        let s, server, client, _ = boot_timed () in
        Closed_loop.close client;
        Server.close server;
        s)
  in
  let epoch e =
    let setup, server, client, durable_dir = boot_timed () in
    let scripts = txns (Workload.scripts w ~seed:ctx.seed ~epoch:e ~n:ctx.n) in
    let before = snapshot_counters server in
    let cpu0 = Unix.times () in
    let wall = Closed_loop.run client scripts in
    let cpu1 = Unix.times () in
    (* the high-water mark before the checks, whose second boot
       recertifies the whole history *)
    let rss_mb = peak_rss_mb () in
    let latencies =
      Array.of_list
        (List.rev_map (fun t -> 1e3 *. (t.Checks.ended -. t.Checks.began)) client.Closed_loop.decided)
    in
    let sorted = Array.copy latencies in
    Array.sort compare sorted;
    let txns = List.concat_map Array.to_list (Array.to_list scripts) in
    let layers =
      if traced then
        layers ctx ~server ~client ~before ~durable_dir ~wall
          ~committed:(List.length (List.filter Checks.committed txns))
          ~latencies
      else []
    in
    let checks, revised =
      checks ctx ~server ~client ~txns ~prev ~durable_dir ~recover:(e = epochs - 1)
    in
    Closed_loop.close client;
    if durable_dir = None then Server.close server;
    {
      setup;
      wall;
      cpu = cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_stime;
      txns;
      sorted;
      rss_mb;
      layers;
      checks = List.map (fun (name, r) -> (Printf.sprintf "%s/%d" name e, r)) checks;
      revised;
    }
  in
  { spare_setups; epochs = List.init epochs epoch }

(* -- output --------------------------------------------------------------------- *)

let checks_of p = List.concat_map (fun e -> e.checks) p.epochs
let correct p = List.for_all (fun (_, r) -> Result.is_ok r) (checks_of p)

let report_pass ~label p =
  let refused =
    sum p (fun e ->
        List.fold_left
          (fun acc t ->
            Array.fold_left
              (fun acc r -> match r with Some (Wire.Failed _) -> acc + 1 | _ -> acc)
              acc t.Checks.replies)
          0 e.txns)
  in
  Printf.printf
    "%s: %d attempted, %d committed, %d failed; %d withdrawals refused, %d withdraw \
     answers revised by a replay\n"
    label (attempted p) (sum p committed) (failed p) refused (sum p (fun e -> e.revised));
  List.iteri
    (fun i e ->
      Printf.printf
        "  epoch %d: %.1f txn/s over %.3f s (%.3f s on the CPU); p50 %.3f ms, p95 %.3f ms of \
         %d samples\n"
        i (throughput e) e.wall e.cpu (p50 e) (p95 e) (Array.length e.sorted))
    p.epochs;
  let tput, p50, p95, samples = pooled p in
  Printf.printf "  all %d epochs: %.1f txn/s; p50 %.3f ms, p95 %.3f ms of %d samples\n"
    (List.length p.epochs) tput p50 p95 samples;
  Printf.printf "  setup %s s; peak RSS %.1f MB after epoch 0\n"
    (String.concat ", " (List.map (Printf.sprintf "%.3g") (setups p)))
    (List.hd p.epochs).rss_mb;
  let checks = checks_of p in
  let kinds =
    List.sort_uniq compare
      (List.map (fun (name, _) -> List.hd (String.split_on_char '/' name)) checks)
  in
  Printf.printf "  checks: %d of %d passed (%s)\n"
    (List.length (List.filter (fun (_, r) -> Result.is_ok r) checks))
    (List.length checks) (String.concat ", " kinds);
  List.iter
    (function name, Error msg -> Printf.printf "  check %s FAILED: %s\n" name msg | _ -> ())
    checks

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "non-finite metric"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let end_to_end p =
  let tput, p50, p95, _ = pooled p in
  [
    ("throughput_txn_s", tput, "txn/s");
    ("latency_p50_ms", p50, "ms");
    ("latency_p95_ms", p95, "ms");
    ("setup_s", median (setups p), "s");
    (* the first epoch's: later epochs run in a heap that earlier
       servers grew *)
    ("peak_rss_mb", (List.hd p.epochs).rss_mb, "MB");
  ]

let layer_units =
  [
    ("server.busy_ms_per_txn", "ms");
    ("server.steps_per_txn", "count");
    ("wire.bytes_per_txn", "bytes");
    ("wire.codec_us_per_txn", "us");
    ("client.ms_per_txn", "ms");
    ("time.unexplained_ms_per_txn", "ms");
    ("engine.steps_per_txn", "count");
    ("engine.restarts_per_txn", "count");
    ("engine.waits_per_txn", "count");
    ("engine.commit_ratio", "ratio");
    ("engine.history_growth", "ratio");
    ("lock.requests_per_txn", "count");
    ("lock.conflicts_per_txn", "count");
    ("cert.oracle_per_txn", "count");
    ("cert.incremental_per_txn", "count");
    ("cert.failures_per_txn", "count");
    ("oplog.appends_per_txn", "count");
    ("oplog.forces_per_txn", "count");
    ("oplog.bytes_per_txn", "bytes");
    ("oplog.force_us", "us");
    ("recovery.replayed_calls", "count");
    ("occ.validations_per_txn", "count");
    ("occ.aborts_per_txn", "count");
    ("occ.commute_saves_per_txn", "count");
    ("gc.minor_words_per_txn", "words");
    ("gc.major_collections_per_txn", "count");
    ("gc.live_words_end", "words");
  ]

(* Both passes run one epoch of the same scripts. *)
let traced_report ~(plain : epoch) ~(traced : epoch) =
  let gap name a b =
    Printf.printf "  %-18s %12.3f %12.3f %+8.1f%%\n" name a b (100. *. ratio (b -. a) a)
  in
  Printf.printf "tracing overhead (untraced vs traced pass, same seed):\n";
  gap "throughput_txn_s" (throughput plain) (throughput traced);
  gap "latency_p50_ms" (p50 plain) (p50 traced);
  gap "latency_p95_ms" (p95 plain) (p95 traced);
  let per_txn = 1e3 *. ratio traced.wall (float (committed traced)) in
  Printf.printf "per-layer attribution (traced pass; wall %.4f ms per committed txn):\n" per_txn;
  List.iter
    (fun (name, v) -> Printf.printf "  %-30s %14.4f %s\n" name v (List.assoc name layer_units))
    traced.layers;
  let share name = 100. *. ratio (List.assoc name traced.layers) per_txn in
  Printf.printf "  wall time: server %.1f%%, client %.1f%%, unexplained %.1f%%\n"
    (share "server.busy_ms_per_txn") (share "client.ms_per_txn")
    (share "time.unexplained_ms_per_txn")

let main ~workload ~seed ~seconds ~trace =
  let w =
    match Workload.find workload with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let root = ".wirebench" // string_of_int (Unix.getpid ()) in
  rm_rf root;
  mkdir_p root;
  let ctx = { w; root; seed; n = Workload.txns_per_epoch w ~seconds } in
  Fun.protect
    ~finally:(fun () ->
      rm_rf root;
      try Unix.rmdir ".wirebench" with Unix.Unix_error _ -> ())
    (fun () ->
      let prev = if w.Workload.prev_txns > 0 then Some (previous_run ctx) else None in
      if not trace then begin
        let p = run_pass ctx ~epochs:w.Workload.epochs ~traced:false ~prev in
        report_pass ~label:w.name p;
        print_result ~correct:(correct p) ~attempted:(attempted p) ~failed:(failed p)
          (end_to_end p);
        correct p
      end
      else begin
        let plain_pass = run_pass ctx ~epochs:1 ~traced:false ~prev in
        let traced_pass = run_pass ctx ~epochs:1 ~traced:true ~prev in
        report_pass ~label:(w.name ^ " untraced") plain_pass;
        report_pass ~label:(w.name ^ " traced") traced_pass;
        let plain = List.hd plain_pass.epochs and traced = List.hd traced_pass.epochs in
        traced_report ~plain ~traced;
        let layers =
          List.map (fun (name, v) -> (name, v, List.assoc name layer_units)) traced.layers
          @ [
              ("traced.throughput_txn_s", throughput traced, "txn/s");
              ("traced.latency_p50_ms", p50 traced, "ms");
              ("traced.latency_p95_ms", p95 traced, "ms");
              ( "traced.overhead_pct",
                100. *. ratio (throughput plain -. throughput traced) (throughput plain),
                "%" );
            ]
        in
        let ok = correct plain_pass && correct traced_pass in
        print_result ~correct:ok ~attempted:(attempted traced_pass) ~failed:(failed traced_pass)
          layers;
        ok
      end)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME enc-open | bank-certify | bank-occ");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S run length: txn_rate * S transactions");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match main ~workload:!workload ~seed:!seed ~seconds:(max 1 !seconds) ~trace:(!trace = 1) with
  | true -> exit 0
  | false -> exit 1
  | exception e ->
      Printf.eprintf "wirebench: %s\n" (Printexc.to_string e);
      exit 2
