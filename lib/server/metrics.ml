(* Server-side observability: event counters and wall-clock latency
   histograms, exported as JSON over the wire (STATS) and at shutdown.

   Commit latency is measured from the BEGIN frame to the commit (or
   abort) decision; call latency from a CALL frame to its response being
   queued — both therefore include engine queueing, lock waits and any
   certification retries, which is what a client experiences. *)

module Stats = Ooser_sim.Stats
module Json = Ooser_sim.Json

type t = {
  counters : Stats.Counter.t;
  commit_latency : Stats.Histogram.t;
  call_latency : Stats.Histogram.t;
  started : float;  (* server start, for uptime *)
}

let create ~now () =
  {
    counters = Stats.Counter.create ();
    commit_latency = Stats.Histogram.create ();
    call_latency = Stats.Histogram.create ();
    started = now;
  }

let incr t key = Stats.Counter.incr t.counters key
let observe_commit t seconds = Stats.Histogram.add t.commit_latency seconds
let observe_call t seconds = Stats.Histogram.add t.call_latency seconds

(* -- JSON -------------------------------------------------------------------- *)

(* [engine] carries the engine + lock-protocol counters; [certified] is
   the verdict of a full oo-serializability check of the committed
   history, or [None] when none was run.  [Server.stats_json] always
   passes one: STATS and the drain both certify.  [shards], when
   non-empty, adds a per-shard counter breakdown next to the merged
   [engine] view so load imbalance between shards is visible in STATS.
   [gc] is the allocator's cumulative view: [major_words] includes
   [promoted_words], so their difference is what the server allocated
   straight into the major heap (large blocks).  The counts are as of
   the last minor collection. *)
let gc_json () =
  let g = Gc.quick_stat () in
  let words w = Json.Int (int_of_float w) in
  Json.Obj
    [ "minor_words", words g.Gc.minor_words;
      "promoted_words", words g.Gc.promoted_words;
      "major_words", words g.Gc.major_words;
      "major_collections", Json.Int g.Gc.major_collections;
      "heap_words", Json.Int g.Gc.heap_words ]

let to_json ?(shards = []) t ~now ~engine ~certified =
  let counters = Stats.Counter.json_of_list
  and hist = Stats.Histogram.to_json in
  let shard (i, kvs) = (Printf.sprintf "shard%d" i, counters kvs) in
  Json.Obj
    ([ "uptime_seconds", Json.Float (now -. t.started);
       "server", counters (Stats.Counter.to_list t.counters);
       "engine", counters engine ]
    @ (if shards = [] then []
       else [ "shards", Json.Obj (List.map shard shards) ])
    @ [ "commit_latency_seconds", hist t.commit_latency;
        "call_latency_seconds", hist t.call_latency;
        "gc", gc_json ();
        "certified", Json.opt (fun b -> Json.Bool b) certified ])
