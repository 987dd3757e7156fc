(** Offline certification of very large recorded histories, Vbox-style:
    a streaming binary trace format ({!Trace}), quiescent-point
    segmentation ({!Segment}), parallel per-segment incremental
    certification whose verdicts conjoin ({!Certify}), and the
    synthetic workload generator behind BENCH_certify.json ({!Bench_trace}). *)

module Trace = Trace
module Segment = Segment
module Certify = Certify
module Bench_trace = Bench_trace
