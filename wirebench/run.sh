#!/bin/sh
# Build the wire-server benchmark from source, then run one workload:
#
#   sh wirebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository.  Build output goes to stderr,
# so the last line of standard output is the benchmark's JSON result.
set -e
dune build --root . ./wirebench/main.exe >&2
exec ./_build/default/wirebench/main.exe "$@"
