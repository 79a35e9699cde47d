#!/bin/sh
# Build the benchmark from source, then run it with the given arguments,
# from the repository root. Build output goes to stderr so the last line
# of stdout stays the benchmark's JSON result.
set -e
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display=quiet bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
