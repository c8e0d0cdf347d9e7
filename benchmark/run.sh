#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments (see benchmark/README.md).  Run from anywhere; it works
# in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
