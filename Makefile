# Convenience targets; dune is the real build system.

.PHONY: all build test lint devlint ccdeps lvs bench profile memprofile scale qor doc clean examples

all: build

build:
	dune build @all

test:
	dune runtest

lint: build
	dune runtest
	dune exec bin/ccgen.exe -- lint --all

# Source-level static analysis of the repo's own OCaml (docs/SRCLINT.md);
# the typed whole-program pass joins in automatically because `build`
# leaves .cmt files around.  cclint.json is what CI uploads.
devlint: build
	dune exec bin/cclint.exe -- --werror
	dune exec bin/cclint.exe -- --json > cclint.json

# Just the typed whole-program families (call-graph effect taint,
# domain-escape races, architecture layering — docs/SRCLINT.md); fails
# if the .cmt files are missing rather than silently degrading.
# ccdeps.json is what CI uploads as an artifact.
ccdeps: build
	dune exec bin/cclint.exe -- --typed --werror
	dune exec bin/cclint.exe -- --typed --json --rules int,arch,meta > ccdeps.json

# Sweepline connectivity certification of every shipped configuration
# (docs/VERIFY.md); lvs.json is what CI uploads as an artifact.
lvs: build
	dune exec bin/ccgen.exe -- lvs --all --werror
	dune exec bin/ccgen.exe -- lvs --all --json > lvs.json

# The bench suite, then a parallel QoR recording: the ledger rows gain
# the measured jobs=4 Monte-Carlo speedup (docs/PARALLEL.md).
bench:
	dune exec bench/main.exe
	dune exec bin/ccgen.exe -- record --jobs 4 --ledger qor_ledger.jsonl

# Per-stage time/metric breakdown of the flow (docs/TELEMETRY.md);
# profile.json is what CI uploads as an artifact.
profile: build
	dune exec bin/ccgen.exe -- profile --bits 6,8
	dune exec bin/ccgen.exe -- profile --bits 6,8 --json > profile.json

# The same matrix with Telemetry.Memory sampling on: per-stage
# allocation/GC deltas (docs/TELEMETRY.md); profile_mem.json is what CI
# uploads as an artifact.
memprofile: build
	dune exec bin/ccgen.exe -- profile --bits 6,8 --mem
	dune exec bin/ccgen.exe -- profile --bits 6,8 --mem --json > profile_mem.json

# Cross-bit-width scaling probe (docs/BENCH.md): run the flow over a
# small bit ladder at jobs=4 with scheduler telemetry on and fit
# per-stage growth exponents; scaling.json is what CI uploads as an
# artifact.
scale: build
	dune exec bin/ccgen.exe -- scale --bits 6,8,10 --trials 5000 --jobs 4
	dune exec bin/ccgen.exe -- scale --bits 6,8,10 --trials 5000 --jobs 4 --json > scaling.json

# QoR regression sentinel (docs/QOR.md): record the default matrix to
# the ledger, then diff the ledger's latest records against the
# committed baseline.  Fails on any regressed or incomparable metric;
# qor_ledger.jsonl and qor_verdicts.json are what CI uploads.
qor: build
	dune exec bin/ccgen.exe -- record --ledger qor_ledger.jsonl
	dune exec bin/ccgen.exe -- diff --baseline BENCH_baseline.json --from-ledger --ledger qor_ledger.jsonl --werror
	dune exec bin/ccgen.exe -- diff --baseline BENCH_baseline.json --from-ledger --ledger qor_ledger.jsonl --json > qor_verdicts.json

# Run every example in examples/dune (CI runs this target too).
examples:
	dune exec examples/quickstart.exe
	dune exec examples/dac_tradeoff.exe
	dune exec examples/parallel_wires.exe
	dune exec examples/layout_gallery.exe
	dune exec examples/segmented_dac.exe

clean:
	dune clean
