.PHONY: all build test test-dev fmt check soak soak-check audit paper-tables bench-diff bench-parallel rebaseline rebaseline-alloc export-diff export-pin perfbench-smoke clean

all: build

build:
	dune build

test:
	dune runtest --force

# Tier-1 under the dev profile (-opaque, so no cross-module inlining;
# the allocation bounds that rely on inlining read the profile from
# test/build_profile.ml).  It builds in a directory of its own, so the
# release binaries in _build/default, which the other targets run, are
# left alone.
test-dev:
	dune runtest --force --profile dev --build-dir _build_dev

# Formatting gate: dune files must be dune-fmt clean (see dune-project;
# OCaml sources are not yet under ocamlformat).
fmt:
	dune build @fmt

check: build fmt test

# Soak the qcheck properties: tier-1 runs each on one pinned seed; this
# runs them once per seed in SEEDS (QCHECK_SEED) and prints every failing
# seed with its counterexample.  soak-check fails unless the failing seeds
# over 1..200 are exactly those listed in test/soak_expected.txt.
SEEDS ?= 1..40

soak: build
	@test/soak.sh $(SEEDS)

soak-check: build
	@test/soak.sh 1..200 test/soak_expected.txt

# Run every variant of the app catalogue under the online consistency
# auditor on every backend, so each work-queue mode (forwarding,
# all-RELEASE, no forwarding) is audited; fails on any violation (CI runs
# this target).  Each backend enables its own invariant set in the
# auditor.  Each run is app:variant:nodes.  The 32-node grid is the one
# whose metadata GC discards hundreds of intervals per node.  The runs
# call the binary the build target made, not [dune exec], so a
# concurrent build holding dune's lock cannot stall them.
AUDIT_RUNS = tsp:lock:4 tsp:hybrid:4 tsp:hybrid-all-release:4 \
	qsort:lock:4 qsort:hybrid:4 qsort:hybrid-2:4 qsort:hybrid-noforward:4 \
	water:lock:4 water:hybrid:4 water:hybrid-all-release:4 grid:lock:4 \
	grid:hybrid:4 grid:barrier:32

audit: build
	@for backend in lrc central seq; do \
	  for run in $(AUDIT_RUNS); do \
	    app=$${run%%:*}; rest=$${run#*:}; \
	    variant=$${rest%:*}; nodes=$${rest##*:}; \
	    echo "=== $$app/$$variant n=$$nodes --backend $$backend --audit ==="; \
	    _build/default/bin/carlos_run.exe \
	      $$app --nodes $$nodes --variant $$variant \
	      --backend $$backend --audit || exit 1; \
	  done; \
	done

# The paper's Tables 1-3, Figure 2 and the ablations; exits non-zero when
# any row's application-level check prints FAIL.  Like every bench target
# below, it runs the binary the build target made, so dune starts once.
BENCH = _build/default/bench/main.exe

paper-tables: build
	$(BENCH)

# The snapshot recipe: every gate and scaling row plus the fits, all
# simulated and so deterministic.  $(call snapshot,FILE,ARGS) writes it
# to FILE.  SNAPSHOT_DIFF exits 1 when two snapshots differ and prints
# each moved number inline in its row.  The committed BENCH_PR10.json is
# such a snapshot.
snapshot = $(BENCH) json scaling $(2) -o $(1)
SNAPSHOT_DIFF = git --no-pager diff --no-index --word-diff=plain \
	--word-diff-regex='[^ ,{}]+'

# Parallel-determinism gate: the snapshot fanned across 2 domains must be
# byte-identical to a sequential run.
bench-parallel: build
	@j1=$$(mktemp) && j2=$$(mktemp) && trap 'rm -f "$$j1" "$$j2"' EXIT && \
	$(call snapshot,$$j1,-j 1) && $(call snapshot,$$j2,-j 2) && \
	$(SNAPSHOT_DIFF) $$j1 $$j2
	@echo "bench-parallel: -j 2 snapshot identical to -j 1"

# Standing perf gate (CI runs this target): a fresh snapshot must equal
# the committed BENCH_PR10.json, so every simulated number of every row
# and fit is gated at zero tolerance in both directions.  Exits non-zero
# on a moved number, a lost row or a new one.
bench-diff: build
	@new=$$(mktemp) && trap 'rm -f "$$new"' EXIT && \
	$(call snapshot,$$new) && $(SNAPSHOT_DIFF) BENCH_PR10.json $$new
	@echo "bench-diff: snapshot identical to BENCH_PR10.json"

# Re-pin the committed baseline after a change that moves simulated
# numbers: print every moved number, then replace BENCH_PR10.json with
# the fresh snapshot.  The diff is for review; it never stops
# the replacement.
rebaseline: build
	@new=$$(mktemp) && trap 'rm -f "$$new"' EXIT && \
	$(call snapshot,$$new) && \
	{ $(SNAPSHOT_DIFF) BENCH_PR10.json $$new || true; } && \
	cp $$new BENCH_PR10.json && \
	echo "rebaseline: BENCH_PR10.json replaced"

# Re-pin the baseline after a change that moves allocation only: the
# fresh snapshot replaces BENCH_PR10.json only if, with every row's
# alloc_minor and alloc_major fields stripped, it equals the committed
# file byte for byte; the moved allocation numbers are printed.  If any
# other number moved, it prints those moves and exits 1, writing nothing.
STRIP_ALLOC = sed -E 's/"alloc_(minor|major)": [0-9]+, //g'

rebaseline-alloc: build
	@new=$$(mktemp) && old_s=$$(mktemp) && new_s=$$(mktemp) && \
	trap 'rm -f "$$new" "$$old_s" "$$new_s"' EXIT && \
	$(call snapshot,$$new) && \
	$(STRIP_ALLOC) BENCH_PR10.json > $$old_s && $(STRIP_ALLOC) $$new > $$new_s && \
	if ! cmp -s $$old_s $$new_s; then \
	  $(SNAPSHOT_DIFF) $$old_s $$new_s; \
	  echo "rebaseline-alloc: numbers other than alloc_* moved; BENCH_PR10.json left as it is"; \
	  exit 1; \
	fi && \
	{ $(SNAPSHOT_DIFF) BENCH_PR10.json $$new || true; } && \
	cp $$new BENCH_PR10.json && \
	echo "rebaseline-alloc: only alloc_* moved; BENCH_PR10.json replaced"

# Export gate (CI runs this target): tsp/hybrid@4, qsort/lock@3,
# water/hybrid@2 and grid/barrier@4 on every backend; each run's stdout
# and --metrics-json lines, and its Chrome trace's digest and event counts
# by name, must equal the copies in test/exports.  A change that moves an
# export on purpose re-pins them with `make export-pin`.
export-diff: build
	@test/export.sh check

export-pin: build
	@test/export.sh pin

# perfbench's own correctness check (CI runs this target): each workload
# runs its 32 seed-0 inputs once, and the run's last line must report
# "correct": true and "failed": 0.  Seed 0 of water-locks also checks
# its pinned BENCH_PR10.json row.  Host metrics are printed, never gated.
PERFBENCH_WORKLOADS = qsort-bulk water-locks grid-32

perfbench-smoke: build
	@for w in $(PERFBENCH_WORKLOADS); do \
	  echo "=== perfbench $$w --seed 0 --seconds 0 ==="; \
	  python3 perfbench/run.py --workload $$w --seed 0 --seconds 0 \
	    --trace 0 | tail -n 1 | python3 -c \
	    'import json, sys; r = json.loads(sys.stdin.read()); \
	     ok = r["correct"] is True and r["failed"] == 0; \
	     print("correct=%s attempted=%s failed=%s" \
	           % (r["correct"], r["attempted"], r["failed"])); \
	     sys.exit(0 if ok else 1)' || exit 1; \
	done

clean:
	dune clean
