.PHONY: all build test fmt check soak soak-check audit bench-diff bench-parallel rebaseline perfbench-smoke clean

all: build

build:
	dune build

test:
	dune runtest --force

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

# Run every app under the online consistency auditor on every backend;
# fails on any violation (the CI consistency-audit job runs this target).
# Each backend enables its own invariant set in the auditor.
audit: build
	@for backend in lrc central seq; do \
	  for app in tsp qsort water grid; do \
	    for variant in lock hybrid; do \
	      echo "=== $$app/$$variant n=4 --backend $$backend --audit ==="; \
	      dune exec bin/carlos_run.exe -- \
	        $$app --nodes 4 --variant $$variant \
	        --backend $$backend --audit || exit 1; \
	    done; \
	  done; \
	done

# Parallel-determinism gate: the gate matrix fanned across 2 domains
# must produce a snapshot byte-identical (host-time fields aside, which
# are wall-clock and therefore nondeterministic) to a sequential run.
bench-parallel: build
	dune exec bench/main.exe -- json -j 1 -o /tmp/bench_j1.json
	dune exec bench/main.exe -- json -j 2 -o /tmp/bench_j2.json
	sed -E 's/, "host_s": [0-9.]+, "host_ms": [0-9.]+//' /tmp/bench_j1.json > /tmp/bench_j1.stripped
	sed -E 's/, "host_s": [0-9.]+, "host_ms": [0-9.]+//' /tmp/bench_j2.json > /tmp/bench_j2.stripped
	cmp /tmp/bench_j1.stripped /tmp/bench_j2.stripped
	@echo "bench-parallel: -j 2 snapshot identical to -j 1"

# Standing perf gate (CI's bench-diff job runs this target): fresh gate
# rows plus a 16-node scaling smoke, compared against the committed
# BENCH_PR10.json at zero tolerance on the simulated numbers, for every
# gate row of all three backends and for the 16-node scaling rows.  The
# gate rows are selected by config=batched, which sets them apart from
# the committed 4/8/32-node scaling rows that the fresh 16-node smoke
# does not rerun (unselected, those would be reported missing).
# bench_diff fails only on increases, so each comparison is also run
# with the two files swapped: a simulated number that moves in either
# direction fails.  Exits non-zero on a moved number or a lost row.
SIM_FIELDS = wall_s,messages,wire_bytes,components.diff_payload,components.vc_entries,components.write_notices,components.retransmit,bytes,frames,acks,acks_coalesced,diff_requests

bench-diff: build
	dune exec bench/main.exe -- json scaling -n 16 -o BENCH_GATE.json
	@for sel in "config=batched" "config=scaling --only nodes=16"; do \
	  for pair in "BENCH_PR10.json BENCH_GATE.json" \
	              "BENCH_GATE.json BENCH_PR10.json"; do \
	    echo "=== bench_diff $$pair --only $$sel ==="; \
	    dune exec bin/bench_diff.exe -- $$pair --only $$sel \
	      --fields $(SIM_FIELDS) --tolerance 0 || exit 1; \
	  done; \
	done

# Re-pin the committed baseline after a change that moves simulated
# numbers: regenerate every gate and scaling row into a temporary file,
# print bench_diff in both directions at zero tolerance, so every moved
# field shows in one table, then replace BENCH_PR10.json with it.  The
# table is for review; it never stops the replacement.
rebaseline: build
	@tmp=$$(mktemp) && \
	dune exec bench/main.exe -- json scaling -o $$tmp && \
	for pair in "BENCH_PR10.json $$tmp" "$$tmp BENCH_PR10.json"; do \
	  echo "=== bench_diff $$pair ==="; \
	  dune exec bin/bench_diff.exe -- $$pair \
	    --fields $(SIM_FIELDS) --tolerance 0 || true; \
	done && \
	cp $$tmp BENCH_PR10.json && rm -f $$tmp && \
	echo "rebaseline: BENCH_PR10.json replaced"

# perfbench's own correctness check (CI's perfbench-smoke job runs this
# target): each workload runs its 32 seed-0 inputs once, and the run's
# last line must report "correct": true and "failed": 0.  Seed 0 of
# water-locks also checks its pinned BENCH_PR10.json row.  Host metrics
# are printed, never gated.
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
