#!/bin/sh
# Export gate: run a fixed matrix of carlos_run invocations and compare
# what each exports with the committed copies in test/exports.  Run from
# the repository root after `dune build`.
#
#   test/export.sh check   exit 1 unless every export equals its copy
#   test/export.sh pin     replace the committed copies
#
# Each run APP:VARIANT:NODES goes on every backend and leaves three files,
# named APP-VARIANT-NODES-BACKEND: .stdout (carlos_run's stdout, verbatim),
# .jsonl (its --metrics-json lines, verbatim) and .trace (the Chrome
# trace's SHA-256 and its event counts by name; the trace itself is
# 0.5-2.5 MB per run).  Every run is simulated, so each file is
# deterministic; host-time output (--profile) stays out.
set -u
mode=${1:-check}
case "$mode" in check | pin) ;; *) echo "usage: $0 check|pin" >&2; exit 2 ;; esac
RUNS="tsp:hybrid:4 qsort:lock:3 water:hybrid:2 grid:barrier:4"
BACKENDS="lrc central seq"
root=$(pwd)
pinned=$root/test/exports
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# Run a copy: a `dune build` started mid-gate replaces the binary.
cp "$root/_build/default/bin/carlos_run.exe" "$work/carlos_run.exe"
mkdir "$work/out"
for run in $RUNS; do
  app=${run%%:*}; rest=${run#*:}; variant=${rest%:*}; nodes=${rest##*:}
  for backend in $BACKENDS; do
    name=$app-$variant-$nodes-$backend
    # Relative export names keep stdout's "trace: ... -> FILE" line fixed.
    (cd "$work" && ./carlos_run.exe "$app" --variant "$variant" \
      --nodes "$nodes" --backend "$backend" \
      --trace trace.json --metrics-json metrics.jsonl >"out/$name.stdout") ||
      { echo "export: $name failed" >&2; exit 1; }
    mv "$work/metrics.jsonl" "$work/out/$name.jsonl"
    python3 - "$work/trace.json" >"$work/out/$name.trace" <<'EOF'
import collections, hashlib, json, sys
raw = open(sys.argv[1], "rb").read()
print("sha256", hashlib.sha256(raw).hexdigest())
counts = collections.Counter(e.get("name", "") for e in json.loads(raw)["traceEvents"])
for name in sorted(counts):
    print(counts[name], name)
EOF
  done
done
if [ "$mode" = pin ]; then
  rm -rf "$pinned" && mkdir -p "$pinned" && cp "$work"/out/* "$pinned/"
  echo "export: pinned $(ls "$pinned" | wc -l) files in test/exports"
else
  git --no-pager diff --no-index --stat "$pinned" "$work/out" || exit 1
  echo "export-diff: $(ls "$pinned" | wc -l) exports identical to test/exports"
fi
