#!/bin/sh
# Soak the qcheck properties: run every test binary's properties once per
# seed, print each failing seed with its counterexamples, and end with the
# list of failing seeds.  Run from the repository root after `dune build`.
#
#   test/soak.sh FIRST..LAST [EXPECTED]
#
# Without EXPECTED, exits non-zero if any seed fails.  With EXPECTED (a
# file holding a seed list; lines starting with # are comments), exits
# non-zero unless the failing seeds are exactly that list.
set -u
range=$1
expected=${2:-}
first=${range%%..*}
last=${range##*..}
root=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# Run copies: a `dune build` started mid-soak replaces or deletes the
# binaries under _build.
mkdir "$work/bin"
cp "$root"/_build/default/test/test_*.exe "$work/bin/"
failing=""
for seed in $(seq "$first" "$last"); do
  bad=0
  for bin in "$work"/bin/test_*.exe; do
    if ! (cd "$work" && QCHECK_SOAK=1 QCHECK_SEED=$seed "$bin" >log 2>&1); then
      bad=1
      echo "--- seed $seed: $(basename "$bin" .exe)"
      awk '/^test `.*` failed/ { p = 1 } p && /^$/ { p = 0 } p' "$work/log"
    fi
  done
  if [ "$bad" = 1 ]; then failing="$failing $seed"; fi
done
failing=${failing# }
echo "soak: seeds $first..$last, failing: ${failing:-none}"
if [ -z "$expected" ]; then
  [ -z "$failing" ]
else
  want=$(grep -v '^#' "$expected" | tr -s ' \n' '  ' | sed 's/^ *//; s/ *$//')
  if [ "$failing" = "$want" ]; then
    echo "soak: failing seeds match $expected"
  else
    echo "soak: expected failing seeds: ${want:-none}"
    exit 1
  fi
fi
