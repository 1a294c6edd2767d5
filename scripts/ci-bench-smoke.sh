#!/usr/bin/env bash
# CI bench smoke: run one experiment section with telemetry on and gate
# the metrics document it writes.
#
#   scripts/ci-bench-smoke.sh <section> [experiment args...]
#
# <section> is any name from Cm_experiments.Experiments.sections (the
# paper's tables and figures plus the scale benchmarks); an unknown name
# fails fast with `cloudmirror experiment`'s usage message, so this
# script and the experiment library cannot drift.  The
# document lands in bench_<section>.json (dashes become underscores) and
# the causal trace in bench_<section>_trace.json alongside it.
#
# The gate is scripts/gates/<section>.py; sections without one are gated
# on schema validity alone.  Gates check schema and invariants, never
# wall-clock — CI machines are too noisy for timing gates; headline
# numbers live in the committed BENCH_pr*.json baselines.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 <section> [experiment args...]" >&2
  exit 2
fi

section=$1
shift
out="bench_${section//-/_}.json"
trace="bench_${section//-/_}_trace.json"
here=$(cd "$(dirname "$0")" && pwd)

run() {
  if command -v opam >/dev/null 2>&1; then
    opam exec -- "$@"
  else
    "$@"
  fi
}

run dune exec bin/cloudmirror.exe -- experiment "$@" "$section" \
  --metrics-out "$out" --trace-out "$trace"

gate="$here/gates/${section//-/_}.py"
if [ -f "$gate" ]; then
  python3 "$gate" "$out"
else
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
schemas = ("cloudmirror.metrics/1", "cloudmirror.metrics/2")
assert doc.get("schema") in schemas, doc.get("schema")
print(sys.argv[1] + ": schema OK")
' "$out"
fi

# Observability gate: metrics/2 series + span-GC structure and a
# non-empty, well-formed Chrome trace.  Schema and invariants only.
python3 "$here/gates/obs.py" "$out" "$trace"
