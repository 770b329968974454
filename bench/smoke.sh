#!/bin/sh
# Smoke test for the observability pipeline: build + unit tests, then
# one traced/metered compile, failing if the artifacts are malformed or
# missing the counters the experiment scripts consume.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @runtest"
dune build @runtest

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
trace="$tmpdir/trace.json"
metrics="$tmpdir/metrics.json"

echo "== sptc compile examples/src/histogram.c (--trace, --metrics)"
dune exec bin/sptc.exe -- compile examples/src/histogram.c -c best \
  --trace "$trace" --metrics "$metrics" --log-level warn

fail() {
  echo "smoke: FAIL: $1" >&2
  exit 1
}

require_key() {
  # JSON keys are always rendered quoted, so a fixed-string grep works
  grep -q "\"$2\"" "$1" || fail "$1 lacks key \"$2\""
}

[ -s "$trace" ] || fail "trace file missing or empty"
[ -s "$metrics" ] || fail "metrics file missing or empty"

require_key "$trace" traceEvents
require_key "$trace" dur
for name in frontend ssa.construct ssa.optimize profile pass1.analyze \
  pass2.select transform simulate.base simulate.spt; do
  require_key "$trace" "$name"
done

require_key "$metrics" spt-metrics-v1
for name in speedup outputs_match \
  pipeline.pass1_candidates pipeline.pass2_selected \
  partition.nodes_explored partition.pruned_by_bound \
  partition.pruned_by_threshold cost.graph_nodes depgraph.edges \
  svp.candidates_tried svp.applied tlsim.misspeculations tlsim.kills \
  interp.steps; do
  require_key "$metrics" "$name"
done

echo "== sptc run examples/src/histogram.c --parallel (runtime smoke)"
dune exec bin/sptc.exe -- run examples/src/histogram.c -c best \
  --parallel --jobs 2 --log-level warn \
  || fail "parallel run failed (oracle mismatch or crash)"

echo "== bench quick run (spt-bench-v2 summary at the repo root)"
# no SPT_BENCH_JSON override: the default must land next to dune-project,
# where the committed BENCH_results.json baseline lives
bench_json="BENCH_results.json"
SPT_BENCH_QUICK=1 dune exec bench/main.exe \
  > "$tmpdir/bench.out" 2>&1 || {
  tail -n 30 "$tmpdir/bench.out" >&2
  fail "bench run failed"
}

[ -s "$bench_json" ] || fail "bench summary missing or empty"
require_key "$bench_json" spt-bench-v2
for name in parallel measured_speedup predicted_speedup jobs runtime \
  forks commits; do
  require_key "$bench_json" "$name"
done

echo "smoke: OK ($(grep -c '"name"' "$trace") trace events)"
