#!/bin/sh
# Smoke test for the overhead-attribution report: run two workloads on
# the real speculative runtime with --attrib, then check — from the raw
# JSON, independently of the report's own arithmetic — that the
# per-domain buckets account for at least 95% of lanes x wall, that the
# timeline's recording overhead stays under 5% of the run, and that
# `sptc top` renders the report.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build bin/sptc.exe

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

fail() {
  echo "attrib_smoke: FAIL: $1" >&2
  exit 1
}

require_key() {
  grep -q "\"$2\"" "$1" || fail "$1 lacks key \"$2\""
}

# num FILE KEY -> first numeric value bound to KEY (pretty-printed JSON
# renders one "key": value pair per line)
num() {
  sed -n "s/.*\"$2\": \(-\{0,1\}[0-9][0-9.e+-]*\).*/\1/p" "$1" | head -n 1
}

for src in examples/src/scan.c examples/src/histogram.c; do
  name=$(basename "$src")
  attrib="$tmpdir/$name.attrib.json"

  echo "== sptc run $src --parallel --attrib"
  dune exec bin/sptc.exe -- run "$src" -c best \
    --parallel --jobs 2 --attrib "$attrib" --log-level warn \
    || fail "$name: parallel run failed"

  [ -s "$attrib" ] || fail "$name: attribution report missing or empty"
  require_key "$attrib" spt-attrib-v1
  for key in domains totals coverage gap iter_latency_s overhead_fraction \
    compile dispatch chunk fork validate commit rollback idle \
    predicted_speedup measured_speedup p50 p95 p99; do
    require_key "$attrib" "$key"
  done

  # recompute coverage from the raw numbers: every lane's bucket lines
  # (including idle) summed against wall_s x lanes
  wall=$(num "$attrib" wall_s)
  lanes=$(grep -c '"domain":' "$attrib")
  [ "$lanes" -ge 2 ] || fail "$name: expected >= 2 domains, saw $lanes"

  # domain bucket lines appear before the totals object; take only the
  # per-domain ones (totals would double-count)
  bucket_sum=$(sed -n '1,/"totals"/p' "$attrib" \
    | sed -n 's/.*"\(compile\|dispatch\|inline\|chunk\|fork\|validate\|commit\|rollback\|idle\)": \([0-9][0-9.e+-]*\).*/\2/p' \
    | awk '{ s += $1 } END { printf "%.9f", s }')

  awk -v sum="$bucket_sum" -v wall="$wall" -v lanes="$lanes" 'BEGIN {
    total = wall * lanes;
    if (total <= 0) { print "bad wall/lanes"; exit 1 }
    frac = sum / total;
    if (frac < 0.95) { printf "buckets cover %.1f%% < 95%%\n", frac * 100; exit 1 }
    if (frac > 1.05) { printf "buckets cover %.1f%% > 105%%\n", frac * 100; exit 1 }
  }' || fail "$name: bucket sums do not account for the wall time"

  coverage=$(num "$attrib" coverage)
  awk -v c="$coverage" 'BEGIN { exit !(c >= 0.95) }' \
    || fail "$name: reported coverage $coverage < 0.95"

  overhead=$(num "$attrib" overhead_fraction)
  awk -v f="$overhead" 'BEGIN { exit !(f <= 0.05) }' \
    || fail "$name: timeline overhead $overhead > 5% of the run"

  echo "== sptc top $attrib"
  dune exec bin/sptc.exe -- top "$attrib" > "$tmpdir/$name.top.out" \
    || fail "$name: sptc top failed"
  grep -q "coverage" "$tmpdir/$name.top.out" \
    || fail "$name: top output lacks the coverage line"

  echo "attrib_smoke: $name ok (coverage $coverage, overhead $overhead)"
done

echo "attrib_smoke: OK"
