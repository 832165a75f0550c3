#!/usr/bin/env sh
# CI smoke for host performance (bench E17 + the committed baselines):
# host-path work must change nothing simulated, and host throughput must
# be tracked by the same changepoint machinery that gates simulated
# throughput.
#
# Phase 1 — simulated bytes are sacred: regenerate the three committed
# BENCH_<ID>.json baselines with the current binary and demand
# byte-identity. This is stronger than the counter-exact compare the
# perf-gate job runs: not a single byte of simulated output may move with
# host-path work.
#
# Phase 2 — host-throughput selftest: run E17, which times the quick list
# sweep and reports absolute host blocks/sec (the measured figures are
# recorded in EXPERIMENTS.md).
#
# Phase 3 — changepoint gate: archive two more E17 runs as history in a
# result store (internal/store), print the trend table to $PERF_REPORT,
# and gate the phase-2 run with sthist. Host wall-clock jitters far more
# than simulated counters, so the tolerance floor is generous
# (-min-tol 0.5); the gate still must flag a synthetic 60% collapse.
set -eu

TMP=$(mktemp -d)
STORE="$TMP/store"
PERF_REPORT=${PERF_REPORT:-$TMP/host-trend-report.txt}
trap 'rm -rf "$TMP"' EXIT

go build -o ./bin/stbench ./cmd/stbench
go build -o ./bin/sthist ./cmd/sthist

echo "== phase 1: committed baselines are byte-identical =="
./bin/stbench -quick -run E1a,E2b,E3 -baseline "$TMP" >/dev/null
for id in E1a E2b E3; do
  cmp "BENCH_$id.json" "$TMP/BENCH_$id.json" || {
    echo "FAIL: BENCH_$id.json is not byte-identical to a fresh run" >&2
    exit 1
  }
done
echo "OK: BENCH_E1a/E2b/E3 byte-identical"

echo "== phase 2: E17 host-throughput selftest =="
./bin/stbench -quick -run E17 -json "$TMP/host1.json"
grep -q '"host_blocks_per_sec"' "$TMP/host1.json" || {
  echo "FAIL: no host_blocks_per_sec in E17 output" >&2
  exit 1
}

echo "== phase 3: host metrics through the changepoint gate =="
./bin/stbench -quick -run E17 -json "$TMP/host2.json" >/dev/null
./bin/stbench -quick -run E17 -json "$TMP/host3.json" >/dev/null
./bin/sthist -store "$STORE" -import "$TMP/host2.json" "$TMP/host3.json" >/dev/null
./bin/sthist -store "$STORE" -trends -experiment E17 >"$PERF_REPORT"
echo "host trend report: $PERF_REPORT ($(wc -l <"$PERF_REPORT") lines)"

./bin/sthist -store "$STORE" -gate "$TMP/host1.json" \
  -min-history 2 -min-tol 0.5 || {
  echo "FAIL: gate rejected a clean E17 run (host jitter beyond 50%?)" >&2
  exit 1
}
rc=0
./bin/sthist -store "$STORE" -gate "$TMP/host1.json" \
  -min-history 2 -min-tol 0.5 -inject throughput=0.4 >"$TMP/gate.out" 2>&1 || rc=$?
[ "$rc" = 1 ] || {
  echo "FAIL: injected host-throughput collapse exited $rc, want 1" >&2
  cat "$TMP/gate.out" >&2
  exit 1
}
echo "OK: gate clean on real host history, exit 1 on injected collapse"
