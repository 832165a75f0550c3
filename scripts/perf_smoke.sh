#!/usr/bin/env sh
# CI gate for the simulated bytes and for host speed. Run it from a git
# checkout whose HEAD^ is the commit to compare against (CI checks out
# with fetch-depth 2):
#
#   PERF_REPORT=host-perf-report.txt sh scripts/perf_smoke.sh
#
# Phase 1 — simulated bytes are sacred: regenerate the three committed
# BENCH_<ID>.json baselines with the current binary and demand
# byte-identity. This is the repository's one byte gate. It runs three
# times: under GOMAXPROCS=1, where a sweep simulates one point at a time;
# at one per CPU (the default), where it simulates that many at once; and
# under GOMAXPROCS=3, more workers than a 2-CPU runner has, which leaves
# a partial delivery group at the end of every experiment. On a mismatch
# it reruns the experiment under `stbench -compare` so the log names
# every field that moved, not just the first differing byte.
#
# Phase 2 — host speed, parent against HEAD: build HEAD^ in a git
# worktree and run the host-speed benchmark (benchmark/README.md) on both
# trees, paper-sweep, tx-scan and fuzz-campaign at seeds 1-3 with the
# default run length, in pairs whose order alternates. paper-sweep and
# tx-scan cover the sweep and the paper's mechanism; fuzz-campaign covers
# the schedule-exploration path (recorded runs and their deviation logs),
# which no sweep enters. `benchmark/run.sh -compare` then judges
# HEAD against the parent; its table goes to $PERF_REPORT. Any `worse` row
# or failed run fails the gate. `unresolved` rows (a spread beyond the
# metric's bound) are reported and do not fail it.
#
# The benchmark also compares every run's simulated counts and digest
# between the two trees. A commit that changes a committed BENCH_*.json
# is a deliberate re-baseline: those differences are then expected, and
# are reported without failing the gate.
set -eu

TMP=$(mktemp -d)
PERF_REPORT=${PERF_REPORT:-$TMP/host-perf-report.txt}
cleanup() {
  git worktree remove --force "$TMP/parent" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o ./bin/stbench ./cmd/stbench

echo "== phase 1: committed baselines are byte-identical =="
for procs in 1 "$(nproc)" 3; do
  rm -f "$TMP"/BENCH_*.json
  GOMAXPROCS=$procs ./bin/stbench -quick -run E1a,E2b,E3 -baseline "$TMP" >/dev/null
  for id in E1a E2b E3; do
    cmp "BENCH_$id.json" "$TMP/BENCH_$id.json" || {
      echo "FAIL: BENCH_$id.json is not byte-identical to a fresh run (GOMAXPROCS $procs)" >&2
      GOMAXPROCS=$procs ./bin/stbench -quick -run "$id" -compare . >&2 || true
      exit 1
    }
  done
  echo "OK: BENCH_E1a/E2b/E3 byte-identical at GOMAXPROCS $procs"
done

echo "== phase 2: host speed, HEAD^ against HEAD =="
rebaseline=
git diff --quiet HEAD^ -- 'BENCH_*.json' || rebaseline=1
git worktree add --detach "$TMP/parent" HEAD^ >/dev/null 2>&1
head=$(pwd)
failed=0
# bench DIR SIDE WORKLOAD SEED: one benchmark run in the tree at DIR.
bench() {
  echo "-- $2 $3 seed $4" >&2
  (cd "$1" && sh benchmark/run.sh --workload "$3" --seed "$4" -out "$TMP/$2.jsonl") >/dev/null || {
    echo "FAIL: $2 $3 seed $4 exited non-zero" >&2
    failed=1
  }
}
pair=0
for seed in 1 2 3; do
  for w in paper-sweep tx-scan fuzz-campaign; do
    if [ $((pair % 2)) = 0 ]; then
      bench "$TMP/parent" parent "$w" "$seed"
      bench "$head" head "$w" "$seed"
    else
      bench "$head" head "$w" "$seed"
      bench "$TMP/parent" parent "$w" "$seed"
    fi
    pair=$((pair + 1))
  done
done

rc=0
sh benchmark/run.sh -compare "$TMP/parent.jsonl" "$TMP/head.jsonl" >"$PERF_REPORT" || rc=$?
cat "$PERF_REPORT"
[ "$rc" -le 1 ] || {
  echo "FAIL: benchmark -compare exited $rc" >&2
  exit 1
}
if [ "$failed" = 1 ] || grep -Eq ' worse$|runs failed$|runs on one side only$' "$PERF_REPORT"; then
  echo "FAIL: a worse row or a failed run (table above)" >&2
  exit 1
fi
if [ "$rc" = 1 ]; then
  if [ -z "$rebaseline" ]; then
    echo "FAIL: simulated counts or digests differ from HEAD^, and no BENCH_*.json changed" >&2
    exit 1
  fi
  echo "note: this commit re-baselines BENCH_*.json; the differing counts and digests above are expected"
fi
if grep -q ' unresolved$' "$PERF_REPORT"; then
  echo "note: unresolved rows spread beyond their bound; they do not fail the gate"
fi
echo "OK: no worse row and no failed run against HEAD^"
