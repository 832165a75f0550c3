#!/usr/bin/env sh
# CI smoke for the schedule fuzzer (cmd/stfuzz).
#
# Phase 1 — clean schemes stay clean: ~20 seconds of exploration spread
# over {list, skiplist} x {stacktrack, hp}. Any oracle violation in a sound
# scheme is a real bug and fails the job.
#
# Phase 2 — the fuzzer catches a seeded bug, and parallel exploration
# catches it faster: the deliberately unsound "unsafe" scheme at a
# calibrated workload whose first failing seed is ~57 seeds deep
# (~40 ms/run), so 4-worker campaigns beat 1-worker campaigns by a wide
# margin; each width runs twice (1, 4, 4, 1) and the summed times are
# compared. -expect-failure inverts the exit status: finding the bug is
# success.
#
# Phase 3 — snapshot forking end to end: a fork-heap campaign (one
# warmed snapshot forked across strategy seeds) finds a use-after-free,
# ddmin minimizes it over the snapshot-accelerated replay path, writes the
# schedule into $FUZZ_ARTIFACTS (uploaded by CI when an oracle fires), and
# the artifact is re-verified by a from-scratch replay that writes the
# schedule back out byte-identically.
set -eu

STFUZZ=${STFUZZ:-./bin/stfuzz}
go build -o "$STFUZZ" ./cmd/stfuzz

echo "== phase 1: sound schemes stay clean (4 x 5s) =="
for ds in list skiplist; do
  for scheme in stacktrack hp; do
    echo "-- $ds / $scheme"
    "$STFUZZ" -ds "$ds" -scheme "$scheme" -strategy random \
      -budget 5s -workers 2
  done
done

echo "== phase 2: seeded unsafe bug, 1 worker vs 4 workers =="
# Calibrated so the first failing seed sits deep enough that fan-out pays.
seeded() {
  "$STFUZZ" -ds list -scheme unsafe -strategy random \
    -threads 2 -mutate 15 -keyrange 1536 -initial 384 \
    -measure-ms 1 -warmup-ms 0.05 \
    -budget 120s -workers "$1" -expect-failure -trace 0
}

ms_now() {
  # POSIX date has no %N; fall back to second resolution x1000.
  if date +%s%N | grep -qv N; then
    echo $(( $(date +%s%N) / 1000000 ))
  else
    echo $(( $(date +%s) * 1000 ))
  fi
}

# Each width runs twice, in the order 1, 4, 4, 1, and the sums are
# compared, so a burst of other load on the host lands on both widths
# rather than on one campaign.
serial=0 parallel=0
for w in 1 4 4 1; do
  t0=$(ms_now); seeded "$w"; t1=$(ms_now)
  if [ "$w" -eq 1 ]; then
    serial=$(( serial + t1 - t0 ))
  else
    parallel=$(( parallel + t1 - t0 ))
  fi
done
echo "seeded bug found twice each: 1 worker ${serial}ms, 4 workers ${parallel}ms"

cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$cores" -lt 2 ]; then
  echo "SKIP timing comparison: only $cores host core(s); both campaigns found the bug"
elif [ "$parallel" -ge "$serial" ]; then
  echo "FAIL: 4 workers (${parallel}ms) were not faster than 1 worker (${serial}ms)" >&2
  exit 1
else
  echo "OK: parallel exploration is $(( serial / parallel ))x+ faster"
fi

echo "== phase 3: fork-heap campaign, snapshot-accelerated ddmin, cold-start replay =="
ART=${FUZZ_ARTIFACTS:-./fuzz-artifacts}
mkdir -p "$ART"
"$STFUZZ" -ds list -scheme unsafe -strategy random -seed 6 \
  -threads 2 -mutate 40 -keyrange 128 -initial 64 \
  -measure-ms 0.1 -warmup-ms 0.05 \
  -budget 60s -max-runs 256 -workers 2 -fork-heap \
  -minimize -out "$ART/crash.schedule" \
  -expect-failure -trace 0
[ -s "$ART/crash.schedule" ] || { echo "FAIL: no schedule artifact written" >&2; exit 1; }
# The campaign forked every run off one warmed snapshot; the minimized
# artifact must still reproduce from a cold start, and writing the loaded
# schedule back out must reproduce its bytes exactly.
"$STFUZZ" -replay "$ART/crash.schedule" -out "$ART/replayed.schedule" \
  -expect-failure -trace 0
cmp "$ART/crash.schedule" "$ART/replayed.schedule" ||
  { echo "FAIL: replayed schedule differs from the artifact" >&2; exit 1; }
echo "OK: fork-heap failure reproduces from scratch; artifacts in $ART"
