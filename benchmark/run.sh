#!/bin/sh
# Builds the host-speed benchmark from source and runs it. Run it from
# the repository root:
#
#   sh benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is its
#       JSON result, the metric table goes to standard error
#   sh benchmark/run.sh OUT
#       every workload: REPS untraced runs (seeds 1..REPS, default 5) and
#       one traced run, recorded in OUT/untraced.jsonl and OUT/traced.jsonl
#   sh benchmark/run.sh -compare A.jsonl B.jsonl
#
# Everything the build and the runs write, the Go build cache included,
# stays in .bench_build/ under the repository root.
set -eu

if [ ! -f BENCHMARK.json ] || [ ! -d benchmark ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp" \
	PPROF_TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd benchmark && go build -o "$build/benchmark" .)

if [ $# -eq 1 ] && [ "${1#-}" = "$1" ]; then
	out=$1
	mkdir -p "$out"
	for w in paper-sweep tx-scan plain-oversub fuzz-campaign; do
		seed=1
		while [ "$seed" -le "${REPS:-5}" ]; do
			echo "== $w seed $seed" >&2
			"$build/benchmark" -workload "$w" -seed "$seed" -out "$out/untraced.jsonl" >/dev/null
			seed=$((seed + 1))
		done
		echo "== $w traced" >&2
		"$build/benchmark" -workload "$w" -seed 1 -trace 1 -out "$out/traced.jsonl" >/dev/null
	done
	exit 0
fi
exec "$build/benchmark" "$@"
