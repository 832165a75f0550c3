#!/bin/sh
# Repo lint gate: formatting, go vet, the custom analyzers (cmd/stlint),
# the static prog-IR verifier (stsim -lint), and a check that every CLI
# flag is documented.
#
# The custom analyzers are run through cmd/stlint, a standalone binary
# built on go/ast alone, rather than through `go vet -vettool=...`: the
# vettool protocol requires golang.org/x/tools/go/analysis, and this repo
# is deliberately dependency-free (no module cache in the build image).
# stlint walks the same source tree and fails the same way, so the gate
# is equivalent; if x/tools ever becomes available, each analyzer's Run
# function ports directly onto analysis.Pass.
set -e

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== stlint (statesem, simclock, metrichandle, effectdecl) =="
go run ./cmd/stlint -root .

echo "== stsim -lint -dataflow (prog-IR verifier + dataflow facts) =="
# The dataflow pass prints each operation's fact table and scan track
# mask, and fails (exit 1) when any operation has no facts or degenerates
# to Top everywhere — i.e. scan elision silently fell back to full scans.
# Set DATAFLOW_REPORT to also keep the listing as a file (CI uploads it
# as an artifact so mask regressions are diffable across runs).
# (No `| tee`: a pipeline would hide stsim's exit code from set -e.)
if [ -n "${DATAFLOW_REPORT:-}" ]; then
    go run ./cmd/stsim -lint -dataflow >"$DATAFLOW_REPORT" || { cat "$DATAFLOW_REPORT"; exit 1; }
    cat "$DATAFLOW_REPORT"
else
    go run ./cmd/stsim -lint -dataflow
fi

echo "== flag documentation (stbench, stsim, stfuzz) =="
# Every flag a command lists under -h must be named in README.md,
# EXPERIMENTS.md, DESIGN.md or a script: a flag no documented workflow,
# gate or experiment uses goes instead of lingering unread.
undocumented=
for tool in stbench stsim stfuzz; do
    for f in $(go run "./cmd/$tool" -h 2>&1 | sed -n 's/^  -\([a-z][a-z0-9-]*\).*/\1/p'); do
        grep -qE -- "(^|[^a-zA-Z0-9-])-$f([^a-zA-Z0-9-]|\$)" README.md EXPERIMENTS.md DESIGN.md scripts/*.sh ||
            undocumented="$undocumented $tool:-$f"
    done
done
if [ -n "$undocumented" ]; then
    echo "flags named in no README/EXPERIMENTS/DESIGN/script:$undocumented" >&2
    exit 1
fi

echo "lint: all clean"
