#!/usr/bin/env bash
# Builds simbench from this checkout's sources and runs it, passing every
# argument through, e.g. from the root of the checkout:
#
#   bash simbench/run.sh --workload quad-vd --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files all
# stay under .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/simbench" .)
# madvdontneed=0 makes the Go runtime return freed heap memory with
# MADV_FREE, so the next run's set-up reuses pages the kernel still holds
# instead of faulting fresh ones in. On a shared VM those page faults made
# repeated set-up times vary by about 35% within a run and shift by 20%
# between runs; with MADV_FREE set-up measures the construction work.
GODEBUG=madvdontneed=0 exec "$out/simbench" "$@"
