#!/usr/bin/env sh
# Tier-1 verification for stackedsim.
#
# Extends the baseline `go build ./... && go test ./...` gate with vet
# and a race-detector pass over the packages that carry cross-cutting
# state: the simulation engine, the telemetry layer (whose sampler and
# tracer observe every component), the monitor (HTTP handlers reading
# snapshots the simulation goroutine publishes), the attribution layer,
# and the experiment harness (whose Runner fans simulations over a
# worker pool; the concurrent-caller and parity tests only bite under
# -race). Core runs -short to skip the real-window stability sweep,
# which the plain pass already covers; the -short pass also exercises
# the robustness tests (cancellation, per-run deadlines, panic
# isolation, checkpoint/resume) under the race detector, where a data
# race between a cancelled worker and the collector would surface.
# internal/fault rides along because its views are shared with every
# memory component a run touches, and internal/stackcache because its
# layer sits on the hot path between the L2 and every controller.
# internal/power and internal/thermal feed the power/thermal tracker
# whose summary the monitor serves from handler goroutines, so they run
# under the race detector alongside it. internal/mem and internal/mshr
# carry the pooled request / MSHR-entry free lists: their lifecycle
# tests (reuse, double-release panics) run here so a pooling bug that
# only manifests with the race detector's reordering still fails
# tier-1. internal/ledger joins the race pass because the Runner's
# workers record runs into one shared store (the O_APPEND index and
# tag writes are mutex-guarded) while monitor handlers read it.
# internal/farm joins because the coordinator serves concurrent HTTP
# handlers over one job table and the worker runs a heartbeat
# goroutine beside the simulating one; the failover and
# kill-worker-mid-run tests only bite under -race.
# internal/coherence and internal/noc join because the directory
# protocol suite asserts no-lost-writeback invariants whose bookkeeping
# (pooled messages, deferred queues, writeback buffers) would corrupt
# subtly under reordering; the suite is required to pass under -race.
# The benchmark module in simbench/ is outside the root module, so its
# tests run as a separate step: they pin NewSystem's tick-registration
# layout, which the benchmark's per-layer tick counts rely on, so a
# change to that order fails here rather than only when benchmarking.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./internal/telemetry/... ./internal/sim/... ./internal/monitor/... ./internal/ledger/... ./internal/farm/... ./internal/attrib/... ./internal/fault/... ./internal/stackcache/... ./internal/power/... ./internal/thermal/... ./internal/mem/... ./internal/mshr/... ./internal/coherence/... ./internal/noc/..."
go test -race ./internal/telemetry/... ./internal/sim/... ./internal/monitor/... ./internal/ledger/... ./internal/farm/... ./internal/attrib/... ./internal/fault/... ./internal/stackcache/... ./internal/power/... ./internal/thermal/... ./internal/mem/... ./internal/mshr/... ./internal/coherence/... ./internal/noc/...

echo "== go test -race -short ./internal/core/..."
go test -race -short ./internal/core/...

echo "== (cd simbench && GOWORK=off go test ./...)"
(cd simbench && GOWORK=off go test ./...)

echo "verify: OK"
