package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"stackedsim/internal/core"
)

// drainBudget is how many cycles DrainQuiesce may take after the
// measured window. With their front ends halted, the healthy workloads
// drain in under 2,000 cycles (1,745 on quad-vd, the slowest); a machine
// that needs ten times that is stuck.
const drainBudget = 20_000

// Failure reasons, in report order.
const (
	failError     = "error"     // RunContext returned an error or the run panicked
	failProgress  = "progress"  // an active core committed nothing in the measured window
	failLiveness  = "liveness"  // DrainQuiesce did not quiesce within drainBudget
	failInvariant = "invariant" // CheckInvariants reported an error
	failDigest    = "digest"    // Digest differed from an earlier repetition of the same run
)

var failReasons = []string{failError, failProgress, failLiveness, failInvariant, failDigest}

// repetition is one build-run-check cycle of a workload.
type repetition struct {
	setup  time.Duration // core.NewSystem
	wall   time.Duration // System.RunContext, warmup plus measure
	cycles uint64        // simulated cycles RunContext advanced
	uops   uint64        // μops committed on all cores during RunContext
	allocs uint64        // heap allocations during RunContext
	heap   uint64        // live heap bytes after the run, System reachable
	gcCPU  float64       // GC CPU seconds during RunContext

	hmipc  float64
	digest uint64
	drain  uint64 // cycles DrainQuiesce ran

	fails  []string // failure reasons; empty when the run passed
	detail []string // one line per failure, for the report

	// Set on traced repetitions only.
	profile  []byte             // CPU profile of RunContext
	counters map[string]float64 // per-layer work counters
}

func (r *repetition) fail(reason, format string, args ...any) {
	r.fails = append(r.fails, reason)
	r.detail = append(r.detail, reason+": "+fmt.Sprintf(format, args...))
}

// runRepetition builds the workload's machine, runs its window and
// checks the result. Simulator failures are recorded on the repetition;
// the error is reserved for faults of the benchmark itself, such as a
// machine whose tick layout it cannot account for.
func runRepetition(w workloadDef, seed int64, traced bool) (rep repetition, err error) {
	defer func() {
		if p := recover(); p != nil {
			if traced {
				pprof.StopCPUProfile()
			}
			rep.fail(failError, "panic: %v\n%s", p, debug.Stack())
		}
	}()
	sys, benches, setup, err := build(w, seed)
	rep.setup = setup
	if err != nil {
		return rep, err
	}
	slots, err := tickSlots(sys)
	if err != nil {
		return rep, fmt.Errorf("%s: %w", w.name, err)
	}

	var prof bytes.Buffer
	allocs0, gc0 := allocCount(), gcCPUSeconds()
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	t1 := time.Now()
	m, runErr := sys.RunContext(context.Background())
	rep.wall = time.Since(t1)
	if traced {
		pprof.StopCPUProfile()
		rep.profile = prof.Bytes()
	}
	rep.allocs = allocCount() - allocs0
	rep.gcCPU = gcCPUSeconds() - gc0
	rep.cycles = uint64(sys.Engine.Now())
	for _, c := range sys.Cores {
		rep.uops += c.Committed()
	}
	if runErr != nil {
		rep.fail(failError, "RunContext: %v", runErr)
	}
	rep.hmipc = m.HMIPC
	rep.digest = sys.Digest()
	for i, c := range sys.Cores {
		if c.Stats().Committed == 0 {
			rep.fail(failProgress, "core %d (%s) committed 0 μops in the %d-cycle measured window", i, benches[i], w.measure)
		}
	}
	if traced {
		rep.counters = layerCounters(sys, slots)
	}

	// sys is used below, so the live heap measured here includes it.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.heap = ms.HeapAlloc

	before := sys.Engine.Now()
	quiesced := sys.DrainQuiesce(drainBudget)
	rep.drain = uint64(sys.Engine.Now() - before)
	if !quiesced {
		rep.fail(failLiveness, "DrainQuiesce(%d) did not quiesce", drainBudget)
	}
	if err := sys.CheckInvariants(); err != nil {
		rep.fail(failInvariant, "%v", err)
	}
	return rep, nil
}

// build constructs the workload's machine and times core.NewSystem.
// The collector is paused while it runs: starting from a collected heap,
// construction would otherwise trigger GC cycles whose cost depends on the
// benchmark's own heap state, and they made set-up time vary by 20% from
// minute to minute. The heap is collected again afterwards, so every run
// starts from a collected heap holding only its machine.
func build(w workloadDef, seed int64) (*core.System, []string, time.Duration, error) {
	cfg := w.config()
	cfg.Seed = seed
	cfg.WarmupCycles = w.warmup
	cfg.MeasureCycles = w.measure
	benches := w.benches(cfg)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	sys, err := core.NewSystem(cfg, benches)
	d := time.Since(t0)
	runtime.GC()
	if err != nil {
		return nil, nil, d, fmt.Errorf("%s: NewSystem: %w", w.name, err)
	}
	return sys, benches, d, nil
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// allocCount reports the cumulative number of heap objects allocated.
func allocCount() uint64 {
	metrics.Read(runtimeSamples[:1])
	return runtimeSamples[0].Value.Uint64()
}

// gcCPUSeconds reports the runtime's cumulative estimate of CPU time
// spent in the garbage collector.
func gcCPUSeconds() float64 {
	metrics.Read(runtimeSamples[1:])
	return runtimeSamples[1].Value.Float64()
}
