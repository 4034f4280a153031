package main

import (
	"fmt"

	"stackedsim/internal/core"
)

// tickLayers are the layers that own engine registration slots in the
// four workloads; sim.ticks.<layer> is reported for each.
var tickLayers = []string{"cpu", "cache", "coherence", "noc", "memctrl", "mshr"}

// tickSlots names the layer of every slot in sys.Engine.TicksByComponent,
// in the order core.NewSystem registers them: cores, DL1s, IL1s, then
// either the coherence fabric (private L2s, directory banks, mesh) or the
// shared L2, then the stack cache, the memory controllers, the off-chip
// backing controller and the MSHR resizer. If the engine holds a
// different number of slots, NewSystem's layout changed and the mapping
// would mislabel layers, so it is an error.
func tickSlots(sys *core.System) ([]string, error) {
	var slots []string
	add := func(layer string, n int) {
		for i := 0; i < n; i++ {
			slots = append(slots, layer)
		}
	}
	add("cpu", len(sys.Cores))
	add("cache", len(sys.L1s)+len(sys.IL1s))
	if sys.Coh != nil {
		add("coherence", sys.Cfg.Cores) // private L2s
		add("coherence", sys.Cfg.MCs)   // directory banks, one per MC
		add("noc", 1)
	} else {
		add("cache", 1) // shared L2
	}
	if sys.Stack != nil {
		add("stackcache", 1)
	}
	add("memctrl", len(sys.MCs))
	if sys.Backing != nil {
		add("memctrl", 1)
	}
	if sys.Resizer != nil {
		add("mshr", 1)
	}
	if n := len(sys.Engine.TicksByComponent()); n != len(slots) {
		return nil, fmt.Errorf("engine has %d tick slots but the benchmark accounts for %d: "+
			"core.NewSystem's registration order changed, update tickSlots", n, len(slots))
	}
	return slots, nil
}

// layerCounterUnits lists the deterministic per-layer work counters
// layerCounters reports, with their units. Counts are normalised per
// 1000 simulated cycles of the measured window (engine ticks per 1000
// cycles since construction).
var layerCounterUnits = func() map[string]string {
	u := map[string]string{
		"sim.ticks_per_cycle":             "ticks/cycle",
		"sim.skip_ratio":                  "fraction",
		"cpu.rob_stall_frac":              "fraction",
		"cache.l1_miss_rate":              "fraction",
		"cache.l2_miss_rate":              "fraction",
		"mshr.probes_per_access":          "probes",
		"mshr.alloc_fails_per_kcycle":     "1/kcycle",
		"coherence.c2c_per_kcycle":        "1/kcycle",
		"coherence.inv_per_kcycle":        "1/kcycle",
		"coherence.deferred_per_kcycle":   "1/kcycle",
		"noc.flits_per_kcycle":            "1/kcycle",
		"noc.avg_latency":                 "cycles",
		"noc.reject_ratio":                "fraction",
		"noc.link_stalls_per_kcycle":      "1/kcycle",
		"memctrl.row_hit_rate":            "fraction",
		"memctrl.reject_ratio":            "fraction",
		"memctrl.queue_cycles_per_access": "cycles",
		"dram.activates_per_kcycle":       "1/kcycle",
		"bus.utilization":                 "fraction",
		"mem.pool_hit_rate":               "fraction",
	}
	for _, l := range tickLayers {
		u["sim.ticks."+l] = "1/kcycle"
	}
	return u
}()

// layerCounters reads the layer counters of a system that has just
// finished RunContext (statistics cover the measured window).
func layerCounters(sys *core.System, slots []string) map[string]float64 {
	// Counters a machine lacks, such as noc.* without a mesh, read 0.
	out := make(map[string]float64, len(layerCounterUnits))
	for k := range layerCounterUnits {
		out[k] = 0
	}
	measured := float64(sys.Cfg.MeasureCycles)
	perK := func(n uint64) float64 { return ratio(1000*float64(n), measured) }

	eng := sys.EngineReport()
	out["sim.ticks_per_cycle"] = eng.TicksPerCycle
	out["sim.skip_ratio"] = eng.SkipRatio
	out["mem.pool_hit_rate"] = eng.PoolHitRate
	for i, n := range sys.Engine.TicksByComponent() {
		out["sim.ticks."+slots[i]] += ratio(1000*float64(n), float64(eng.Cycles))
	}

	var robStall, coreCycles uint64
	for _, c := range sys.Cores {
		st := c.Stats()
		robStall += st.ROBStall
		coreCycles += st.Cycles
	}
	out["cpu.rob_stall_frac"] = ratio(float64(robStall), float64(coreCycles))

	var l1Miss, l1Acc uint64
	for _, l1 := range sys.L1s {
		st := l1.Stats()
		l1Miss += st.Misses
		l1Acc += st.Loads + st.Stores
	}
	out["cache.l1_miss_rate"] = ratio(float64(l1Miss), float64(l1Acc))

	var probes, lookups, allocFails uint64
	if sys.L2 != nil {
		st := sys.L2.Stats()
		out["cache.l2_miss_rate"] = ratio(float64(st.Accesses-st.Hits), float64(st.Accesses))
		for _, f := range sys.L2.MSHRBanks() {
			fs := f.Stats()
			probes += fs.Probes
			lookups += fs.Accesses
			allocFails += fs.AllocFails
		}
	}
	out["mshr.probes_per_access"] = ratio(float64(probes), float64(lookups))
	out["mshr.alloc_fails_per_kcycle"] = perK(allocFails)

	if sys.Coh != nil {
		cs := sys.Coh.Stats()
		out["cache.l2_miss_rate"] = cs.MissRate()
		out["coherence.c2c_per_kcycle"] = perK(cs.C2CTransfers)
		out["coherence.inv_per_kcycle"] = perK(cs.Invalidations)
		out["coherence.deferred_per_kcycle"] = perK(cs.Deferred)
		ns := sys.Coh.Mesh().Stats()
		out["noc.flits_per_kcycle"] = perK(ns.Flits)
		out["noc.avg_latency"] = ns.AvgLatency()
		out["noc.reject_ratio"] = ratio(float64(ns.Rejected), float64(ns.Injected+ns.Rejected))
		out["noc.link_stalls_per_kcycle"] = perK(ns.LinkStalls)
	}

	var submitted, rejected, accesses, rowHits, queueCycles, activates, busy uint64
	for i, mc := range sys.MCs {
		st := mc.Stats()
		submitted += st.Submitted
		rejected += st.Rejected
		accesses += st.Reads + st.Writes
		rowHits += st.RowHits
		queueCycles += st.QueueCycles
		for _, rank := range mc.Ranks() {
			for _, bank := range rank.Banks {
				activates += bank.Stats().Activates
			}
		}
		busy += sys.Buses[i].Stats().BusyCycles
	}
	out["memctrl.row_hit_rate"] = ratio(float64(rowHits), float64(accesses))
	out["memctrl.reject_ratio"] = ratio(float64(rejected), float64(submitted+rejected))
	out["memctrl.queue_cycles_per_access"] = ratio(float64(queueCycles), float64(accesses))
	out["dram.activates_per_kcycle"] = perK(activates)
	out["bus.utilization"] = ratio(float64(busy), measured*float64(len(sys.Buses)))
	return out
}

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
