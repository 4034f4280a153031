package main

import (
	"fmt"
	"strings"

	"stackedsim/internal/config"
	"stackedsim/internal/workload"
)

// workloadDef is one named machine shape and input: a config preset,
// the benchmark run on each core, and the simulated window of one
// repetition. Windows are sized so one repetition takes about one to
// four host-seconds on a 2-vCPU host, so a 25-second run takes the
// median of several.
type workloadDef struct {
	name    string
	why     string
	config  func() *config.Config
	benches func(cfg *config.Config) []string
	warmup  int64 // cycles
	measure int64 // cycles
}

// workloads are run in this order by "--workload all". NOTES.md records
// why each was chosen and which layer metrics it is meant to move.
var workloads = []workloadDef{
	{
		name:    "quad-vd",
		why:     "paper section 5 V+D endpoint: 4-core VH1 on quadMC with 8x VBF MSHRs and dynamic resizing; memory-saturated, no coherence or mesh",
		config:  func() *config.Config { return config.QuadMC().WithMSHR(8, config.MSHRVBF, true) },
		benches: mix("VH1"),
		warmup:  100_000,
		measure: 400_000,
	},
	{
		name:    "mesh64-mcf",
		why:     "64-core directory MESI over a mesh, mcf on every core with private data: engine, coherence and mesh at scale",
		config:  func() *config.Config { return config.ManyCore(64, 4) },
		benches: uniform("mcf"),
		warmup:  20_000,
		measure: 80_000,
	},
	{
		name:    "mesh16-prodcons",
		why:     "16-core MESI with producer-consumer sharing: cache-to-cache transfers and invalidations, where the known liveness bug shows",
		config:  func() *config.Config { return config.ManyCore(16, 4) },
		benches: uniform("producer-consumer"),
		// Half a million cycles, as in the probe that characterised this
		// workload; shorter windows end with no line stranded far more
		// often, which would hide the liveness bug.
		warmup:  100_000,
		measure: 400_000,
	},
	{
		name:    "2d-mcf",
		why:     "mcf alone on the 2D baseline (Table 2a method): the one workload where the idle-skip path does most of the work",
		config:  config.Baseline2D,
		benches: func(*config.Config) []string { return []string{"mcf"} },
		warmup:  1_000_000,
		measure: 5_000_000,
	},
}

// mix runs a Table 2b mix, one benchmark per core.
func mix(name string) func(*config.Config) []string {
	return func(*config.Config) []string {
		m, ok := workload.MixByName(name)
		if !ok {
			panic("simbench: unknown mix " + name)
		}
		return m.Benchmarks[:]
	}
}

// uniform runs the same benchmark on every core.
func uniform(bench string) func(*config.Config) []string {
	return func(cfg *config.Config) []string {
		out := make([]string, cfg.Cores)
		for i := range out {
			out[i] = bench
		}
		return out
	}
}

// selectWorkloads resolves the --workload argument: one name, a
// comma-separated list, or "all".
func selectWorkloads(arg string) ([]workloadDef, error) {
	if arg == "all" {
		return workloads, nil
	}
	var out []workloadDef
	for _, name := range strings.Split(arg, ",") {
		w, ok := workloadByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s, or all)", name, strings.Join(workloadNames(), ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
