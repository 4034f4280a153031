// Command simbench is stackedsim's host-performance benchmark. It builds
// one of four named machines through the public core API, runs a fixed
// simulated window on one goroutine again and again for a host-time
// budget, checks every run (progress, quiesce, invariants, digest
// determinism) and prints the medians by name, with their units, as the
// last line of its output:
//
//	simbench --workload quad-vd --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it instead reports per-layer numbers: CPU time per
// stackedsim/internal package from a profiled run, and deterministic
// work counters per layer. NOTES.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+"; a comma-separated list; or all")
	seed := fs.Int64("seed", 1, "workload seed, passed as config.Seed")
	seconds := fs.Float64("seconds", 25, "host seconds to spend measuring each workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: simbench --workload <name|list|all> [--seed n] [--seconds s] [--trace 0|1]")
		return 2
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}

	fmt.Fprintln(stdout, provenance(o.seed))
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		r, err := benchWorkload(w, o, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// provenance describes the host and build a result was measured on.
func provenance(seed int64) string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("provenance: commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d",
		commit+dirty, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, seed)
}

const (
	// minReps is the fewest untraced repetitions a median is taken over.
	minReps = 3
	// setupSamples is how many extra times an untraced run times
	// core.NewSystem on its own, besides once per repetition: set-up
	// takes milliseconds, so its median needs many samples.
	setupSamples = 40
)

// benchWorkload measures one workload for o.seconds and reports its
// end-to-end metrics, or with o.trace its per-layer metrics.
func benchWorkload(w workloadDef, o options, out io.Writer) (result, error) {
	fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "window: %d warmup + %d measured cycles per run, drain budget %d cycles\n", w.warmup, w.measure, drainBudget)
	budget := time.Duration(o.seconds * float64(time.Second))
	untracedBudget := budget
	if o.trace {
		// Half the budget gives the untraced median the overhead is
		// measured against, half goes to profiled runs.
		untracedBudget = budget / 2
	}

	var reps, traced []repetition
	var setups []float64
	start := time.Now()
	for i := 0; i < setupSamples && !o.trace; i++ {
		_, _, d, err := build(w, o.seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	for len(reps) < minReps || time.Since(start) < untracedBudget {
		rep, err := runRepetition(w, o.seed, false)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, rep)
		setups = append(setups, rep.setup.Seconds())
		report(out, "run", len(reps), rep)
	}
	for o.trace && (len(traced) == 0 || time.Since(start) < budget) {
		rep, err := runRepetition(w, o.seed, true)
		if err != nil {
			return result{}, err
		}
		traced = append(traced, rep)
		report(out, "traced run", len(traced), rep)
	}

	all := append(append([]repetition(nil), reps...), traced...)
	res := result{Correct: true, Attempted: len(all), Metrics: map[string]metric{}}
	// Every repetition simulates the same machine from the same seed, so
	// all digests must equal the first; traced ones included, which is
	// the traced-vs-untraced parity check.
	for i := range all {
		if all[i].digest != all[0].digest {
			all[i].fail(failDigest, "run %d digest %#x differs from run 1's %#x", i+1, all[i].digest, all[0].digest)
		}
	}
	counts := map[string]int{}
	seen := map[string]bool{}
	for _, r := range all {
		if len(r.fails) > 0 {
			res.Failed++
		}
		for _, reason := range r.fails {
			counts[reason]++
			if reason == failError || reason == failDigest {
				res.Correct = false
			}
		}
		for _, d := range r.detail {
			if !seen[d] {
				seen[d] = true
				fmt.Fprintf(out, "  failure %s\n", abbreviate(d, 400))
			}
		}
	}
	var byReason []string
	for _, reason := range failReasons {
		if counts[reason] > 0 {
			byReason = append(byReason, fmt.Sprintf("%s %d", reason, counts[reason]))
		}
	}
	fmt.Fprintf(out, "failures: %d of %d runs failed", res.Failed, res.Attempted)
	if len(byReason) > 0 {
		fmt.Fprintf(out, " (%s)", strings.Join(byReason, ", "))
	}
	fmt.Fprintln(out)

	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !o.trace {
		set("sim_cycles_per_s", median(reps, func(r repetition) float64 { return ratio(float64(r.cycles), r.wall.Seconds()) }), "cycles/s")
		set("sim_uops_per_s", median(reps, func(r repetition) float64 { return ratio(float64(r.uops), r.wall.Seconds()) }), "uops/s")
		set("setup_s", medianOf(setups), "s")
		set("heap_mb", median(reps, func(r repetition) float64 { return float64(r.heap) / (1 << 20) }), "MB")
		set("allocs_per_kcycle", median(reps, func(r repetition) float64 { return ratio(1000*float64(r.allocs), float64(r.cycles)) }), "allocs/kcycle")
		return res, nil
	}

	attr := newAttribution()
	for _, r := range traced {
		if err := attr.add(r.profile); err != nil {
			return result{}, fmt.Errorf("%s: attributing CPU profile: %w", w.name, err)
		}
	}
	cpuTotal := attr.total()
	for _, l := range profileLayers {
		set("layer."+l+".self_s", float64(attr.nanos[l])/1e9/float64(len(traced)), "s")
		set("layer."+l+".share", ratio(float64(attr.nanos[l]), float64(cpuTotal)), "fraction")
	}
	untracedWall := median(reps, func(r repetition) float64 { return r.wall.Seconds() })
	tracedWall := median(traced, func(r repetition) float64 { return r.wall.Seconds() })
	set("trace.overhead", ratio(tracedWall, untracedWall), "ratio")
	set("trace.samples", float64(attr.samples), "count")
	set("runtime.gc_cpu_s", median(traced, func(r repetition) float64 { return r.gcCPU }), "s")
	for k, v := range traced[len(traced)-1].counters {
		set(k, v, layerCounterUnits[k])
	}
	reportLayers(out, attr, ratio(tracedWall, untracedWall))
	return res, nil
}

// report prints one repetition's line: its host cost and the simulated
// outputs (HMIPC, committed μops, digest), which are printed, not gated.
func report(out io.Writer, kind string, n int, r repetition) {
	status := "ok"
	if len(r.fails) > 0 {
		status = "FAIL " + strings.Join(r.fails, ",")
	}
	fmt.Fprintf(out, "%s %d: setup %.2fms wall %.3fs cycles %d (%.0f/s) uops %d (%.0f/s) allocs %d heap %.1fMB hmipc %.4f digest %#016x drain %d %s\n",
		kind, n, 1000*r.setup.Seconds(), r.wall.Seconds(), r.cycles, float64(r.cycles)/r.wall.Seconds(),
		r.uops, float64(r.uops)/r.wall.Seconds(), r.allocs, float64(r.heap)/(1<<20), r.hmipc, r.digest, r.drain, status)
}

// reportLayers prints the CPU profile broken down by package, largest
// first, including the packages folded into "other".
func reportLayers(out io.Writer, a *attribution, overhead float64) {
	total := a.total()
	fmt.Fprintf(out, "profile: %d samples, %.3fs CPU, traced/untraced wall %.3f\n", a.samples, float64(total)/1e9, overhead)
	pkgs := make([]string, 0, len(a.pkgs))
	for p := range a.pkgs {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return a.pkgs[pkgs[i]] > a.pkgs[pkgs[j]] })
	for _, p := range pkgs {
		fmt.Fprintf(out, "  %-10s %6.2f%%  %.3fs  (layer %s)\n", p, 100*ratio(float64(a.pkgs[p]), float64(total)), float64(a.pkgs[p])/1e9, layerOf(p))
	}
}

// median is the median of f over reps.
func median(reps []repetition, f func(repetition) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	return medianOf(vs)
}

func medianOf(vs []float64) float64 {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func abbreviate(s string, n int) string {
	s = strings.ReplaceAll(s, "\n", "; ")
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
