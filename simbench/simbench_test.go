package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"stackedsim/internal/sim"
)

// tiny shrinks a workload's window so a repetition takes milliseconds.
func tiny(w workloadDef) workloadDef {
	w.warmup, w.measure = 300, 1500
	return w
}

// TestWorkloadsSmoke builds and runs every workload on a tiny window,
// traced and untraced, and checks the run is reproducible and fully
// accounted for.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := tiny(w)
			plain, err := runRepetition(w, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRepetition(w, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []repetition{plain, traced} {
				if slices.Contains(r.fails, failError) {
					t.Fatalf("run failed: %v", r.detail)
				}
				if r.cycles != uint64(w.warmup+w.measure) {
					t.Errorf("cycles = %d, want %d", r.cycles, w.warmup+w.measure)
				}
				if r.uops == 0 || r.heap == 0 || r.allocs == 0 {
					t.Errorf("uops %d, heap %d, allocs %d: want all nonzero", r.uops, r.heap, r.allocs)
				}
			}
			if plain.digest != traced.digest {
				t.Errorf("traced digest %#x != untraced %#x", traced.digest, plain.digest)
			}
			if err := newAttribution().add(traced.profile); err != nil {
				t.Errorf("profile: %v", err)
			}
			var got []string
			for k := range traced.counters {
				got = append(got, k)
			}
			var want []string
			for k := range layerCounterUnits {
				want = append(want, k)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Errorf("counters %v, want %v", got, want)
			}
		})
	}
}

// TestTickSlotsLayoutChange pins that a registration the benchmark does
// not know about is an error rather than a mislabelled layer.
func TestTickSlotsLayoutChange(t *testing.T) {
	for _, w := range workloads {
		sys, _, _, err := build(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tickSlots(sys); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		sys.Engine.Register(sim.TickFunc(func(sim.Cycle) {}))
		if _, err := tickSlots(sys); err == nil {
			t.Errorf("%s: extra registration slot not detected", w.name)
		}
	}
}

// pb appends protobuf fields.
type pb []byte

func (p *pb) varint(field int, v uint64) {
	*p = binary.AppendUvarint(binary.AppendUvarint(*p, uint64(field)<<3), v)
}

func (p *pb) bytes(field int, b []byte) {
	*p = append(binary.AppendUvarint(binary.AppendUvarint(*p, uint64(field)<<3|2), uint64(len(b))), b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(field, q)
}

// syntheticProfile builds a CPU profile whose samples exercise each
// attribution rule; want is the CPU nanoseconds each layer must get.
func syntheticProfile() (raw []byte, want map[string]int64) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	var prof pb
	intern := func(s string) uint64 {
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		prof.bytes(1, vt)
	}
	fn := map[string]uint64{}
	for i, name := range []string{
		"runtime.mapaccess2_fast64",
		"stackedsim/internal/mem.(*PageTable).Translate",
		"stackedsim/internal/cpu.(*Core).Tick",
		"runtime.gcBgMarkWorker",
		"stackedsim/internal/noc.(*Mesh).Tick",
		"main.main",
		"stackedsim/internal/fault.(*MCView).Down",
		"stackedsim/internal/sim.(*Queue[go.shape.int]).Push",
		"stackedsim/internal/core.NewSystemFromSources.func1",
		"stackedsim/internal/coherence.(*PrivateL2).Submit",
	} {
		id := uint64(i + 1)
		fn[name] = id
		var f pb
		f.varint(1, id)
		f.varint(2, intern(name))
		prof.bytes(5, f)
	}
	// location id -> functions, innermost first.
	locs := [][]string{
		1: {"runtime.mapaccess2_fast64"},
		2: {"stackedsim/internal/mem.(*PageTable).Translate"},
		3: {"stackedsim/internal/cpu.(*Core).Tick"},
		4: {"runtime.gcBgMarkWorker"},
		// A runtime helper inlined into the mesh, then the mesh: the
		// mesh is the innermost repo frame.
		5: {"runtime.mapaccess2_fast64", "stackedsim/internal/noc.(*Mesh).Tick"},
		6: {"main.main"},
		7: {"stackedsim/internal/fault.(*MCView).Down"},
		8: {"stackedsim/internal/sim.(*Queue[go.shape.int]).Push"},
		9: {"stackedsim/internal/core.NewSystemFromSources.func1"},
		// The page table inlined into the private L2: the inlined
		// callee is the innermost frame.
		10: {"stackedsim/internal/mem.(*PageTable).Translate", "stackedsim/internal/coherence.(*PrivateL2).Submit"},
	}
	for id, fns := range locs {
		if fns == nil {
			continue
		}
		var l pb
		l.varint(1, uint64(id))
		for _, name := range fns {
			var ln pb
			ln.varint(1, fn[name])
			l.bytes(4, ln)
		}
		prof.bytes(4, l)
	}
	want = map[string]int64{}
	add := func(layer string, nanos int64, packed bool, stack ...uint64) {
		var s pb
		if packed {
			s.packed(1, stack...)
			s.packed(2, 1, uint64(nanos))
		} else {
			for _, id := range stack {
				s.varint(1, id)
			}
			s.varint(2, 1)
			s.varint(2, uint64(nanos))
		}
		prof.bytes(2, s)
		want[layer] += nanos
	}
	add("mem", 10e6, true, 1, 2, 3)    // map probe charged to its caller
	add("runtime", 20e6, true, 4)      // GC worker: no repo frame
	add("noc", 30e6, true, 5, 3)       // inlined: innermost repo line wins
	add("runtime", 40e6, false, 1, 6)  // benchmark loop: no repo frame
	add("other", 50e6, false, 7, 3)    // package outside the layer list
	add("sim", 60e6, true, 8)          // generic method
	add("core", 70e6, true, 9, 2)      // closure of the system assembly
	add("mem", 5e6, false, 2, 9, 3, 6) // leaf repo frame, callers ignored
	add("mem", 1e6, true, 1, 10)       // inlined repo frames: innermost wins
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	return prof, want
}

func TestAttributionInnermostRepoFrame(t *testing.T) {
	raw, want := syntheticProfile()
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for name, data := range map[string][]byte{"plain": raw, "gzip": gz.Bytes()} {
		a := newAttribution()
		if err := a.add(data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.samples != 9 {
			t.Errorf("%s: %d samples, want 9", name, a.samples)
		}
		for _, l := range profileLayers {
			if a.nanos[l] != want[l] {
				t.Errorf("%s: layer %s = %d ns, want %d", name, l, a.nanos[l], want[l])
			}
		}
		if a.pkgs["fault"] != 50e6 {
			t.Errorf("%s: package fault = %d ns, want it listed before folding into other", name, a.pkgs["fault"])
		}
	}
}

func TestAttributionRejectsCorruptProfile(t *testing.T) {
	raw, _ := syntheticProfile()
	if err := newAttribution().add(raw[:len(raw)-3]); err == nil {
		t.Error("truncated profile accepted")
	}
}

// TestMetricsMatchBenchmarkJSON runs each mode on a tiny window and
// checks the reported metric names and units are exactly those
// BENCHMARK.json declares, and its workloads are the ones defined here.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Why string }
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range spec.Workloads {
		names = append(names, d.Name)
		if w, ok := workloadByName(d.Name); !ok || w.why != d.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, code %q", d.Name, d.Why, w.why)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}

	var out strings.Builder
	for mode, decls := range map[bool][]decl{false: spec.EndToEnd, true: spec.PerLayer} {
		res, err := benchWorkload(tiny(workloads[0]), options{seed: 1, seconds: 0.01, trace: mode}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < minReps {
			t.Errorf("trace=%v: correct %v attempted %d", mode, res.Correct, res.Attempted)
		}
		for _, d := range decls {
			m, ok := res.Metrics[d.Name]
			if !ok {
				t.Errorf("trace=%v: metric %s not reported", mode, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s unit %q, BENCHMARK.json says %q", mode, d.Name, m.Unit, d.Unit)
			}
		}
		if len(res.Metrics) != len(decls) {
			t.Errorf("trace=%v: %d metrics reported, BENCHMARK.json declares %d", mode, len(res.Metrics), len(decls))
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"--workload", "nope"},
		{"--workload", "quad-vd", "--trace", "2"},
		{"--workload", "quad-vd", "--seconds", "0"},
		{"--workload", "quad-vd", "extra"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q on stdout", args, stdout.String())
		}
	}
}
