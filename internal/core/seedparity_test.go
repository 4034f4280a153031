package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/workload"
)

// TestSeedModeBitIdentical pins the seed organizations — shared L2,
// bus interconnect, no coherence fabric — to golden digests and
// metrics recorded before the many-core subsystem landed. The
// directory/mesh machinery must be invisible until asked for: any
// drift here means a coherent-mode change leaked into the default
// path, and the ledger keys of every recorded run silently moved.
func TestSeedModeBitIdentical(t *testing.T) {
	golden := []struct {
		make      func() *config.Config
		digest    uint64
		hmipc     string // %.9f — exact decimal pin, no epsilon
		l2miss    string
		dramReads uint64
	}{
		{config.Baseline2D, 0x079177f66e49abc3, "0.089610730", "0.974371144", 3299},
		{config.Fast3D, 0xc75c7fb034a8bdc6, "0.187181070", "0.933325360", 5922},
		{config.QuadMC, 0xa3c9ebd4306cb2f3, "0.222395537", "0.809006836", 6992},
	}
	mix, ok := workload.MixByName("H1")
	if !ok {
		t.Fatal("mix H1 missing")
	}
	for _, g := range golden {
		cfg := g.make()
		cfg.WarmupCycles = 20_000
		cfg.MeasureCycles = 60_000
		t.Run(cfg.Name, func(t *testing.T) {
			sys, err := NewSystem(cfg, mix.Benchmarks[:])
			if err != nil {
				t.Fatal(err)
			}
			m := sys.Run()
			if d := sys.Digest(); d != g.digest {
				t.Errorf("digest %#x, golden %#x", d, g.digest)
			}
			if got := fmt.Sprintf("%.9f", m.HMIPC); got != g.hmipc {
				t.Errorf("HMIPC %s, golden %s", got, g.hmipc)
			}
			if got := fmt.Sprintf("%.9f", m.L2MissRate); got != g.l2miss {
				t.Errorf("L2 miss rate %s, golden %s", got, g.l2miss)
			}
			if m.DRAMReads != g.dramReads {
				t.Errorf("DRAM reads %d, golden %d", m.DRAMReads, g.dramReads)
			}
		})
	}
}

// TestCoherentModeBitIdentical pins the directory-MESI/mesh machine to
// golden digests recorded before the engine's armed-set step, the
// calendar-ring event queue and the occupied-port mesh walk landed (the
// producer-consumer row was recorded again once the directory stopped
// stranding deferred requests, which changed that run).
// TestTickSchedulingParity compares two scheduling modes of one build,
// so it cannot see a change that reorders events identically in both;
// these pins can. Besides the digest and HMIPC they pin the engine's
// own work counters — ticks delivered per component and cycles
// skipped — so a scheduler that ticks a component on a different cycle
// fails here even where the simulated results happen to agree.
func TestCoherentModeBitIdentical(t *testing.T) {
	golden := []struct {
		cores   int
		bench   string
		warmup  int64
		measure int64
		digest  uint64
		hmipc   string // %.9f
		ticks   uint64 // FNV-1a over TicksByComponent
		skipped uint64
	}{
		{16, "producer-consumer", 5_000, 20_000, 0x5872d08e18c74ef7, "0.025424389", 0xcabe1ce0d50b26ca, 62},
		{64, "mcf", 2_000, 8_000, 0x8487fab9c71b6841, "0.099354248", 0x164a1ac873931e3c, 29},
	}
	for _, g := range golden {
		cfg := config.ManyCore(g.cores, 4)
		cfg.WarmupCycles = g.warmup
		cfg.MeasureCycles = g.measure
		t.Run(cfg.Name+"/"+g.bench, func(t *testing.T) {
			benches := make([]string, cfg.Cores)
			for i := range benches {
				benches[i] = g.bench
			}
			sys, err := NewSystem(cfg, benches)
			if err != nil {
				t.Fatal(err)
			}
			m := sys.Run()
			if d := sys.Digest(); d != g.digest {
				t.Errorf("digest %#x, golden %#x", d, g.digest)
			}
			if got := fmt.Sprintf("%.9f", m.HMIPC); got != g.hmipc {
				t.Errorf("HMIPC %s, golden %s", got, g.hmipc)
			}
			var buf []byte
			for _, n := range sys.Engine.TicksByComponent() {
				buf = binary.LittleEndian.AppendUint64(buf, n)
			}
			h := fnv.New64a()
			h.Write(buf) // a hash.Hash never returns an error
			if got := h.Sum64(); got != g.ticks {
				t.Errorf("per-component tick hash %#x, golden %#x", got, g.ticks)
			}
			if got := sys.Engine.CyclesSkipped(); got != g.skipped {
				t.Errorf("cycles skipped %d, golden %d", got, g.skipped)
			}
		})
	}
}
