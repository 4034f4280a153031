package coherence

import (
	"fmt"
	"testing"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// EntryState reports a line's directory state ("I" when absent).
func (d *Directory) EntryState(line mem.Addr) string {
	if e, ok := d.lines[line]; ok {
		return e.state.String()
	}
	return "I"
}

// State reports a line's stable state (0 = Invalid).
func (p *PrivateL2) State(line mem.Addr) pstate { return p.states[line] }

// testMC is a fixed-latency memory stand-in behind one directory bank.
type testMC struct {
	events  sim.EventQueue
	lat     sim.Cycle
	reads   int
	writes  int
	rejects int // reject this many submissions first (retry-path tests)
}

func (m *testMC) Submit(r *mem.Request, now sim.Cycle) bool {
	if m.rejects > 0 {
		m.rejects--
		return false
	}
	if r.Kind == mem.Writeback {
		m.writes++
		m.events.At(now+m.lat, func() {})
		r.Complete(now) // writes ack immediately; latency is irrelevant here
		return true
	}
	m.reads++
	m.events.AtCall(now+m.lat, func(arg any, at sim.Cycle) { arg.(*mem.Request).Complete(at) }, r)
	return true
}

func (m *testMC) Tick(now sim.Cycle) { m.events.FireDue(now) }

// rig is a minimal coherent machine: real private L2s, directories and
// mesh; real L1s above; stub memory below.
type rig struct {
	eng *sim.Engine
	f   *Fabric
	l1s []*cache.L1
	mcs []*testMC
	cfg *config.Config
}

func newRig(t *testing.T, cores, mcs int) *rig {
	t.Helper()
	cfg := config.ManyCore(cores, mcs)
	cfg.L1Prefetch = false // keep traffic exactly what the test issues
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	amap := mem.AddrMap{
		LineBytes: cfg.LineBytes, PageBytes: cfg.PageBytes,
		MCs: mcs, RanksPerMC: cfg.RanksPerMC(), Banks: cfg.BanksPerRank,
	}
	if err := amap.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &rig{eng: sim.NewEngine(), cfg: cfg}
	ids := &mem.IDSource{}
	ports := make([]cache.Port, mcs)
	for i := range ports {
		mc := &testMC{lat: 40}
		r.mcs = append(r.mcs, mc)
		ports[i] = mc
	}
	r.f = New(Params{Cfg: cfg, AMap: amap, MCs: ports, IDs: ids})
	for c := 0; c < cores; c++ {
		l2 := r.f.L2(c)
		dl1 := cache.NewL1(cache.L1Params{
			Core:      c,
			Array:     cache.NewArrayBySize(fmt.Sprintf("tl1.%d", c), 4096, 4, cfg.LineBytes),
			Latency:   3,
			LineBytes: cfg.LineBytes,
			MSHRs:     8,
			Below:     l2,
			IDs:       ids,
			StoreHint: l2.StoreHint,
		})
		il1 := cache.NewL1(cache.L1Params{
			Core:      c,
			Array:     cache.NewArrayBySize(fmt.Sprintf("til1.%d", c), 4096, 4, cfg.LineBytes),
			Latency:   3,
			LineBytes: cfg.LineBytes,
			MSHRs:     8,
			Below:     l2,
			IDs:       ids,
		})
		l2.SetL1s(dl1, il1)
		r.l1s = append(r.l1s, dl1)
	}
	for _, l1 := range r.l1s {
		l1.SetHandle(r.eng.RegisterEvery(1, 0, l1))
	}
	r.f.Register(r.eng)
	for _, mc := range r.mcs {
		r.eng.RegisterEvery(1, 0, mc)
	}
	return r
}

// access schedules a load or store on a core's L1 at the given cycle,
// retrying while blocked, and returns a pointer that becomes true when
// the access completes.
func (r *rig) access(core int, at sim.Cycle, addr mem.Addr, store bool) *bool {
	done := new(bool)
	var try func()
	try = func() {
		now := r.eng.Now()
		switch r.l1s[core].Access(now, 0x400, addr, store, func(sim.Cycle) { *done = true }) {
		case cache.Hit:
			*done = true
		case cache.Blocked:
			r.eng.Schedule(now+1, try)
		}
	}
	r.eng.Schedule(at, try)
	return done
}

const line0 = mem.Addr(0x1000)

func (r *rig) run(n sim.Cycle) { r.eng.Run(n) }

func TestReadMissGrantsExclusive(t *testing.T) {
	r := newRig(t, 4, 1)
	done := r.access(0, 1, line0, false)
	// While the memory read is outstanding the home bank must sit in
	// the BusyMemS transient.
	seen := false
	r.eng.Schedule(20, func() {
		if r.f.dirs[0].EntryState(line0) == "BusyMemS" {
			seen = true
		}
	})
	r.run(200)
	if !*done {
		t.Fatal("load never completed")
	}
	if !seen {
		t.Errorf("BusyMemS not observed mid-flight (state at 20 was %s)", r.f.dirs[0].EntryState(line0))
	}
	if st := r.f.L2(0).State(line0); st != psExcl {
		t.Errorf("lone reader state = %d, want E", st)
	}
	if st := r.f.dirs[0].EntryState(line0); st != "M" {
		t.Errorf("directory state = %s, want M (ownership granted)", st)
	}
	if r.mcs[0].reads != 1 {
		t.Errorf("memory reads = %d, want 1", r.mcs[0].reads)
	}
}

func TestSecondReaderForcesDemotion(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, false)
	done := r.access(1, 200, line0, false)
	seen := false
	probe := func() {
		if r.f.dirs[0].EntryState(line0) == "BusyFwdS" {
			seen = true
		}
	}
	for c := sim.Cycle(201); c < 260; c++ {
		r.eng.Schedule(c, probe)
	}
	r.run(600)
	if !*done {
		t.Fatal("second load never completed")
	}
	if !seen {
		t.Error("BusyFwdS not observed while the forward was in flight")
	}
	if st := r.f.L2(0).State(line0); st != psShared {
		t.Errorf("previous owner state = %d, want S", st)
	}
	if st := r.f.L2(1).State(line0); st != psShared {
		t.Errorf("requester state = %d, want S", st)
	}
	if st := r.f.dirs[0].EntryState(line0); st != "S" {
		t.Errorf("directory state = %s, want S", st)
	}
	if r.f.L2(0).Stats().FwdServed != 1 {
		t.Errorf("FwdServed = %d, want 1 (cache-to-cache read)", r.f.L2(0).Stats().FwdServed)
	}
	// The clean demotion (E) must not have written memory.
	if r.mcs[0].writes != 0 {
		t.Errorf("memory writes = %d, want 0 for a clean demotion", r.mcs[0].writes)
	}
}

func TestWriteMissInvalidatesSharers(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, false)
	r.access(1, 200, line0, false)
	done := r.access(2, 500, line0, true)
	seenInv, seenMemM := false, false
	probe := func() {
		switch r.f.dirs[0].EntryState(line0) {
		case "BusyInv":
			seenInv = true
		case "BusyMemM":
			seenMemM = true
		}
	}
	for c := sim.Cycle(501); c < 620; c++ {
		r.eng.Schedule(c, probe)
	}
	r.run(1000)
	if !*done {
		t.Fatal("store never completed")
	}
	if !seenInv {
		t.Error("BusyInv not observed while invalidations were outstanding")
	}
	if !seenMemM {
		t.Error("BusyMemM not observed after the acks (non-sharer needs data)")
	}
	if st := r.f.dirs[0].EntryState(line0); st != "M" {
		t.Errorf("directory state = %s, want M", st)
	}
	if st := r.f.L2(2).State(line0); st != psModified {
		t.Errorf("writer state = %d, want M", st)
	}
	for c := 0; c < 2; c++ {
		if st := r.f.L2(c).State(line0); st != 0 {
			t.Errorf("core %d state = %d, want I after invalidation", c, st)
		}
		if r.f.L2(c).Stats().InvRecv != 1 {
			t.Errorf("core %d InvRecv = %d, want 1", c, r.f.L2(c).Stats().InvRecv)
		}
	}
	if acks := r.f.dirs[0].Stats().InvAcks; acks != 2 {
		t.Errorf("InvAcks = %d, want 2", acks)
	}
}

func TestSharerUpgradeGetsAckM(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, false)
	r.access(1, 200, line0, false)
	// Core 1, already a sharer, writes: invalidate core 0, then the
	// grant is a dataless AckM.
	done := r.access(1, 500, line0, true)
	r.run(1000)
	if !*done {
		t.Fatal("upgrade store never completed")
	}
	if st := r.f.L2(1).State(line0); st != psModified {
		t.Errorf("upgrader state = %d, want M", st)
	}
	if st := r.f.L2(0).State(line0); st != 0 {
		t.Errorf("old sharer state = %d, want I", st)
	}
	if got := r.f.dirs[0].Stats().AckM; got != 1 {
		t.Errorf("AckM grants = %d, want 1", got)
	}
	// Core 1's read was served cache-to-cache and the upgrade is
	// dataless, so only core 0's cold miss touched memory.
	if r.mcs[0].reads != 1 {
		t.Errorf("memory reads = %d, want 1 (cold miss only)", r.mcs[0].reads)
	}
}

func TestOwnershipTransfersCacheToCache(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, true)
	done := r.access(3, 300, line0, true)
	r.run(800)
	if !*done {
		t.Fatal("second store never completed")
	}
	if st := r.f.L2(3).State(line0); st != psModified {
		t.Errorf("new owner state = %d, want M", st)
	}
	if st := r.f.L2(0).State(line0); st != 0 {
		t.Errorf("old owner state = %d, want I", st)
	}
	if got := r.f.dirs[0].Stats().FwdGetM; got != 1 {
		t.Errorf("FwdGetM = %d, want 1", got)
	}
	if got := r.f.Stats().C2CTransfers; got != 1 {
		t.Errorf("cache-to-cache transfers = %d, want 1", got)
	}
	// The dirty line moved core-to-core without touching memory.
	if r.mcs[0].reads != 1 || r.mcs[0].writes != 0 {
		t.Errorf("memory traffic = %d reads / %d writes, want 1/0", r.mcs[0].reads, r.mcs[0].writes)
	}
}

// TestDeferredQueueDrainsBehindForwardAndForget queues B's GetM and C's
// GetS behind A's memory read. Replaying B's GetM forwards it and
// leaves the line stable in M, so C's GetS must replay in the same
// settle rather than wait for a later request to the line.
func TestDeferredQueueDrainsBehindForwardAndForget(t *testing.T) {
	r := newRig(t, 4, 1)
	doneA := r.access(0, 1, line0, true)
	doneB := r.access(1, 8, line0, true)
	doneC := r.access(2, 16, line0, false)
	r.run(2000)
	if !*doneA || !*doneB || !*doneC {
		t.Fatalf("accesses stuck: A=%v B=%v C=%v", *doneA, *doneB, *doneC)
	}
	d := r.f.dirs[0]
	if got := d.Stats().Deferred; got != 2 {
		t.Errorf("deferred requests = %d, want 2 (B and C behind A)", got)
	}
	if msgs, lines := d.Backlog(); msgs != 0 || lines != 0 {
		t.Errorf("bank not idle: %d messages, %d busy or deferred lines", msgs, lines)
	}
	if st := d.EntryState(line0); st != "S" {
		t.Errorf("directory state = %s, want S (B demoted, C shares)", st)
	}
}

// forceEvict pushes an owned line out of a private L2 through the real
// eviction path, as a capacity victim would be.
func forceEvict(l2 *PrivateL2, ln mem.Addr, now sim.Cycle) {
	l2.arr.Invalidate(ln)
	l2.evict(ln, now)
}

func TestWritebackRaceServedFromBuffer(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, true) // core 0 owns the line dirty
	// Core 1's read and core 0's eviction race: the moment the home
	// bank commits to forwarding (BusyFwdS), the owner evicts — its
	// PutM crosses the in-flight FwdGetS, which must then be served
	// from the writeback buffer.
	done := r.access(1, 300, line0, false)
	seen := false
	for c := sim.Cycle(301); c < 400; c++ {
		at := c
		r.eng.Schedule(at, func() {
			if r.f.dirs[0].EntryState(line0) != "BusyFwdS" {
				return
			}
			seen = true
			if r.f.L2(0).State(line0) == psModified {
				forceEvict(r.f.L2(0), line0, at)
			}
		})
	}
	r.run(800)
	if !*done {
		t.Fatal("racing load never completed")
	}
	if !seen {
		t.Error("BusyFwdS not observed during the race")
	}
	if got := r.f.L2(0).Stats().FwdFromWB; got != 1 {
		t.Errorf("FwdFromWB = %d, want 1 (forward served from the writeback buffer)", got)
	}
	if got := r.f.dirs[0].Stats().WBRaces; got != 1 {
		t.Errorf("directory WBRaces = %d, want 1", got)
	}
	// The dirty data reached memory exactly once, via the racing PutM.
	if r.mcs[0].writes != 1 {
		t.Errorf("memory writes = %d, want 1 (no lost writeback)", r.mcs[0].writes)
	}
	if got := r.f.L2(0).WritebacksInFlight(); got != 0 {
		t.Errorf("writeback buffer holds %d entries after the ack, want 0", got)
	}
	// Only the requester shares: the evicted owner kept no copy.
	if st := r.f.dirs[0].EntryState(line0); st != "S" {
		t.Errorf("directory state = %s, want S", st)
	}
	if st := r.f.L2(1).State(line0); st != psShared {
		t.Errorf("requester state = %d, want S", st)
	}
	if st := r.f.L2(0).State(line0); st != 0 {
		t.Errorf("evicted owner state = %d, want I", st)
	}
}

func TestPlainEvictionWritesBack(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, true)
	r.eng.Schedule(300, func() { forceEvict(r.f.L2(0), line0, 300) })
	r.run(600)
	if r.mcs[0].writes != 1 {
		t.Errorf("memory writes = %d, want 1", r.mcs[0].writes)
	}
	if st := r.f.dirs[0].EntryState(line0); st != "I" {
		t.Errorf("directory state = %s, want I after PutM", st)
	}
	if got := r.f.L2(0).WritebacksInFlight(); got != 0 {
		t.Errorf("writeback buffer not drained: %d entries", got)
	}
}

func TestOrphanL1WritebackReachesMemory(t *testing.T) {
	r := newRig(t, 4, 1)
	ids := &mem.IDSource{}
	// An L1 writeback for a line the private L2 no longer holds must
	// still reach memory (state I at the directory): the orphan path.
	r.eng.Schedule(10, func() {
		wb := ids.NewRequest()
		wb.Kind = mem.Writeback
		wb.Addr = line0
		wb.Line = line0
		wb.Core = 0
		wb.Born = 10
		if !r.f.L2(0).Submit(wb, 10) {
			t.Error("orphan writeback rejected")
		}
	})
	r.run(300)
	if got := r.f.L2(0).Stats().OrphanWB; got != 1 {
		t.Errorf("OrphanWB = %d, want 1", got)
	}
	if r.mcs[0].writes != 1 {
		t.Errorf("memory writes = %d, want 1 (orphan data must not be lost)", r.mcs[0].writes)
	}
	if got := r.f.L2(0).WritebacksInFlight(); got != 0 {
		t.Errorf("writeback buffer not drained: %d entries", got)
	}
}

func TestMissHeldBehindUnackedEviction(t *testing.T) {
	r := newRig(t, 4, 1)
	mc := r.mcs[0]
	r.access(0, 1, line0, true)
	// Jam the controller so the eviction's WBAck is delayed, then miss
	// on the same line: the miss must wait for the buffer to drain
	// rather than race its own PutM at the directory.
	r.eng.Schedule(300, func() {
		mc.rejects = 30
		forceEvict(r.f.L2(0), line0, 300)
	})
	done := r.access(0, 305, line0, false)
	r.run(1200)
	if !*done {
		t.Fatal("post-eviction load never completed")
	}
	if got := r.f.L2(0).Stats().WBHolds; got == 0 {
		t.Error("WBHolds = 0: the miss was not held behind the unacknowledged eviction")
	}
	if st := r.f.L2(0).State(line0); st != psExcl {
		t.Errorf("re-acquired state = %d, want E", st)
	}
	if st := r.f.dirs[0].EntryState(line0); st != "M" {
		t.Errorf("directory state = %s, want M (line re-owned, not retired)", st)
	}
}

func TestSharedDataAcrossDirectoryBanks(t *testing.T) {
	// 16 cores, 4 banks: lines spread across home directories by page,
	// and the whole machine still settles to a coherent state.
	r := newRig(t, 16, 4)
	lines := []mem.Addr{0x0000, 0x1000, 0x2000, 0x3000} // distinct pages → distinct banks
	for i, ln := range lines {
		for c := 0; c < 16; c++ {
			r.access(c, sim.Cycle(1+100*i+c), ln, false)
		}
	}
	writers := make([]*bool, len(lines))
	for i, ln := range lines {
		writers[i] = r.access(i, sim.Cycle(3000+200*i), ln, true)
	}
	r.run(10_000)
	homes := map[int]bool{}
	for i, ln := range lines {
		if !*writers[i] {
			t.Fatalf("writer %d never completed", i)
		}
		home := r.f.amap.MCOf(ln)
		homes[home] = true
		if st := r.f.dirs[home].EntryState(ln); st != "M" {
			t.Errorf("line %#x at bank %d: state %s, want M", uint64(ln), home, st)
		}
		if st := r.f.L2(i).State(ln); st != psModified {
			t.Errorf("writer %d state = %d, want M", i, st)
		}
		for c := 0; c < 16; c++ {
			if c == i {
				continue
			}
			if st := r.f.L2(c).State(ln); st != 0 {
				t.Errorf("core %d still holds line %#x in state %d", c, uint64(ln), st)
			}
		}
	}
	if len(homes) < 2 {
		t.Errorf("test lines landed on %d directory banks, want several", len(homes))
	}
	if s := r.f.Stats(); s.Invalidations == 0 {
		t.Error("no invalidations recorded across a 16-core shared workload")
	}
}

func TestMeshBackpressureRetriesInjection(t *testing.T) {
	r := newRig(t, 4, 1)
	// A tiny injection budget forces rejections; the retry queues must
	// deliver everything anyway.
	for c := 0; c < 4; c++ {
		for i := 0; i < 6; i++ {
			r.access(c, sim.Cycle(1+i), line0+mem.Addr(i*64), false)
		}
	}
	r.run(2000)
	ms := r.f.Mesh().Stats()
	if ms.Injected != ms.Delivered {
		t.Fatalf("injected %d != delivered %d: messages lost", ms.Injected, ms.Delivered)
	}
	for c := 0; c < 4; c++ {
		if n := r.f.L2(c).OutstandingMisses(); n != 0 {
			t.Errorf("core %d still has %d outstanding misses", c, n)
		}
	}
}
