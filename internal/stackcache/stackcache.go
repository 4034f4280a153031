// Package stackcache models the die-stacked DRAM operating as a
// last-level cache or hybrid memory in front of a slow off-chip
// backing channel (Bakhshalipour et al., "Die-Stacked DRAM: Memory,
// Cache, or MemCache?").
//
// The layer interposes between the shared L2 and the stacked memory
// controllers: each stacked MC gets a front Port that the L2 submits
// to. In StackCache mode every cacheable request consults a
// set-associative, writeback tag directory kept at the fill
// granularity (a line up to a full page per block); hits ride the
// stacked channels exactly as before, misses enter the layer's own
// miss queue — merging requests to the same block, SMLA-style — and
// fetch the block over a narrow off-chip backing channel that reuses
// the 2D DRAM timing model. In StackMemCache mode a configurable hot
// region of the stack is direct-addressed stacked memory — the Hot
// predicate says which physical pages live there; core wires it to
// the page table so the earliest-touched frames fill the hot region
// first, modelling OS placement of hot pages — and only the remainder
// of the capacity operates as a cache.
//
// Two tag-directory variants are modelled. Tags-in-SRAM probes an
// on-die directory for StackTagLatency cycles before any stacked
// access: hits pay the probe then the stacked access, misses skip the
// stack entirely and go straight off chip. Tags-in-DRAM stores tags
// with the data, so every cacheable access rides the stacked channel
// as a compound tag+data access and the hit/miss decision falls at
// stacked delivery — cheaper hits (no serial probe), costlier misses
// (the stacked round trip is wasted work before the off-chip fetch).
//
// Deliberate simplifications, documented for the record: the SRAM tag
// port is pipelined (latency, no occupancy); a stack fill occupies the
// stacked channel as a single write regardless of fill granularity
// (the stack's internal bandwidth is the point of SMLA); dirty victim
// eviction sends the writeback off chip without modelling the stacked
// victim read; and writeback tag probes are free. The backing channel,
// by contrast, transfers full blocks — a page-granularity fill pays
// page-sized occupancy on the narrow off-chip bus.
//
// In StackMemory mode the layer is never constructed and the system is
// bit-identical to the pre-stackcache simulator (pinned by
// core.TestStackMemoryParity).
package stackcache

import (
	"fmt"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/memctrl"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// Stats counts stack-cache events.
type Stats struct {
	Probes        uint64 // tag-directory probes by cacheable reads
	Hits          uint64 // probes that found the block resident
	Misses        uint64 // probes that went off chip
	MissMerges    uint64 // misses merged into an in-flight block fetch
	DirectReads   uint64 // memcache hot-region reads (direct-addressed)
	DirectWrites  uint64 // memcache hot-region writebacks
	Fills         uint64 // blocks installed from the backing channel
	WritebacksIn  uint64 // L2 writebacks absorbed by a resident block
	WritebacksOut uint64 // dirty blocks/lines sent off chip
	BackingReads  uint64 // block fetches issued to the backing channel
	BackingWrites uint64 // writebacks issued to the backing channel
}

// HitRate reports hits over tag probes that resolved (0 when none).
func (s *Stats) HitRate() float64 {
	n := s.Hits + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// missEntry is one in-flight block fetch; later misses to the same
// block merge instead of duplicating the off-chip read.
type missEntry struct {
	waiters []*mem.Request
}

// Params configures the layer.
type Params struct {
	Cfg *config.Config
	// AMap is the CPU-side address map (routes blocks to stacked MCs).
	AMap mem.AddrMap
	// Stacked are the stacked-DRAM controllers; their Respond callbacks
	// must be the layer's RespondStacked.
	Stacked []*memctrl.Controller
	// Backing is the off-chip controller; its Respond callback must be
	// the layer's RespondBacking.
	Backing *memctrl.Controller
	IDs     *mem.IDSource
	// Hot reports whether a physical address lives in the memcache hot
	// region (direct-addressed stacked memory). Required in memcache
	// mode, ignored otherwise.
	Hot func(mem.Addr) bool
}

// Layer is the stack-cache model. It is built only when
// cfg.StackMode != StackMemory; no nil-receiver paths exist because
// disabled means absent.
type Layer struct {
	mode       config.StackMode
	tagsInSRAM bool
	tagLat     sim.Cycle
	fillBytes  int
	hot        func(mem.Addr) bool // memcache: resident in the hot region

	tags    *cache.Array
	amap    mem.AddrMap
	stacked []*memctrl.Controller
	backing *memctrl.Controller
	ids     *mem.IDSource

	pending map[mem.Addr]*missEntry // in-flight block fetches by block addr

	// Retry queues for full MRQs, drained every cycle in Tick.
	backQ  []*mem.Request   // reads + writebacks awaiting the backing MRQ
	stackQ [][]*mem.Request // per stacked MC: resolved traffic awaiting its MRQ

	events sim.EventQueue // delayed SRAM tag decisions
	now    sim.Cycle
	stats  Stats

	// handle, when set, lets the layer sleep while its retry queues are
	// empty until its next delayed tag decision; completion callbacks
	// that queue retry work from another component's tick wake it.
	handle *sim.TickHandle

	// Prebuilt callbacks so the miss path schedules and completes
	// without per-request closures: resolveFn applies a delayed SRAM tag
	// decision (the request rides in the event arg) and fetchDone
	// finishes a block fetch (the block address rides in Request.Line).
	resolveFn func(arg any, at sim.Cycle)
	fetchDone func(r *mem.Request, now sim.Cycle)

	// freeMiss recycles miss-merge nodes (reusing waiter slices).
	freeMiss []*missEntry
}

// New builds the layer for a cache or memcache configuration.
func New(p Params) *Layer {
	cfg := p.Cfg
	if cfg == nil || p.IDs == nil || p.Backing == nil || len(p.Stacked) != cfg.MCs {
		panic("stackcache: New missing config, IDs, backing controller, or stacked MCs")
	}
	if cfg.StackMode == config.StackMemory {
		panic("stackcache: layer must not be constructed in memory mode")
	}
	if cfg.StackMode == config.StackMemCache && p.Hot == nil {
		panic("stackcache: memcache mode needs a Hot predicate")
	}
	capBytes := int64(cfg.StackCapMB) << 20
	cacheBytes := capBytes - cfg.StackHotBytes()
	sets := int(cacheBytes) / (cfg.StackWays * cfg.StackFillBytes)
	if sets < 1 {
		panic(fmt.Sprintf("stackcache: %d cacheable bytes yield zero sets (%d ways x %d-byte blocks)",
			cacheBytes, cfg.StackWays, cfg.StackFillBytes))
	}
	l := &Layer{
		mode:       cfg.StackMode,
		tagsInSRAM: cfg.StackTagsInSRAM,
		tagLat:     sim.Cycle(cfg.StackTagLatency),
		fillBytes:  cfg.StackFillBytes,
		hot:        p.Hot,
		tags:       cache.NewArray("stacktags", sets, cfg.StackWays, cfg.StackFillBytes),
		amap:       p.AMap,
		stacked:    p.Stacked,
		backing:    p.Backing,
		ids:        p.IDs,
		pending:    make(map[mem.Addr]*missEntry),
		stackQ:     make([][]*mem.Request, len(p.Stacked)),
	}
	l.resolveFn = func(arg any, at sim.Cycle) { l.resolveSRAM(arg.(*mem.Request), at) }
	l.fetchDone = func(r *mem.Request, at sim.Cycle) { l.finishMiss(r.Line, at) }
	return l
}

// SetHandle arms the idle fast-path: the layer sleeps while its retry
// queues are empty until its next delayed tag decision.
func (l *Layer) SetHandle(h *sim.TickHandle) {
	l.handle = h
	l.sched(l.now)
}

// sched recomputes the wake cycle from the layer's full live state:
// awake next cycle while any retry queue holds work (each is drained
// once per cycle), else asleep until the next delayed tag decision,
// else unboundedly.
func (l *Layer) sched(now sim.Cycle) {
	if l.handle == nil {
		return
	}
	if len(l.backQ) > 0 {
		l.handle.SleepUntil(now + 1)
		return
	}
	for _, q := range l.stackQ {
		if len(q) > 0 {
			l.handle.SleepUntil(now + 1)
			return
		}
	}
	if c, ok := l.events.NextAt(); ok {
		l.handle.SleepUntil(c)
		return
	}
	l.handle.SleepUntil(sim.FarFuture)
}

// newMiss returns a recycled (or fresh) miss node seeded with r.
func (l *Layer) newMiss(r *mem.Request) *missEntry {
	if n := len(l.freeMiss); n > 0 {
		e := l.freeMiss[n-1]
		l.freeMiss[n-1] = nil
		l.freeMiss = l.freeMiss[:n-1]
		for i := range e.waiters {
			e.waiters[i] = nil // drop stale request references
		}
		e.waiters = append(e.waiters[:0], r)
		return e
	}
	return &missEntry{waiters: []*mem.Request{r}}
}

// front adapts one stacked MC's share of the address space to the
// cache.Port the L2 submits to.
type front struct {
	l  *Layer
	mc int
}

func (f *front) Submit(r *mem.Request, now sim.Cycle) bool { return f.l.submit(f.mc, r, now) }

// Fronts returns the per-MC ports the L2 uses in place of the
// controllers themselves.
func (l *Layer) Fronts() []cache.Port {
	ports := make([]cache.Port, len(l.stacked))
	for i := range ports {
		ports[i] = &front{l: l, mc: i}
	}
	return ports
}

// Stats returns the counters.
func (l *Layer) Stats() *Stats { return &l.stats }

// block aligns an address to the fill granularity.
func (l *Layer) block(a mem.Addr) mem.Addr { return a &^ mem.Addr(l.fillBytes-1) }

// direct reports whether an address bypasses the tag path entirely
// (the memcache hot region).
func (l *Layer) direct(a mem.Addr) bool {
	return l.mode == config.StackMemCache && l.hot(a)
}

// submit is the front entry point for L2 traffic: demand/prefetch
// reads and writebacks. A false return means "retry later" (the L2's
// own queues hold the request), exactly as a controller's Submit.
func (l *Layer) submit(mc int, r *mem.Request, now sim.Cycle) bool {
	l.now = now
	switch r.Kind {
	case mem.Read:
		if l.direct(r.Line) {
			r.StackDirect = true
			if l.stacked[mc].Submit(r, now) {
				l.stats.DirectReads++
				return true
			}
			r.StackDirect = false
			return false
		}
		r.Attrib.Probe(now)
		if !l.tagsInSRAM {
			// Tags-in-DRAM: the compound tag+data access rides the
			// stacked channel; the decision falls at delivery.
			return l.stacked[mc].Submit(r, now)
		}
		// Tags-in-SRAM: the probe takes tagLat cycles, then the hit
		// proceeds on the stack or the miss goes off chip. The request
		// is accepted here; the layer owns it until resolution.
		l.events.AtCall(now+l.tagLat, l.resolveFn, r)
		l.sched(now)
		return true
	case mem.Writeback:
		return l.submitWriteback(mc, r, now)
	default:
		// Nothing above emits other kinds toward memory; pass through
		// untagged rather than guess.
		r.StackDirect = true
		return l.stacked[mc].Submit(r, now)
	}
}

// submitWriteback routes an L2 writeback: hot region → stacked memory;
// resident block → absorb (mark dirty, occupy the stacked channel);
// absent block → forward off chip without allocating.
func (l *Layer) submitWriteback(mc int, r *mem.Request, now sim.Cycle) bool {
	if l.direct(r.Line) {
		r.StackDirect = true
		if l.stacked[mc].Submit(r, now) {
			l.stats.DirectWrites++
			return true
		}
		r.StackDirect = false
		return false
	}
	blk := l.block(r.Line)
	if l.tags.Contains(blk) {
		r.StackDirect = true
		if l.stacked[mc].Submit(r, now) {
			l.tags.MarkDirty(blk)
			l.stats.WritebacksIn++
			return true
		}
		// Rejected: the retry re-probes (the block may be gone by then).
		r.StackDirect = false
		return false
	}
	if l.backing.Submit(r, now) {
		l.stats.WritebacksOut++
		l.stats.BackingWrites++
		return true
	}
	return false
}

// resolveSRAM applies the tag decision tagLat cycles after the probe.
func (l *Layer) resolveSRAM(r *mem.Request, now sim.Cycle) {
	l.stats.Probes++
	blk := l.block(r.Line)
	if l.tags.Lookup(blk) {
		l.stats.Hits++
		// Resolved hit: the stacked access is pure data from here on.
		r.StackDirect = true
		l.toStacked(r, now)
		return
	}
	l.stats.Misses++
	r.Attrib.StackResolve(now)
	l.forwardMiss(r, now)
}

// RespondStacked is every stacked MC's completion callback. Resolved
// traffic (hot-region accesses, SRAM-resolved hits, fill writes,
// absorbed writebacks) completes; an unresolved read is a
// tags-in-DRAM compound access whose decision falls due now.
func (l *Layer) RespondStacked(r *mem.Request, now sim.Cycle) {
	l.now = now
	if r.Kind != mem.Read || r.StackDirect {
		r.Complete(now)
		return
	}
	l.stats.Probes++
	blk := l.block(r.Line)
	if l.tags.Lookup(blk) {
		l.stats.Hits++
		r.Complete(now)
		return
	}
	l.stats.Misses++
	r.Attrib.StackResolve(now)
	l.forwardMiss(r, now)
}

// forwardMiss sends a cacheable read off chip, merging with any
// in-flight fetch of the same block.
func (l *Layer) forwardMiss(r *mem.Request, now sim.Cycle) {
	blk := l.block(r.Line)
	if e, ok := l.pending[blk]; ok {
		l.stats.MissMerges++
		e.waiters = append(e.waiters, r)
		return
	}
	l.pending[blk] = l.newMiss(r)
	fetch := l.ids.NewRequest()
	fetch.Kind = mem.Read
	fetch.Addr = blk
	fetch.Line = blk
	fetch.Core = r.Core
	fetch.PC = r.PC
	fetch.Born = now
	// The fetch carries no attribution tag: the original tag's
	// StackResolve→Done interval is the off-chip stage by definition,
	// and the backing MC must not overwrite the stacked checkpoints.
	fetch.OnDone = l.fetchDone
	l.stats.BackingReads++
	if !l.backing.Submit(fetch, now) {
		l.backQ = append(l.backQ, fetch)
		l.handle.Wake()
	}
}

// finishMiss installs a fetched block and completes every waiter.
func (l *Layer) finishMiss(blk mem.Addr, at sim.Cycle) {
	e := l.pending[blk]
	if e == nil {
		panic(fmt.Sprintf("stackcache: fill for unknown block %#x", uint64(blk)))
	}
	delete(l.pending, blk)
	if !l.tags.Contains(blk) {
		victim, victimDirty, evicted := l.tags.Fill(blk, false)
		l.stats.Fills++
		if evicted && victimDirty {
			l.stats.WritebacksOut++
			l.stats.BackingWrites++
			wb := l.ids.NewRequest()
			wb.Kind = mem.Writeback
			wb.Addr = victim
			wb.Line = victim
			wb.Core = -1
			wb.Born = at
			if !l.backing.Submit(wb, at) {
				l.backQ = append(l.backQ, wb)
				l.handle.Wake()
			}
		}
		// Model the fill's occupancy on the stacked channel with a
		// fire-and-forget write.
		fill := l.ids.NewRequest()
		fill.Kind = mem.Write
		fill.Addr = blk
		fill.Line = blk
		fill.Core = -1
		fill.Born = at
		fill.StackDirect = true
		l.toStacked(fill, at)
	}
	for _, w := range e.waiters {
		w.Complete(at)
	}
	l.freeMiss = append(l.freeMiss, e)
}

// toStacked submits resolved traffic to the owning stacked MC,
// deferring to the per-MC retry queue on a full MRQ.
func (l *Layer) toStacked(r *mem.Request, now sim.Cycle) {
	mc := l.amap.MCOf(r.Line)
	if !l.stacked[mc].Submit(r, now) {
		l.stackQ[mc] = append(l.stackQ[mc], r)
		l.handle.Wake()
	}
}

// RespondBacking is the backing MC's completion callback: block
// fetches run their OnDone (finishMiss), forwarded writebacks just
// complete.
func (l *Layer) RespondBacking(r *mem.Request, now sim.Cycle) {
	l.now = now
	r.Complete(now)
}

// Tick fires due tag decisions and drains the retry queues.
func (l *Layer) Tick(now sim.Cycle) {
	l.now = now
	l.events.FireDue(now)
	for len(l.backQ) > 0 && l.backing.Submit(l.backQ[0], now) {
		l.backQ = l.backQ[1:]
	}
	for mc := range l.stackQ {
		q := l.stackQ[mc]
		for len(q) > 0 && l.stacked[mc].Submit(q[0], now) {
			q = q[1:]
		}
		l.stackQ[mc] = q
	}
	l.sched(now)
}

// Instrument registers the "stackcache.*" metrics.
func (l *Layer) Instrument(reg *telemetry.Registry) {
	reg.GaugeFunc("stackcache.probes", func() float64 { return float64(l.stats.Probes) })
	reg.GaugeFunc("stackcache.hits", func() float64 { return float64(l.stats.Hits) })
	reg.GaugeFunc("stackcache.misses", func() float64 { return float64(l.stats.Misses) })
	reg.GaugeFunc("stackcache.miss_merges", func() float64 { return float64(l.stats.MissMerges) })
	reg.GaugeFunc("stackcache.hit_rate", func() float64 { return l.stats.HitRate() })
	reg.GaugeFunc("stackcache.direct_reads", func() float64 { return float64(l.stats.DirectReads) })
	reg.GaugeFunc("stackcache.direct_writes", func() float64 { return float64(l.stats.DirectWrites) })
	reg.GaugeFunc("stackcache.fills", func() float64 { return float64(l.stats.Fills) })
	reg.GaugeFunc("stackcache.writebacks_in", func() float64 { return float64(l.stats.WritebacksIn) })
	reg.GaugeFunc("stackcache.writebacks_out", func() float64 { return float64(l.stats.WritebacksOut) })
	reg.GaugeFunc("stackcache.backing_reads", func() float64 { return float64(l.stats.BackingReads) })
	reg.GaugeFunc("stackcache.backing_writes", func() float64 { return float64(l.stats.BackingWrites) })
	reg.GaugeFunc("stackcache.pending", func() float64 { return float64(len(l.pending)) })
	reg.GaugeFunc("stackcache.backing_queue", func() float64 { return float64(l.backing.QueueLen()) })
}

// ResetStats zeroes the counters and the tag array's statistics (end
// of warmup). Resident blocks and in-flight fetches survive.
func (l *Layer) ResetStats() {
	l.stats = Stats{}
	l.tags.ResetStats()
}

// Outstanding counts the work the layer holds: in-flight block fetches,
// delayed tag decisions and requests awaiting an MRQ retry.
func (l *Layer) Outstanding() int {
	n := len(l.pending) + l.events.Len() + len(l.backQ)
	for _, q := range l.stackQ {
		n += len(q)
	}
	return n
}
