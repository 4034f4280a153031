// Package memctrl implements the memory controller(s): a bounded memory
// request queue (MRQ), an FR-FCFS open-page scheduler that groups
// accesses to the same row (Rixner-style, as assumed in the paper), and
// the data-bus/bank bookkeeping for each channel.
//
// Section 4.1 of the paper scales the number of controllers while keeping
// the aggregate MRQ capacity constant at 32 entries; each Controller here
// owns a disjoint set of ranks and its own data bus, so instantiating
// several of them yields the banked-MC organizations of Figure 5.
package memctrl

import (
	"fmt"

	"stackedsim/internal/bus"
	"stackedsim/internal/dram"
	"stackedsim/internal/fault"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// Stats aggregates controller activity.
type Stats struct {
	Submitted   uint64
	Rejected    uint64 // MRQ-full rejections
	Reads       uint64
	Writes      uint64
	RowHits     uint64 // scheduled accesses that hit an open row
	QueueCycles uint64 // total cycles requests waited in the MRQ
	Completed   uint64
}

// RowHitRate reports the fraction of scheduled accesses that hit a row
// buffer.
func (s *Stats) RowHitRate() float64 {
	n := s.Reads + s.Writes
	if n == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(n)
}

// Params configures one controller.
type Params struct {
	ID        int
	AMap      mem.AddrMap
	Ranks     []*dram.Rank // the ranks this controller owns
	QueueCap  int          // MRQ entries (aggregate 32 / number of MCs)
	DataBus   *bus.Bus     // channel data bus
	Divider   sim.Divider  // controller clock domain
	FRFCFS    bool         // false = strict FIFO
	LineBytes int
	// CriticalWordFirst completes reads once the first beat (holding
	// the demand word) has crossed the bus; the remaining beats still
	// occupy it.
	CriticalWordFirst bool
	// WordBytes is the demand-word transfer size under CWF (8).
	WordBytes int
	// Respond is invoked when a request's data has fully crossed the
	// channel. It may be nil for fire-and-forget traffic.
	Respond func(r *mem.Request, now sim.Cycle)
}

// Controller is one memory channel's controller.
type Controller struct {
	p     Params
	queue *sim.Queue[*mem.Request]
	done  sim.EventQueue
	stats Stats

	// respondFn is the prebuilt completion event shared by every
	// request (the request rides in the event arg — no per-completion
	// closure).
	respondFn func(arg any, at sim.Cycle)

	// handle, set by Attach, lets the controller sleep through cycles it
	// can prove it has no work on. Nil (plain engine.Register wiring)
	// keeps the seed behaviour of ticking every cycle.
	handle *sim.TickHandle

	// Telemetry (all nil/zero when disabled): the MRQ delay
	// distribution, the controller's trace track, and one DRAM track
	// per owned rank.
	queueDelay *telemetry.Distribution
	trace      *telemetry.Tracer
	mcTrack    telemetry.Track
	rankTracks []telemetry.Track

	// flt, when set, injects controller faults: stall/flap windows
	// gate scheduling edges, stuck or dead ranks are skipped by the
	// scheduler, and dead ranks with failover remap their requests to
	// a healthy rank. Nil = fault-free.
	flt *fault.MCView
}

// New returns a controller. It panics on malformed parameters, which are
// always construction-time configuration bugs.
func New(p Params) *Controller {
	if len(p.Ranks) == 0 {
		panic("memctrl: controller needs at least one rank")
	}
	if p.QueueCap < 1 {
		panic(fmt.Sprintf("memctrl: queue capacity %d must be >= 1", p.QueueCap))
	}
	if p.DataBus == nil {
		panic("memctrl: nil data bus")
	}
	if p.LineBytes < 1 {
		panic("memctrl: LineBytes must be >= 1")
	}
	c := &Controller{p: p, queue: sim.NewQueue[*mem.Request](p.QueueCap)}
	c.respondFn = func(arg any, at sim.Cycle) {
		c.stats.Completed++
		if c.p.Respond != nil {
			c.p.Respond(arg.(*mem.Request), at)
		}
	}
	return c
}

// Attach registers the controller with the engine and enables the idle
// fast-path: after each tick the controller computes the next cycle it
// could possibly have work (next FSB/DRAM-domain edge while requests
// are queued, next in-flight completion, next refresh due) and sleeps
// until then; Submit re-arms it. Plain engine.Register(c) remains
// supported and behaves identically, minus the skipping.
func (c *Controller) Attach(e *sim.Engine) {
	c.handle = e.RegisterEvery(1, 0, c)
}

// ID reports the controller index.
func (c *Controller) ID() int { return c.p.ID }

// Ranks exposes the ranks this controller owns (read-only use intended;
// the power model reads bank counters through it).
func (c *Controller) Ranks() []*dram.Rank { return c.p.Ranks }

// Stats returns the counters.
func (c *Controller) Stats() *Stats { return &c.stats }

// SetFaults points the controller at its fault-injection view. A nil
// view (the default) is fault-free. The same view must be shared with
// the controller's data bus and banks so windows line up.
func (c *Controller) SetFaults(v *fault.MCView) { c.flt = v }

// QueueLen reports the current MRQ occupancy.
func (c *Controller) QueueLen() int { return c.queue.Len() }

// InFlight counts scheduled requests whose completion has not fired.
func (c *Controller) InFlight() int { return c.done.Len() }

// Instrument registers the controller's metrics under "mc<id>.*" and
// attaches the tracer: MRQ depth as a live gauge, cumulative
// read/write/row-hit/reject counts, and the queueing-delay
// distribution. Trace events go to one "mc<id>" track plus one
// "mc<id>.rank<r>" DRAM track per owned rank.
func (c *Controller) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	name := fmt.Sprintf("mc%d", c.p.ID)
	reg.GaugeFunc(name+".readq.depth", func() float64 { return float64(c.queue.Len()) })
	reg.GaugeFunc(name+".reads", func() float64 { return float64(c.stats.Reads) })
	reg.GaugeFunc(name+".writes", func() float64 { return float64(c.stats.Writes) })
	reg.GaugeFunc(name+".rowhits", func() float64 { return float64(c.stats.RowHits) })
	reg.GaugeFunc(name+".rejects", func() float64 { return float64(c.stats.Rejected) })
	c.queueDelay = reg.Distribution(name + ".queue.delay")
	c.trace = tr
	c.mcTrack = tr.Track("mcs", name)
	c.rankTracks = make([]telemetry.Track, len(c.p.Ranks))
	for r := range c.p.Ranks {
		c.rankTracks[r] = tr.Track("dram", fmt.Sprintf("%s.rank%d", name, r))
	}
}

// Full reports whether Submit would fail.
func (c *Controller) Full() bool { return c.queue.Full() }

// wbReserve is the number of MRQ slots writebacks may never occupy,
// keeping read requests admissible under write bursts.
const wbReserve = 2

// Submit enqueues a request. It returns false when the MRQ is full (or,
// for writebacks, nearly full); the caller must retry later.
func (c *Controller) Submit(r *mem.Request, now sim.Cycle) bool {
	if r.Kind == mem.Write || r.Kind == mem.Writeback {
		if c.queue.Cap() > wbReserve && c.queue.Len() >= c.queue.Cap()-wbReserve {
			c.stats.Rejected++
			return false
		}
	}
	if !c.queue.Push(r) {
		c.stats.Rejected++
		return false
	}
	r.Issued = now
	r.Attrib.EnterQueue(now, c.p.ID)
	c.stats.Submitted++
	// New work: re-arm the tick schedule in case the controller was
	// sleeping through an idle span. Submitters tick before the
	// controller, so the request is considered this very cycle.
	c.handle.Wake()
	if r.Traced {
		c.trace.Instant(c.mcTrack, "mrq.enqueue", now,
			fmt.Sprintf(`{"req":%d,"depth":%d}`, r.ID, c.queue.Len()))
	}
	return true
}

// pick selects the next request index to schedule, or -1.
//
// FR-FCFS with read priority: oldest ready row-hit read, then oldest
// ready read, then oldest ready row-hit write, then oldest ready write.
// Reads sit on the cores' critical paths; writebacks only need to drain
// eventually, so letting them hog banks ahead of reads would starve the
// MSHRs above. FIFO mode schedules only the head (head-of-line blocking
// — the behaviour the paper's scheduler assumption avoids).
func (c *Controller) pick(now sim.Cycle) int {
	if c.queue.Empty() {
		return -1
	}
	if !c.p.FRFCFS {
		r := c.queue.At(0)
		loc, _ := c.loc(r, now)
		if c.flt.RankBlocked(now, loc.Rank) {
			return -1
		}
		if bk := c.bank(loc); bk.Ready(now) {
			return 0
		}
		return -1
	}
	read, rowHitWrite, write := -1, -1, -1
	for i := 0; i < c.queue.Len(); i++ {
		r := c.queue.At(i)
		loc, _ := c.loc(r, now)
		if c.flt.RankBlocked(now, loc.Rank) {
			continue
		}
		bk := c.bank(loc)
		if !bk.Ready(now) {
			continue
		}
		isWrite := r.Kind == mem.Write || r.Kind == mem.Writeback
		hit := bk.HasRow(loc.Row)
		switch {
		case !isWrite && hit:
			return i // oldest ready row-hit read: best possible
		case !isWrite:
			if read < 0 {
				read = i
			}
		case hit:
			if rowHitWrite < 0 {
				rowHitWrite = i
			}
		default:
			if write < 0 {
				write = i
			}
		}
	}
	if read >= 0 {
		return read
	}
	if rowHitWrite >= 0 {
		return rowHitWrite
	}
	return write
}

func (c *Controller) bank(loc mem.Loc) *dram.Bank {
	return c.p.Ranks[loc.Rank].Banks[loc.Bank]
}

// loc decodes a request's DRAM location, remapping requests for a
// dead rank to its failover target when the scenario allows it. The
// remap must be recomputed at schedule time (not cached at submit) so
// the whole scheduling pass sees one consistent fault state per edge.
func (c *Controller) loc(r *mem.Request, now sim.Cycle) (mem.Loc, bool) {
	loc := c.p.AMap.Decode(r.Line)
	if tgt, ok := c.flt.FailoverTarget(now, loc.Rank); ok {
		loc.Rank = tgt
		return loc, true
	}
	return loc, false
}

// Tick advances the controller one CPU cycle: refresh logic runs when
// due, completions are delivered at their exact cycle, and one new
// command is scheduled on each controller-clock edge. When the
// controller holds an Attach handle it then sleeps until the next cycle
// any of those can recur, so provably idle cycles are never visited.
func (c *Controller) Tick(now sim.Cycle) {
	c.tick(now)
	c.reschedule(now)
}

func (c *Controller) tick(now sim.Cycle) {
	for _, rk := range c.p.Ranks {
		rk.Tick(now)
	}
	c.done.FireDue(now)
	if !c.p.Divider.Edge(now) {
		return
	}
	// A stalled or flapping controller skips its scheduling edge;
	// refresh and in-flight completions above still proceed.
	if c.flt.StallEdge(now) {
		return
	}
	i := c.pick(now)
	if i < 0 {
		return
	}
	r := c.queue.RemoveAt(i)
	c.stats.QueueCycles += uint64(now - r.Issued)
	c.queueDelay.Observe(int(now - r.Issued))
	loc, remapped := c.loc(r, now)
	if remapped {
		c.flt.NoteRemap()
	}
	bk := c.bank(loc)
	write := r.Kind == mem.Write || r.Kind == mem.Writeback
	r.Attrib.Sched(now, loc.Rank)
	dataAt, rowHit := bk.AccessTagged(now, loc.Row, write, r.Attrib)
	c.p.Ranks[loc.Rank].Touch(loc.Bank, loc.Row, now)
	r.RowHit = rowHit
	if rowHit {
		c.stats.RowHits++
	}
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if r.Traced {
		rk := c.rankTracks[loc.Rank]
		if rowHit {
			c.trace.Instant(rk, "cas.rowhit", now,
				fmt.Sprintf(`{"req":%d,"bank":%d,"row":%d}`, r.ID, loc.Bank, loc.Row))
		} else {
			c.trace.Instant(rk, "activate", now,
				fmt.Sprintf(`{"req":%d,"bank":%d,"row":%d}`, r.ID, loc.Bank, loc.Row))
		}
		// The DRAM service interval: scheduling until the array delivers.
		c.trace.Begin(rk, "dram.access", now)
		c.trace.End(rk, "dram.access", dataAt)
	}
	// The line crosses the channel data bus once the array delivers (or,
	// for writes, symmetric occupancy to carry the data in).
	start, end := c.p.DataBus.ReserveTagged(dataAt, c.p.LineBytes, r.Attrib)
	if c.p.CriticalWordFirst && !write {
		// The demand word leads the burst: the requester restarts after
		// the first beat even though the tail still occupies the bus.
		word := c.p.WordBytes
		if word <= 0 {
			word = 8
		}
		if early := start + c.p.DataBus.TransferCyclesAt(start, word); early < end {
			end = early
		}
	}
	if r.Traced {
		// The burst across the channel data bus; bus reservations are
		// serialized, so these slices never overlap on the MC track.
		c.trace.Begin(c.mcTrack, "burst", start)
		c.trace.End(c.mcTrack, "burst", end)
	}
	c.done.AtCall(end, c.respondFn, r)
}

// farFuture is the sleep target for a fully quiescent controller; it is
// only reached if nothing ever re-arms the controller, i.e. never.
const farFuture = sim.Cycle(1) << 62

// nextSchedulable reports the earliest cycle >= now+1 at which some
// queued request's bank could accept a command, so the controller can
// sleep across a bank-busy gap instead of polling every edge. Bank
// occupancy only ever extends on cycles the controller is awake for
// (command issue on its own edges, refresh on cycles the NextRefresh
// wake term already covers), so the bound cannot rot while sleeping.
// With fault injection active, scheduling eligibility can change on
// any edge (stall windows, dead or stuck ranks), so the bound degrades
// to next-cycle — edge polling, exactly the seed behaviour.
func (c *Controller) nextSchedulable(now sim.Cycle) sim.Cycle {
	if c.flt != nil {
		return now + 1
	}
	ready := farFuture
	if !c.p.FRFCFS {
		// FCFS: only the head of the queue may issue.
		loc := c.p.AMap.Decode(c.queue.At(0).Line)
		ready = c.bank(loc).BusyUntil()
	} else {
		for i := 0; i < c.queue.Len(); i++ {
			loc := c.p.AMap.Decode(c.queue.At(i).Line)
			if bu := c.bank(loc).BusyUntil(); bu < ready {
				ready = bu
				if ready <= now+1 {
					break
				}
			}
		}
	}
	if ready < now+1 {
		ready = now + 1
	}
	return ready
}

// reschedule computes the next cycle at which the controller can
// possibly do work and sleeps until then. The bound is exact, not
// heuristic: on every skipped cycle the seed controller's Tick would
// have been a no-op (refresh not due, no completion due, and either an
// empty MRQ or a non-edge cycle), so skipping cannot change results.
func (c *Controller) reschedule(now sim.Cycle) {
	if c.handle == nil {
		return
	}
	wake := farFuture
	if !c.queue.Empty() {
		next := c.nextSchedulable(now)
		if next <= now+1 && c.p.Divider.Ratio() == 1 {
			// Busy at CPU clock with a schedulable command: the next
			// tick is next cycle, and the handle is already armed (we
			// were just ticked, so sleep <= now). Skip the wake
			// computation — this is the hot path for a saturated
			// 3D-stacked controller.
			return
		}
		wake = c.p.Divider.NextEdge(next)
	}
	if at, ok := c.done.NextAt(); ok && at < wake {
		wake = at
	}
	for _, rk := range c.p.Ranks {
		if at, ok := rk.NextRefresh(); ok && at < wake {
			wake = at
		}
	}
	c.handle.SleepUntil(wake)
}

// ResetStats zeroes the counters (end of warmup).
func (c *Controller) ResetStats() { c.stats = Stats{} }
