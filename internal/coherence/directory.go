package coherence

import (
	"fmt"

	"stackedsim/internal/cache"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// dstate is a directory entry's protocol state. A line absent from the
// map is Invalid; process materializes it as a dirI entry, so handlers
// always see an entry, and settle reclaims it once it is back in dirI.
type dstate uint8

const (
	// dirI: no cached copy.
	dirI dstate = iota
	// dirS: one or more clean sharers (exact bitvector).
	dirS
	// dirM: one owner holding the line E or M (MESI's E is tracked as
	// ownership — the directory cannot tell whether the owner wrote).
	dirM
	// trBusyMemS: a GetS is waiting on a memory read.
	trBusyMemS
	// trBusyMemM: a GetM is waiting on a memory read (after any
	// invalidations completed).
	trBusyMemM
	// trBusyInv: a GetM is collecting InvAcks from the sharers.
	trBusyInv
	// trBusyFwdS: a FwdGetS is waiting for the owner's demotion data —
	// or for the owner's racing PutM, which completes it equally.
	trBusyFwdS
)

func (s dstate) busy() bool { return s >= trBusyMemS }

var dstateNames = [...]string{"I", "S", "M", "BusyMemS", "BusyMemM", "BusyInv", "BusyFwdS"}

func (s dstate) String() string { return dstateNames[s] }

// dirEntry tracks one line's protocol state.
type dirEntry struct {
	state    dstate
	owner    int      // dirM / trBusyFwdS
	sharers  []uint64 // exact sharer bitvector, sized to the core count
	acksLeft int      // trBusyInv
	// req is the request being served while busy; reqWasSharer caches
	// its membership before the invalidations cleared the set.
	req          *message
	reqWasSharer bool
	// deferred queues requests that arrived while the line was busy,
	// replayed in order once it settles.
	deferred []*message
}

func (e *dirEntry) setSharer(c int) { e.sharers[c/64] |= 1 << (c % 64) }
func (e *dirEntry) isSharer(c int) bool {
	return e.sharers[c/64]&(1<<(c%64)) != 0
}
func (e *dirEntry) sharerCount() int {
	n := 0
	for _, w := range e.sharers {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}
func (e *dirEntry) clearSharers() {
	for i := range e.sharers {
		e.sharers[i] = 0
	}
}

// DirStats counts directory-bank events.
type DirStats struct {
	GetS      uint64
	GetM      uint64
	PutM      uint64
	PutE      uint64
	StalePutM uint64 // PutM from a core that no longer owns the line
	Deferred  uint64 // requests queued behind a busy line
	InvSent   uint64
	InvAcks   uint64
	FwdGetS   uint64
	FwdGetM   uint64
	WBRaces   uint64 // FwdGetS completed by the owner's racing PutM
	MemReads  uint64
	MemWrites uint64
	AckM      uint64 // upgrade grants
	DataE     uint64 // exclusive grants from memory
	DataS     uint64 // shared grants from memory
}

// Directory is one directory bank, co-located with its vertical slice's
// memory controller: it serializes coherence for the lines that slice
// owns, one message per cycle with a pipelined lookup latency, and
// issues the memory reads and writes the protocol needs.
type Directory struct {
	f    *Fabric
	id   int // MC / bank index
	node int // mesh node
	mc   cache.Port
	lat  sim.Cycle

	lines map[mem.Addr]*dirEntry

	inbox  *sim.Queue[*message]
	out    []outMsg       // mesh-rejected responses, retried in order
	outq   []*mem.Request // MC-rejected memory requests, retried in order
	events sim.EventQueue
	handle *sim.TickHandle

	freeEntry []*dirEntry

	processCB func(arg any, at sim.Cycle)
	onMemRead func(r *mem.Request, now sim.Cycle)

	stats DirStats
}

func newDirectory(f *Fabric, id, node int, mc cache.Port) *Directory {
	d := &Directory{
		f:     f,
		id:    id,
		node:  node,
		mc:    mc,
		lat:   sim.Cycle(f.cfg.DirLatency),
		lines: make(map[mem.Addr]*dirEntry),
		inbox: sim.NewQueue[*message](0),
	}
	d.processCB = func(arg any, at sim.Cycle) { d.process(arg.(*message), at) }
	d.onMemRead = d.memReadDone
	return d
}

// Stats returns the counters.
func (d *Directory) Stats() *DirStats { return &d.stats }

// Node reports the mesh node this bank lives at.
func (d *Directory) Node() int { return d.node }

func (d *Directory) setHandle(h *sim.TickHandle) {
	d.handle = h
	h.SleepUntil(sim.FarFuture)
}

// Backlog counts the work this bank holds: messages queued, in the
// lookup pipeline or awaiting a retry, and lines busy or holding
// deferred requests.
func (d *Directory) Backlog() (msgs, lines int) {
	for _, e := range d.lines {
		if e.state.busy() || len(e.deferred) > 0 {
			lines++
		}
	}
	return d.inbox.Len() + d.events.Len() + len(d.out) + len(d.outq), lines
}

// newEntry takes a pooled entry or makes one. Pooled entries need no
// reset: settle pools only dirI entries, which hold no owner, sharer,
// request or queued message.
func (d *Directory) newEntry() *dirEntry {
	if n := len(d.freeEntry); n > 0 {
		e := d.freeEntry[n-1]
		d.freeEntry[n-1] = nil
		d.freeEntry = d.freeEntry[:n-1]
		return e
	}
	return &dirEntry{owner: -1, sharers: make([]uint64, (d.f.cfg.Cores+63)/64)}
}

func (d *Directory) releaseEntry(e *dirEntry) { d.freeEntry = append(d.freeEntry, e) }

// recv queues a delivered protocol message and stamps the requester's
// lifecycle with its arrival at the directory.
func (d *Directory) recv(m *message, now sim.Cycle) {
	// Arrival counters live here rather than in the handlers so a
	// deferred-and-replayed request is counted once.
	switch m.kind {
	case mGetS:
		d.stats.GetS++
		m.tag.NocArrive(now)
	case mGetM:
		d.stats.GetM++
		m.tag.NocArrive(now)
	case mPutM:
		if m.clean {
			d.stats.PutE++
		} else {
			d.stats.PutM++
		}
	}
	d.inbox.Push(m)
	d.handle.Wake()
}

// Tick pops at most one inbox message (the bank's serialization point)
// into the pipelined lookup, fires due lookups, and retries rejected
// injections and memory submissions.
func (d *Directory) Tick(now sim.Cycle) {
	d.events.FireDue(now)
	if m, ok := d.inbox.Pop(); ok {
		d.events.AtCall(now+d.lat, d.processCB, m)
	}
	if len(d.out) > 0 {
		kept := d.out[:0]
		for i, o := range d.out {
			if len(kept) > 0 || !d.f.send(d.node, o.dst, o.m, now) {
				kept = append(kept, d.out[i])
				continue
			}
			d.stamp(o.m, now)
		}
		d.out = kept
	}
	if len(d.outq) > 0 {
		kept := d.outq[:0]
		for i, r := range d.outq {
			if len(kept) > 0 || !d.mc.Submit(r, now) {
				kept = append(kept, d.outq[i])
			}
		}
		d.outq = kept
	}
	d.sched(now)
}

func (d *Directory) sched(now sim.Cycle) {
	if d.inbox.Len() > 0 || len(d.out) > 0 || len(d.outq) > 0 {
		d.handle.SleepUntil(now + 1)
		return
	}
	wake := sim.FarFuture
	if c, ok := d.events.NextAt(); ok {
		wake = c
	}
	d.handle.SleepUntil(wake)
}

// inject sends a message, queueing for in-order retry on backpressure.
func (d *Directory) inject(m *message, dst int, now sim.Cycle) {
	if len(d.out) == 0 && d.f.send(d.node, dst, m, now) {
		d.stamp(m, now)
		return
	}
	d.out = append(d.out, outMsg{m: m, dst: dst})
	d.handle.Wake()
}

// stamp records the injection of a data/grant response on the
// requester's lifecycle.
func (d *Directory) stamp(m *message, now sim.Cycle) {
	switch m.kind {
	case mData, mDataE, mAckM:
		m.tag.RespInject(now)
	}
}

// memRead issues the protocol's memory read for a busy entry. The
// requester's attribution tag rides along, so the controller and DRAM
// stamp the same lifecycle they would in the shared-L2 hierarchy.
func (d *Directory) memRead(m *message, now sim.Cycle) {
	d.stats.MemReads++
	r := d.f.ids.NewRequest()
	r.Kind = mem.Read
	r.Addr = m.line
	r.Line = m.line
	r.Core = m.from
	r.Born = now
	r.Attrib = m.tag
	r.OnDone = d.onMemRead
	if !d.mc.Submit(r, now) {
		d.outq = append(d.outq, r)
		d.handle.Wake()
	}
}

// memWrite issues a protocol writeback (PutM data, FwdGetS demotion
// data, or an orphan write) to memory.
func (d *Directory) memWrite(line mem.Addr, now sim.Cycle) {
	d.stats.MemWrites++
	r := d.f.ids.NewRequest()
	r.Kind = mem.Writeback
	r.Addr = line
	r.Line = line
	r.Core = -1
	r.Born = now
	if !d.mc.Submit(r, now) {
		d.outq = append(d.outq, r)
		d.handle.Wake()
	}
}

// memReadDone completes a trBusyMem* entry: grant the data and settle.
func (d *Directory) memReadDone(r *mem.Request, now sim.Cycle) {
	line := r.Line
	e, ok := d.lines[line]
	if !ok || (e.state != trBusyMemS && e.state != trBusyMemM) {
		panic(fmt.Sprintf("coherence: dir%d memory read for line %#x outside a memory wait", d.id, uint64(line)))
	}
	req := e.req
	e.req = nil
	kind, excl := mDataE, e.state == trBusyMemM
	if !excl && e.sharerCount() > 0 {
		d.stats.DataS++
		kind = mData
		e.state = dirS
		e.setSharer(req.from)
	} else {
		// A GetM, or a GetS with no sharers (MESI's E grant): both are
		// tracked as ownership.
		d.stats.DataE++
		e.state = dirM
		e.owner = req.from
		e.clearSharers()
	}
	grant := d.f.newMsg(kind, line, d.node)
	grant.excl = excl
	grant.tag = req.tag
	d.inject(grant, req.from, now)
	d.f.putMsg(req)
	d.settle(line, e, now)
}

// process handles one protocol message at this bank: it looks the line
// up once, materializing an absent line as a dirI entry, hands the
// message to its handler, then settles the line.
func (d *Directory) process(m *message, now sim.Cycle) {
	e, ok := d.lines[m.line]
	if !ok {
		e = d.newEntry()
		d.lines[m.line] = e
	}
	d.dispatch(m, e, now)
	d.settle(m.line, e, now)
}

// settle is the only place deferred requests are replayed, and it runs
// after every message and memory completion. While the line is stable
// it replays them in arrival order; one that makes the line busy stops
// the replay until that transaction completes and settles again. A line
// back in dirI (its queue necessarily empty) is reclaimed.
func (d *Directory) settle(line mem.Addr, e *dirEntry, now sim.Cycle) {
	for !e.state.busy() && len(e.deferred) > 0 {
		m := e.deferred[0]
		n := copy(e.deferred, e.deferred[1:])
		e.deferred[n] = nil
		e.deferred = e.deferred[:n]
		d.dispatch(m, e, now)
	}
	if e.state == dirI {
		delete(d.lines, line)
		d.releaseEntry(e)
	}
}

// dispatch runs a message's handler. Handlers only move the entry
// between states; none replays the deferred queue.
func (d *Directory) dispatch(m *message, e *dirEntry, now sim.Cycle) {
	switch m.kind {
	case mGetS:
		d.getS(m, e, now)
	case mGetM:
		d.getM(m, e, now)
	case mPutM:
		d.putM(m, e, now)
	case mInvAck:
		d.invAck(m, e, now)
	case mWBData:
		d.wbData(m, e, now)
	default:
		panic(fmt.Sprintf("coherence: dir%d received %s", d.id, m.kind))
	}
}

// defer_ parks a request behind a busy line.
func (d *Directory) defer_(m *message, e *dirEntry) {
	d.stats.Deferred++
	e.deferred = append(e.deferred, m)
}

func (d *Directory) getS(m *message, e *dirEntry, now sim.Cycle) {
	switch e.state {
	case dirI, dirS:
		// Memory is clean in I and S; the data comes from DRAM.
		e.state = trBusyMemS
		e.req = m
		d.memRead(m, now)
	case dirM:
		d.stats.FwdGetS++
		e.state = trBusyFwdS
		e.req = m
		fwd := d.f.newMsg(mFwdGetS, m.line, d.node)
		fwd.requester = m.from
		fwd.tag = m.tag
		d.inject(fwd, e.owner, now)
	default:
		d.defer_(m, e)
	}
}

func (d *Directory) getM(m *message, e *dirEntry, now sim.Cycle) {
	switch e.state {
	case dirI:
		e.state = trBusyMemM
		e.req = m
		d.memRead(m, now)
	case dirS:
		wasSharer := e.isSharer(m.from)
		others := e.sharerCount()
		if wasSharer {
			others--
		}
		if others == 0 {
			// Sole sharer upgrading: grant immediately.
			d.grantAckM(m, e, now)
			return
		}
		e.state = trBusyInv
		e.req = m
		e.reqWasSharer = wasSharer
		e.acksLeft = others
		for c := 0; c < d.f.cfg.Cores; c++ {
			if c != m.from && e.isSharer(c) {
				d.stats.InvSent++
				inv := d.f.newMsg(mInv, m.line, d.node)
				d.inject(inv, c, now)
			}
		}
	case dirM:
		// Forward-and-forget: ownership moves to the requester now;
		// the old owner serves the data (from cache or its writeback
		// buffer) without further directory involvement.
		d.stats.FwdGetM++
		fwd := d.f.newMsg(mFwdGetM, m.line, d.node)
		fwd.requester = m.from
		fwd.tag = m.tag
		d.inject(fwd, e.owner, now)
		e.owner = m.from
		d.f.putMsg(m)
	default:
		d.defer_(m, e)
	}
}

// grantAckM upgrades a sharer to owner without a data transfer.
func (d *Directory) grantAckM(m *message, e *dirEntry, now sim.Cycle) {
	d.stats.AckM++
	e.state = dirM
	e.owner = m.from
	e.clearSharers()
	ack := d.f.newMsg(mAckM, m.line, d.node)
	ack.tag = m.tag
	d.inject(ack, m.from, now)
	d.f.putMsg(m)
}

func (d *Directory) putM(m *message, e *dirEntry, now sim.Cycle) {
	switch {
	case e.state == dirM && e.owner == m.from:
		// The owner's eviction: write the data, retire the line.
		if !m.clean {
			d.memWrite(m.line, now)
		}
		e.state = dirI
		e.owner = -1
		d.ackWB(m, now)
	case e.state == trBusyFwdS && e.owner == m.from:
		// Writeback race: our FwdGetS crossed the owner's eviction.
		// The owner serves the requester from its writeback buffer,
		// and this PutM doubles as the demotion data — the evicted
		// owner keeps no copy, so only the requester shares.
		d.stats.WBRaces++
		if !m.clean {
			d.memWrite(m.line, now)
		}
		req := e.req
		e.req = nil
		e.state = dirS
		e.owner = -1
		e.clearSharers()
		e.setSharer(req.from)
		d.f.putMsg(req)
		d.ackWB(m, now)
	case e.state.busy():
		d.defer_(m, e)
	default:
		// Stale PutM: the sender lost ownership before the eviction
		// arrived (a forward beat it) or never had it (an orphan L1
		// writeback). With no newer owner the data is still the
		// freshest copy, so it reaches memory; under dirM the new
		// owner's copy supersedes it and the data is dropped.
		d.stats.StalePutM++
		if !m.clean && e.state != dirM {
			d.memWrite(m.line, now)
		}
		d.ackWB(m, now)
	}
}

// ackWB acknowledges a PutM/PutE so the sender retires its
// writeback-buffer entry, then releases the message.
func (d *Directory) ackWB(m *message, now sim.Cycle) {
	ack := d.f.newMsg(mWBAck, m.line, d.node)
	d.inject(ack, m.from, now)
	d.f.putMsg(m)
}

func (d *Directory) invAck(m *message, e *dirEntry, now sim.Cycle) {
	d.stats.InvAcks++
	if e.state != trBusyInv {
		panic(fmt.Sprintf("coherence: dir%d InvAck for line %#x in state %s", d.id, uint64(m.line), e.state))
	}
	d.f.putMsg(m)
	e.acksLeft--
	if e.acksLeft > 0 {
		return
	}
	req := e.req
	if e.reqWasSharer {
		// The requester held the data in S all along: upgrade.
		e.req = nil
		d.grantAckM(req, e, now)
		return
	}
	// The requester never had the data (its S copy was evicted, or it
	// never shared): fetch it from memory.
	e.state = trBusyMemM
	d.memRead(req, now)
}

func (d *Directory) wbData(m *message, e *dirEntry, now sim.Cycle) {
	if e.state != trBusyFwdS {
		panic(fmt.Sprintf("coherence: dir%d WBData for line %#x in state %s", d.id, uint64(m.line), e.state))
	}
	if m.dirty {
		d.memWrite(m.line, now)
	}
	req := e.req
	e.req = nil
	e.state = dirS
	e.clearSharers()
	e.setSharer(m.from)      // the demoted owner keeps an S copy
	e.setSharer(m.requester) // the requester got the data cache-to-cache
	e.owner = -1
	d.f.putMsg(req)
	d.f.putMsg(m)
}
