package coherence

import (
	"fmt"

	"stackedsim/internal/attrib"
	"stackedsim/internal/cache"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// pstate is a line's stable MESI state in a private L2. Absence from
// the state map is I.
type pstate uint8

const (
	psShared pstate = iota + 1
	psExcl
	psModified
)

// pl2Miss is one outstanding miss (the private L2's MSHR entry): a
// GetS or GetM in flight, holding the L1 requests that wait on it.
type pl2Miss struct {
	line     mem.Addr
	excl     bool // a GetM is outstanding
	wantExcl bool // a store merged in after the GetS left; chase M after the fill
	dirtyWB  bool // an L1 writeback merged in; the fill installs modified
	// noInstall: an invalidation crossed the in-flight fill (the
	// directory granted us the line, then a writer claimed the epoch
	// before the data landed). Serve the waiters once, install nothing.
	noInstall bool
	// fwds holds forwards that arrived before our own fill: the
	// directory chains ownership forward-and-forget, so a FwdGetS/M
	// can reach us while the data is still in flight from the old
	// owner. Drained after the fill installs.
	fwds    []*message
	waiters []*mem.Request
}

// wbEntry is one eviction held in the writeback buffer: a PutM/PutE in
// flight awaiting the directory's WBAck. Until the ack arrives the
// entry can serve a racing forward on the directory's behalf.
type wbEntry struct {
	dirty bool
	// redirty: an orphan L1 writeback landed while a clean PutE was in
	// flight; re-send a dirty PutM once the ack retires this entry.
	redirty bool
}

// PL2Stats counts private-L2 events.
type PL2Stats struct {
	Accesses      uint64
	Hits          uint64
	DemandMisses  uint64
	Merges        uint64
	MSHRStalls    uint64
	WBHolds       uint64 // misses held back behind an unacknowledged eviction
	PrefetchDrops uint64
	WritebacksIn  uint64
	OrphanWB      uint64 // L1 writeback for a line this L2 no longer holds
	Upgrades      uint64 // GetM issued with the data already held in S
	InvRecv       uint64
	InvL1Dirty    uint64 // invalidation hit a dirty L1 copy (write lost the race)
	FwdServed     uint64 // forwards served from the cache
	FwdFromWB     uint64 // forwards served from the writeback buffer (race)
	FwdDeferred   uint64 // forwards held until our own in-flight fill landed
	FillDropped   uint64 // fills discarded: invalidated while the data was in flight
	EvictShared   uint64 // silent S evictions
	EvictOwned    uint64 // E/M evictions (PutE/PutM)
}

// outMsg is an injection the mesh rejected, queued for retry.
type outMsg struct {
	m   *message
	dst int
}

// PrivateL2 is one core's private second-level cache: a MESI cache
// controller implementing cache.Port toward the core's L1s and speaking
// the directory protocol over the mesh. Hits complete after the
// configured latency; misses allocate a bounded miss table entry and
// send GetS/GetM to the line's home directory.
type PrivateL2 struct {
	f    *Fabric
	id   int // core == mesh node
	arr  *cache.Array
	lat  sim.Cycle
	cap  int // miss table bound

	states map[mem.Addr]pstate
	misses map[mem.Addr]*pl2Miss
	wb     map[mem.Addr]*wbEntry

	inbox  *sim.Queue[*message]
	out    []outMsg
	events sim.EventQueue
	handle *sim.TickHandle

	// dl1/il1 are the L1s stacked above, invalidated alongside this
	// cache on protocol actions. Set via SetL1s after construction.
	dl1, il1 *cache.L1

	freeMiss []*pl2Miss
	freeWB   []*wbEntry

	completeReq func(arg any, at sim.Cycle)

	stats PL2Stats
}

func newPrivateL2(f *Fabric, id int) *PrivateL2 {
	cfg := f.cfg
	p := &PrivateL2{
		f:      f,
		id:     id,
		arr:    cache.NewArrayBySize(fmt.Sprintf("pl2.%d", id), cfg.PrivL2KB*1024, cfg.PrivL2Ways, cfg.LineBytes),
		lat:    sim.Cycle(cfg.PrivL2Latency),
		cap:    cfg.PrivL2MSHRs,
		states: make(map[mem.Addr]pstate),
		misses: make(map[mem.Addr]*pl2Miss),
		wb:     make(map[mem.Addr]*wbEntry),
		inbox:  sim.NewQueue[*message](0),
	}
	p.completeReq = func(arg any, at sim.Cycle) { arg.(*mem.Request).Complete(at) }
	return p
}

// SetL1s attaches the L1s whose copies this controller invalidates on
// coherence actions.
func (p *PrivateL2) SetL1s(dl1, il1 *cache.L1) { p.dl1, p.il1 = dl1, il1 }

// Stats returns the counters.
func (p *PrivateL2) Stats() *PL2Stats { return &p.stats }

func (p *PrivateL2) setHandle(h *sim.TickHandle) {
	p.handle = h
	h.SleepUntil(sim.FarFuture)
}

// OutstandingMisses reports live miss-table entries — test hook.
func (p *PrivateL2) OutstandingMisses() int { return len(p.misses) }

// WritebacksInFlight reports writeback-buffer entries — test hook.
func (p *PrivateL2) WritebacksInFlight() int { return len(p.wb) }

func (p *PrivateL2) newMiss(line mem.Addr, excl bool) *pl2Miss {
	if n := len(p.freeMiss); n > 0 {
		m := p.freeMiss[n-1]
		p.freeMiss[n-1] = nil
		p.freeMiss = p.freeMiss[:n-1]
		waiters := m.waiters[:0]
		for i := range m.waiters {
			m.waiters[i] = nil
		}
		*m = pl2Miss{line: line, excl: excl, waiters: waiters}
		return m
	}
	return &pl2Miss{line: line, excl: excl}
}

func (p *PrivateL2) releaseMiss(m *pl2Miss) { p.freeMiss = append(p.freeMiss, m) }

func (p *PrivateL2) newWB(dirty bool) *wbEntry {
	if n := len(p.freeWB); n > 0 {
		w := p.freeWB[n-1]
		p.freeWB[n-1] = nil
		p.freeWB = p.freeWB[:n-1]
		*w = wbEntry{dirty: dirty}
		return w
	}
	return &wbEntry{dirty: dirty}
}

// Submit accepts a request from an L1 (cache.Port). False means the
// miss table is full and the L1 must retry — the backpressure path.
func (p *PrivateL2) Submit(r *mem.Request, now sim.Cycle) bool {
	if r.Kind == mem.Writeback {
		return p.submitWB(r, now)
	}
	p.stats.Accesses++
	line := r.Line
	st := p.states[line]
	if st != 0 && !(r.Excl && st == psShared) {
		// Hit with sufficient permission. An exclusive copy a store
		// touches becomes modified now; the write is coming.
		if r.Excl {
			p.states[line] = psModified
		}
		p.arr.Lookup(line) // LRU touch
		p.stats.Hits++
		p.events.AtCall(now+p.lat, p.completeReq, r)
		p.handle.Wake()
		return true
	}
	// Miss — or an upgrade: data in hand (S) but a store needs M.
	if m, ok := p.misses[line]; ok {
		p.stats.Merges++
		if r.Excl {
			m.wantExcl = true
		}
		if r.Attrib == nil && r.Kind.IsDemand() && r.Core >= 0 {
			r.Attrib = p.f.attrib.NewTag(now, r.Core)
			r.Attrib.MarkMerged()
		}
		m.waiters = append(m.waiters, r)
		return true
	}
	if _, ok := p.wb[line]; ok {
		// The line's eviction has not been acknowledged yet. A new
		// GetS/GetM now would race the in-flight PutM at the directory
		// and let the ack retire a line we just re-acquired — hold the
		// request back until the writeback buffer drains.
		if r.Kind == mem.Prefetch {
			p.stats.PrefetchDrops++
			r.Dropped = true
			r.Complete(now)
			return true
		}
		p.stats.WBHolds++
		return false
	}
	if len(p.misses) >= p.cap {
		if r.Kind == mem.Prefetch {
			p.stats.PrefetchDrops++
			r.Dropped = true
			r.Complete(now)
			return true
		}
		p.stats.MSHRStalls++
		return false
	}
	if r.Kind.IsDemand() && r.Core >= 0 {
		p.stats.DemandMisses++
	}
	excl := r.Excl
	if excl && st == psShared {
		p.stats.Upgrades++
	}
	if r.Attrib == nil && r.Kind.IsDemand() && r.Core >= 0 {
		r.Attrib = p.f.attrib.NewTag(now, r.Core)
	}
	r.Attrib.Alloc(now)
	m := p.newMiss(line, excl)
	m.waiters = append(m.waiters, r)
	p.misses[line] = m
	p.sendRequest(m, r.Attrib, now)
	return true
}

// submitWB absorbs an L1 dirty eviction. The write must never be lost:
// it merges into an in-flight miss, marks an owned line modified,
// chases ownership when the line is only shared, or passes through to
// the directory as an orphan PutM when the line is long gone.
func (p *PrivateL2) submitWB(r *mem.Request, now sim.Cycle) bool {
	p.stats.WritebacksIn++
	line := r.Line
	if m, ok := p.misses[line]; ok {
		m.dirtyWB = true
		if !m.excl {
			m.wantExcl = true
		}
		r.Complete(now)
		return true
	}
	switch p.states[line] {
	case psModified:
		// Already dirty here; the L1 copy folds in.
	case psExcl:
		p.states[line] = psModified
	case psShared:
		// Shared with dirty data above: chase ownership, holding the
		// write in the miss entry. A full miss table pushes back — the
		// L1 retries rather than dropping the write.
		if len(p.misses) >= p.cap {
			p.stats.WritebacksIn-- // retried: do not double count
			return false
		}
		p.stats.Upgrades++
		m := p.newMiss(line, true)
		m.dirtyWB = true
		p.misses[line] = m
		p.sendRequest(m, nil, now)
	default:
		// Orphan: this L2 evicted the line while the L1 kept a dirty
		// copy. Pass the write through to the home directory.
		p.stats.OrphanWB++
		if w, ok := p.wb[line]; ok {
			// An eviction for the same line is still in flight; if it
			// carried no data, send a dirty PutM after its ack.
			if !w.dirty {
				w.redirty = true
			}
		} else {
			p.sendPutM(line, true, now)
		}
	}
	r.Complete(now)
	return true
}

// StoreHint is the L1's notification of a store that completed inside
// the L1 (hit or merge). Exclusive copies upgrade silently; shared
// copies chase ownership in the background, best-effort — the
// writeback path is the safety net if no miss slot is free.
func (p *PrivateL2) StoreHint(line mem.Addr, now sim.Cycle) {
	switch p.states[line] {
	case psExcl:
		p.states[line] = psModified
	case psShared:
		if m, ok := p.misses[line]; ok {
			m.wantExcl = true
			return
		}
		if len(p.misses) >= p.cap {
			return
		}
		p.stats.Upgrades++
		m := p.newMiss(line, true)
		m.dirtyWB = true // the L1 copy is dirty the moment the hint fires
		p.misses[line] = m
		p.sendRequest(m, nil, now)
	}
}

// sendRequest injects the GetS/GetM for a fresh miss toward the line's
// home directory.
func (p *PrivateL2) sendRequest(m *pl2Miss, tag *attrib.Tag, now sim.Cycle) {
	kind := mGetS
	if m.excl {
		kind = mGetM
	}
	msg := p.f.newMsg(kind, m.line, p.id)
	msg.tag = tag
	p.inject(msg, p.f.homeDir(m.line).node, now)
}

// sendPutM evicts an owned (or orphaned) line: PutM with data when
// dirty, PutE otherwise, held in the writeback buffer until WBAck.
func (p *PrivateL2) sendPutM(line mem.Addr, dirty bool, now sim.Cycle) {
	p.wb[line] = p.newWB(dirty)
	msg := p.f.newMsg(mPutM, line, p.id)
	msg.clean = !dirty
	p.inject(msg, p.f.homeDir(line).node, now)
}

// inject sends msg into the mesh, queueing it for retry (in order) when
// the injection port is out of credits. Request tags are stamped at the
// moment the message actually enters the network.
func (p *PrivateL2) inject(msg *message, dst int, now sim.Cycle) {
	if len(p.out) == 0 && p.f.send(p.id, dst, msg, now) {
		p.stamp(msg, now)
		return
	}
	p.out = append(p.out, outMsg{m: msg, dst: dst})
	p.handle.Wake()
}

// stamp records the network entry of a message on its attrib tag.
func (p *PrivateL2) stamp(msg *message, now sim.Cycle) {
	switch msg.kind {
	case mGetS, mGetM:
		msg.tag.Inject(now)
	case mDataOwner:
		msg.tag.RespInject(now)
	}
}

// recv queues a delivered message; processing happens in Tick, keeping
// mesh ejection and protocol work in separate engine phases.
func (p *PrivateL2) recv(m *message, now sim.Cycle) {
	p.inbox.Push(m)
	p.handle.Wake()
}

// Tick drains the inbox, fires due hit completions, and retries
// rejected injections.
func (p *PrivateL2) Tick(now sim.Cycle) {
	p.events.FireDue(now)
	for {
		m, ok := p.inbox.Pop()
		if !ok {
			break
		}
		p.process(m, now)
	}
	if len(p.out) > 0 {
		kept := p.out[:0]
		for i, o := range p.out {
			if len(kept) > 0 || !p.f.send(p.id, o.dst, o.m, now) {
				kept = append(kept, p.out[i])
				continue
			}
			p.stamp(o.m, now)
		}
		p.out = kept
	}
	p.sched(now)
}

func (p *PrivateL2) sched(now sim.Cycle) {
	if len(p.out) > 0 || p.inbox.Len() > 0 {
		p.handle.SleepUntil(now + 1)
		return
	}
	wake := sim.FarFuture
	if c, ok := p.events.NextAt(); ok {
		wake = c
	}
	p.handle.SleepUntil(wake)
}

// process handles one protocol message addressed to this cache.
func (p *PrivateL2) process(m *message, now sim.Cycle) {
	switch m.kind {
	case mData, mDataE, mDataOwner:
		p.fill(m, now)
	case mAckM:
		p.ackM(m, now)
	case mWBAck:
		p.wbAck(m, now)
	case mInv:
		p.invalidate(m, now)
	case mFwdGetS, mFwdGetM:
		// The directory chains ownership forward-and-forget, so a
		// forward can arrive before the data that makes us owner (our
		// fill rides a different source node and the mesh only orders
		// per source-destination pair). Hold it on the miss until the
		// fill lands.
		if st := p.states[m.line]; st != psExcl && st != psModified {
			if _, wbOK := p.wb[m.line]; !wbOK {
				if ms, msOK := p.misses[m.line]; msOK {
					p.stats.FwdDeferred++
					ms.fwds = append(ms.fwds, m)
					return // m stays alive; drained after the fill
				}
			}
		}
		if m.kind == mFwdGetS {
			p.fwdGetS(m, now)
		} else {
			p.fwdGetM(m, now)
		}
	default:
		panic(fmt.Sprintf("coherence: private L2 %d received %s", p.id, m.kind))
	}
	p.f.putMsg(m)
}

// fill completes a miss with arriving data: install the line in its
// granted state, evict the victim, wake the waiters.
func (p *PrivateL2) fill(m *message, now sim.Cycle) {
	line := m.line
	miss, ok := p.misses[line]
	if !ok {
		panic(fmt.Sprintf("coherence: %s for line %#x with no miss at core %d", m.kind, uint64(line), p.id))
	}
	delete(p.misses, line)

	st := psShared
	switch m.kind {
	case mDataE:
		st = psExcl
		if m.excl {
			st = psModified // exclusive grant for a store
		}
	case mDataOwner:
		if m.excl {
			st = psModified
		}
	}
	// A store that merged while the GetS was in flight — or an L1
	// writeback — claims an exclusive grant silently (E→M needs no
	// message); a shared grant needs a follow-up upgrade.
	if (miss.wantExcl || miss.dirtyWB) && st == psExcl {
		st = psModified
	}
	if miss.dirtyWB {
		st = psModified
	}
	if miss.noInstall && st == psShared {
		// An invalidation crossed a shared grant: the waiters read the
		// data once (loads order before the invalidation), nothing
		// installs, and the L1 copy the completions leave behind is
		// scrubbed — a store that raced in departs as an orphan
		// writeback for the stale-PutM rule. An ownership grant
		// (E/M) is necessarily from a newer epoch than the Inv and
		// installs normally.
		p.stats.FillDropped++
		p.finishWaiters(m.tag, miss, now)
		if _, dirty := p.dl1.InvalidateLine(line); dirty {
			p.stats.OrphanWB++
			p.sendPutM(line, true, now)
		}
		p.il1.InvalidateLine(line)
		p.drainFwds(miss, now)
		p.releaseMiss(miss)
		return
	}
	p.install(line, st, now)
	p.finishWaiters(m.tag, miss, now)
	if st == psShared && miss.wantExcl {
		// The grant was only S but a store already happened above:
		// chase ownership in the background (best-effort; the L1
		// writeback path is the safety net).
		p.StoreHint(line, now)
	}
	p.drainFwds(miss, now)
	p.releaseMiss(miss)
}

// drainFwds replays, in arrival order, forwards that arrived before the
// fill they depend on. The protocol parks at most one per miss: after a
// FwdGetM this core cannot own the line again while its miss is open,
// and a FwdGetS keeps the line busy at the directory until this core's
// WBData.
func (p *PrivateL2) drainFwds(miss *pl2Miss, now sim.Cycle) {
	for len(miss.fwds) > 0 {
		fm := miss.fwds[0]
		miss.fwds = miss.fwds[:copy(miss.fwds, miss.fwds[1:])]
		p.process(fm, now)
	}
}

// ackM completes an upgrade: the data was already here in S.
func (p *PrivateL2) ackM(m *message, now sim.Cycle) {
	miss, ok := p.misses[m.line]
	if !ok {
		panic(fmt.Sprintf("coherence: AckM for line %#x with no miss at core %d", uint64(m.line), p.id))
	}
	delete(p.misses, m.line)
	p.install(m.line, psModified, now)
	p.finishWaiters(m.tag, miss, now)
	p.drainFwds(miss, now)
	p.releaseMiss(miss)
}

// install places a line in the array (if capacity evicted it since the
// request left, it is simply re-installed) and records its state.
func (p *PrivateL2) install(line mem.Addr, st pstate, now sim.Cycle) {
	p.states[line] = st
	if p.arr.Lookup(line) {
		return
	}
	victim, _, evicted := p.arr.Fill(line, st == psModified)
	if evicted {
		p.evict(victim, now)
	}
}

// evict handles a capacity victim: silent for shared lines, PutE/PutM
// through the writeback buffer for owned ones. The L1 copies go too —
// a dirty L1 copy folds its data into the departing writeback.
func (p *PrivateL2) evict(victim mem.Addr, now sim.Cycle) {
	vst := p.states[victim]
	delete(p.states, victim)
	_, l1Dirty := p.dl1.InvalidateLine(victim)
	p.il1.InvalidateLine(victim)
	dirty := vst == psModified || l1Dirty
	if m, ok := p.misses[victim]; ok {
		// An upgrade is in flight for the victim (only upgrade misses
		// have their line resident). No PutM: the directory still sees
		// us as a sharer, the grant will re-install the line, and a
		// PutM now would race the grant. The dirty data rides the miss.
		m.dirtyWB = m.dirtyWB || dirty
		p.stats.EvictShared++
		return
	}
	if vst == psShared && !dirty {
		p.stats.EvictShared++
		return
	}
	if vst == psShared {
		// Dirty data above a merely-shared line (the best-effort
		// upgrade never got through): hand it to the directory as a
		// stale PutM — the directory writes memory for non-owners
		// unless a newer owner exists.
		p.stats.OrphanWB++
	} else {
		p.stats.EvictOwned++
	}
	p.sendPutM(victim, dirty, now)
}

// finishWaiters closes the attribution lifecycles and completes every
// L1 request parked on the miss.
func (p *PrivateL2) finishWaiters(tag *attrib.Tag, miss *pl2Miss, now sim.Cycle) {
	p.f.attrib.Finish(tag, now)
	for _, w := range miss.waiters {
		if w.Attrib != nil && w.Attrib.Merged {
			p.f.attrib.FinishMerged(w.Attrib, now)
		}
		w.Complete(now)
	}
}

// wbAck retires a writeback-buffer entry; a redirtied entry (an orphan
// L1 writeback landed mid-flight) immediately re-sends with data.
func (p *PrivateL2) wbAck(m *message, now sim.Cycle) {
	w, ok := p.wb[m.line]
	if !ok {
		panic(fmt.Sprintf("coherence: WBAck for line %#x with no writeback at core %d", uint64(m.line), p.id))
	}
	delete(p.wb, m.line)
	redirty := w.redirty
	p.freeWB = append(p.freeWB, w)
	if redirty {
		p.sendPutM(m.line, true, now)
	}
}

// invalidate drops a shared copy on the directory's order and acks. An
// in-flight miss for the same line is untouched — its fill belongs to
// the next coherence epoch.
func (p *PrivateL2) invalidate(m *message, now sim.Cycle) {
	p.stats.InvRecv++
	if p.states[m.line] != 0 {
		delete(p.states, m.line)
		p.arr.Invalidate(m.line)
		if _, dirty := p.dl1.InvalidateLine(m.line); dirty {
			p.stats.InvL1Dirty++
		}
		p.il1.InvalidateLine(m.line)
	} else if ms, ok := p.misses[m.line]; ok && !ms.excl {
		// No copy but a GetS in flight: either the directory already
		// granted us the line (the data — possibly cache-to-cache from
		// another core — races this Inv on an unordered path), or the
		// sharer record is stale and the fill will be fresh. Both are
		// safe to drop: serve the waiters once, install nothing.
		ms.noInstall = true
	}
	ack := p.f.newMsg(mInvAck, m.line, p.id)
	p.inject(ack, p.f.homeDir(m.line).node, now)
}

// fwdGetS serves a read for a line this cache owns: demote to S, send
// the data cache-to-cache, and hand the directory its writeback copy.
// An owner that just evicted serves from the writeback buffer instead —
// its in-flight PutM doubles as the demotion data at the directory.
func (p *PrivateL2) fwdGetS(m *message, now sim.Cycle) {
	line := m.line
	st := p.states[line]
	if st == psExcl || st == psModified {
		p.stats.FwdServed++
		p.states[line] = psShared
		data := p.f.newMsg(mDataOwner, line, p.id)
		data.tag = m.tag
		p.inject(data, m.requester, now)
		wbd := p.f.newMsg(mWBData, line, p.id)
		wbd.requester = m.requester
		wbd.dirty = st == psModified
		p.inject(wbd, p.f.homeDir(line).node, now)
		return
	}
	if _, ok := p.wb[line]; ok {
		p.stats.FwdFromWB++
		data := p.f.newMsg(mDataOwner, line, p.id)
		data.tag = m.tag
		p.inject(data, m.requester, now)
		return
	}
	panic(fmt.Sprintf("coherence: FwdGetS for line %#x at core %d, which owns nothing", uint64(line), p.id))
}

// fwdGetM hands a line's ownership to another core: send exclusive data
// cache-to-cache and invalidate every local copy.
func (p *PrivateL2) fwdGetM(m *message, now sim.Cycle) {
	line := m.line
	st := p.states[line]
	if st == psExcl || st == psModified {
		p.stats.FwdServed++
		delete(p.states, line)
		p.arr.Invalidate(line)
		p.dl1.InvalidateLine(line)
		p.il1.InvalidateLine(line)
	} else if _, ok := p.wb[line]; ok {
		p.stats.FwdFromWB++
	} else {
		panic(fmt.Sprintf("coherence: FwdGetM for line %#x at core %d, which owns nothing", uint64(line), p.id))
	}
	data := p.f.newMsg(mDataOwner, line, p.id)
	data.excl = true
	data.tag = m.tag
	p.inject(data, m.requester, now)
}
