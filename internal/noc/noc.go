// Package noc models a cycle-level 2D mesh network-on-chip. Each node
// hosts one router with five ports (local injection/ejection plus the
// four compass neighbours); messages are routed dimension-ordered
// (X first, then Y), serialized over links of configurable width and
// latency, and buffered in bounded per-port input queues with
// credit-based backpressure: a router only forwards a message when the
// downstream input buffer has a free slot reserved for it, so a full
// buffer stalls the upstream head in place instead of dropping.
//
// The whole mesh is one sim.Ticker: all routers advance in a fixed
// deterministic order inside Tick, link traversals are event-scheduled,
// and the mesh sleeps whenever no message is queued or in flight. Tick
// visits only routers and ports whose input queues hold a message, so
// its cost follows the traffic rather than the mesh size. The
// payload is opaque — the coherence layer (or any other client) owns
// the message semantics; the mesh only moves bytes.
package noc

import (
	"fmt"
	"math/bits"

	"stackedsim/internal/sim"
)

// Msg is one message in flight. Msgs are pooled by the mesh: obtain one
// via Send (which copies the caller's fields) and never retain a *Msg
// after the Deliver callback returns — the mesh recycles it.
type Msg struct {
	Src, Dst int
	Bytes    int
	Payload  any

	born sim.Cycle
	at   int // current router while traversing
	port int // input port the message occupies at .at
}

// Router ports, in the fixed arbitration order used by Tick. Local
// (injection) traffic wins ties, then the compass ports.
const (
	portLocal = iota
	portWest
	portEast
	portNorth
	portSouth
	numPorts
)

// opposite maps an output direction to the input port it feeds on the
// neighbouring router (a message leaving eastward arrives on the west
// port).
var opposite = [numPorts]int{portLocal, portEast, portWest, portSouth, portNorth}

// Params sizes a mesh.
type Params struct {
	W, H int
	// LinkBytes is the link width: bytes transferred per cycle, so a
	// message occupies a link for ceil(Bytes/LinkBytes) cycles.
	LinkBytes int
	// LinkLatency is the wire traversal delay added after serialization.
	LinkLatency sim.Cycle
	// RouterLatency is the per-hop pipeline delay (route computation,
	// switch allocation), also charged on local ejection.
	RouterLatency sim.Cycle
	// BufPkts bounds each input port's buffer in messages; it is the
	// credit count a sender can consume toward that port.
	BufPkts int
}

// Stats are the mesh's cumulative counters.
type Stats struct {
	Injected  uint64 // messages accepted by Send
	Rejected  uint64 // Send calls refused (local buffer full)
	Delivered uint64 // messages handed to the Deliver callback
	Hops      uint64 // router->router link traversals
	Flits     uint64 // link-cycles consumed by serialization
	// CreditStalls counts cycles a head-of-queue message could not
	// advance because the downstream input buffer was full; LinkStalls
	// counts cycles it waited for the output link to finish serializing
	// the previous message.
	CreditStalls uint64
	LinkStalls   uint64
	// LatencySum accumulates Send-to-Deliver cycles over all delivered
	// messages (divide by Delivered for the mean).
	LatencySum uint64
}

// AvgLatency is the mean Send-to-Deliver latency in cycles.
func (s *Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Delivered)
}

// AvgHops is the mean number of router->router traversals per
// delivered message (0 for purely local traffic).
func (s *Stats) AvgHops() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.Hops) / float64(s.Delivered)
}

type inPort struct {
	q *sim.Queue[*Msg]
	// reserved counts credits consumed against this buffer: messages
	// queued plus messages in flight on the incoming link. The queue
	// itself is unbounded; reserved enforces the BufPkts bound.
	reserved int
}

type router struct {
	in      [numPorts]inPort
	outBusy [numPorts]sim.Cycle // link busy (serializing) until this cycle
	// occupied has bit pt set iff in[pt] holds a message.
	occupied uint8
}

// Mesh is a W x H grid of routers. Node i sits at (i%W, i/W).
type Mesh struct {
	p       Params
	routers []router
	events  sim.EventQueue
	handle  *sim.TickHandle
	stats   Stats
	queued  int // messages resident in some input queue
	// active has bit r set iff router r has an occupied input port, so
	// Tick visits only routers with queued messages.
	active []uint64
	// carried is the number of messages in flight at the last
	// ResetStats: they were injected before the reset and may be
	// delivered after it.
	carried uint64

	// Deliver receives every message that reaches its destination's
	// local port. Must be set before traffic flows. The *Msg (and its
	// Payload) is only valid for the duration of the call.
	Deliver func(dst int, m *Msg, now sim.Cycle)

	free   []*Msg
	arrive func(arg any, at sim.Cycle)
	eject  func(arg any, at sim.Cycle)
}

// New builds an idle mesh.
func New(p Params) *Mesh {
	if p.W < 1 || p.H < 1 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", p.W, p.H))
	}
	if p.LinkBytes < 1 || p.BufPkts < 1 {
		panic("noc: LinkBytes and BufPkts must be positive")
	}
	m := &Mesh{p: p, routers: make([]router, p.W*p.H), active: make([]uint64, (p.W*p.H+63)/64)}
	for i := range m.routers {
		for pt := 0; pt < numPorts; pt++ {
			m.routers[i].in[pt].q = sim.NewQueue[*Msg](0)
		}
	}
	m.arrive = func(arg any, at sim.Cycle) {
		msg := arg.(*Msg)
		m.enqueue(msg.at, msg.port, msg)
	}
	m.eject = func(arg any, at sim.Cycle) {
		msg := arg.(*Msg)
		m.stats.Delivered++
		m.stats.LatencySum += uint64(at - msg.born)
		m.Deliver(msg.Dst, msg, at)
		m.release(msg)
	}
	return m
}

// Nodes reports the node count (W*H).
func (m *Mesh) Nodes() int { return m.p.W * m.p.H }

// SetHandle arms the idle fast-path: the mesh sleeps whenever nothing
// is queued or in flight and wakes on Send.
func (m *Mesh) SetHandle(h *sim.TickHandle) {
	m.handle = h
	h.SleepUntil(sim.FarFuture)
}

// Stats returns the counters.
func (m *Mesh) Stats() *Stats { return &m.stats }

// ResetStats clears the cumulative counters (warmup boundary) and
// records the messages still in flight, so CheckConservation stays
// exact across the reset.
func (m *Mesh) ResetStats() {
	m.stats = Stats{}
	m.carried = uint64(m.InFlight())
}

// Carried reports how many messages were in flight at the last
// ResetStats (zero before the first).
func (m *Mesh) Carried() uint64 { return m.carried }

// CheckConservation reports an error unless every message injected
// since the last ResetStats, or in flight at it, has been delivered
// exactly once or is still in flight. A lost message makes Delivered
// too small, a double delivery too large.
func (m *Mesh) CheckConservation() error {
	s := &m.stats
	inFlight := uint64(m.InFlight())
	if s.Delivered+inFlight != s.Injected+m.carried {
		return fmt.Errorf("mesh: delivered %d + in flight %d != injected %d + carried over reset %d",
			s.Delivered, inFlight, s.Injected, m.carried)
	}
	return nil
}

// InFlight reports messages currently queued or traversing links —
// zero means the mesh is drained.
func (m *Mesh) InFlight() int { return m.queued + m.events.Len() }

func (m *Mesh) release(msg *Msg) {
	msg.Payload = nil
	m.free = append(m.free, msg)
}

// Send injects a message at node src toward node dst. It returns false
// — consuming no resources — when src's local input buffer is out of
// credits; the caller retries later (backpressure reaches all the way
// into the clients). bytes sizes link serialization.
func (m *Mesh) Send(src, dst, bytes int, payload any, now sim.Cycle) bool {
	lp := &m.routers[src].in[portLocal]
	if lp.reserved >= m.p.BufPkts {
		m.stats.Rejected++
		return false
	}
	var msg *Msg
	if n := len(m.free); n > 0 {
		msg = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		msg = &Msg{}
	}
	*msg = Msg{Src: src, Dst: dst, Bytes: bytes, Payload: payload, born: now, at: src, port: portLocal}
	lp.reserved++
	m.enqueue(src, portLocal, msg)
	m.stats.Injected++
	if m.handle != nil {
		m.handle.Wake()
	}
	return true
}

// enqueue appends msg to input port pt of router r and marks both
// occupied.
func (m *Mesh) enqueue(r, pt int, msg *Msg) {
	rt := &m.routers[r]
	rt.in[pt].q.Push(msg)
	rt.occupied |= 1 << pt
	m.active[r>>6] |= 1 << (r & 63)
	m.queued++
}

// dequeue pops the head of input port pt of router r, clearing the
// occupancy bits it leaves empty.
func (m *Mesh) dequeue(r, pt int) {
	rt := &m.routers[r]
	ip := &rt.in[pt]
	ip.q.Pop()
	ip.reserved--
	m.queued--
	if ip.q.Empty() {
		rt.occupied &^= 1 << pt
		if rt.occupied == 0 {
			m.active[r>>6] &^= 1 << (r & 63)
		}
	}
}

// route returns the output port a message at node cur takes toward dst:
// X-dimension first, then Y, then local ejection.
func (m *Mesh) route(cur, dst int) int {
	cx, cy := cur%m.p.W, cur/m.p.W
	dx, dy := dst%m.p.W, dst/m.p.W
	switch {
	case cx < dx:
		return portEast
	case cx > dx:
		return portWest
	case cy < dy:
		return portSouth
	case cy > dy:
		return portNorth
	default:
		return portLocal
	}
}

// neighbor returns the node reached by leaving cur through out.
func (m *Mesh) neighbor(cur, out int) int {
	switch out {
	case portEast:
		return cur + 1
	case portWest:
		return cur - 1
	case portSouth:
		return cur + m.p.W
	case portNorth:
		return cur - m.p.W
	}
	return cur
}

// serCycles is the link occupancy of one message.
func (m *Mesh) serCycles(bytes int) sim.Cycle {
	if bytes < 1 {
		bytes = 1
	}
	return sim.Cycle((bytes + m.p.LinkBytes - 1) / m.p.LinkBytes)
}

// Tick advances every router one cycle: link arrivals land first, then
// each router considers the head of each input port (fixed order) and
// forwards or ejects at most one message per port.
//
// Only occupied ports are visited, walked in the same router-then-port
// order as a full scan. Nothing lands in an input queue during the walk
// (arrivals are events at least one cycle out), so each router's port
// mask can be read once when the walk reaches it.
func (m *Mesh) Tick(now sim.Cycle) {
	m.events.FireDue(now)
	for w, word := range m.active {
		for ; word != 0; word &= word - 1 {
			r := w<<6 | bits.TrailingZeros64(word)
			m.tickRouter(r, now)
		}
	}
	m.sched(now)
}

// tickRouter considers the head of each occupied input port of router r.
func (m *Mesh) tickRouter(r int, now sim.Cycle) {
	rt := &m.routers[r]
	for ports := rt.occupied; ports != 0; ports &= ports - 1 {
		pt := bits.TrailingZeros8(ports)
		msg, _ := rt.in[pt].q.Peek()
		out := m.route(r, msg.Dst)
		if out == portLocal {
			m.dequeue(r, pt)
			m.events.AtCall(now+m.p.RouterLatency, m.eject, msg)
			continue
		}
		if rt.outBusy[out] > now {
			m.stats.LinkStalls++
			continue
		}
		next := m.neighbor(r, out)
		np := &m.routers[next].in[opposite[out]]
		if np.reserved >= m.p.BufPkts {
			m.stats.CreditStalls++
			continue
		}
		m.dequeue(r, pt)
		np.reserved++
		ser := m.serCycles(msg.Bytes)
		rt.outBusy[out] = now + ser
		msg.at = next
		msg.port = opposite[out]
		m.stats.Hops++
		m.stats.Flits += uint64(ser)
		m.events.AtCall(now+m.p.RouterLatency+ser+m.p.LinkLatency, m.arrive, msg)
	}
}

// sched picks the sleep target after a tick: the next event if the
// queues are drained, the next cycle while any head can still move.
func (m *Mesh) sched(now sim.Cycle) {
	if m.handle == nil {
		return
	}
	if m.queued > 0 {
		m.handle.SleepUntil(now + 1)
		return
	}
	wake := sim.FarFuture
	if c, ok := m.events.NextAt(); ok {
		wake = c
	}
	m.handle.SleepUntil(wake)
}

// DigestWords folds the mesh counters into a run digest via emit.
func (m *Mesh) DigestWords(emit func(...uint64)) {
	s := &m.stats
	emit(s.Injected, s.Rejected, s.Delivered, s.Hops, s.Flits,
		s.CreditStalls, s.LinkStalls, s.LatencySum)
}
