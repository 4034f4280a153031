package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"stackedsim/internal/sim"
)

// fullScanTick is the reference router walk: it peeks every port of
// every router, as Tick did before it tracked occupied ports. It shares
// the mesh's dequeue bookkeeping so the occupancy masks stay valid.
func fullScanTick(m *Mesh, now sim.Cycle) {
	m.events.FireDue(now)
	for r := range m.routers {
		rt := &m.routers[r]
		for pt := 0; pt < numPorts; pt++ {
			msg, ok := rt.in[pt].q.Peek()
			if !ok {
				continue
			}
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
}

// checkOccupancy verifies the router and port masks against the queues.
func checkOccupancy(t *testing.T, m *Mesh, now sim.Cycle) {
	t.Helper()
	for r := range m.routers {
		rt := &m.routers[r]
		for pt := 0; pt < numPorts; pt++ {
			if got, want := rt.occupied&(1<<pt) != 0, !rt.in[pt].q.Empty(); got != want {
				t.Fatalf("cycle %d router %d port %d: occupied bit %v, queue non-empty %v", now, r, pt, got, want)
			}
		}
		if got, want := m.active[r>>6]&(1<<(r&63)) != 0, rt.occupied != 0; got != want {
			t.Fatalf("cycle %d router %d: active bit %v, occupied ports %v", now, r, got, want)
		}
	}
}

// TestOccupiedWalkMatchesFullScan drives random traffic, heavy enough
// to stall on credits and links, through a 9x9 mesh (more than 64
// routers, so the router mask spans two words) twice: once with Tick
// and once with the full-scan reference. Delivery logs, counters and
// in-flight counts must agree on every cycle.
func TestOccupiedWalkMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := Params{W: 9, H: 9, LinkBytes: 16, LinkLatency: 1, RouterLatency: 2, BufPkts: 2}
		run := func(tick func(*Mesh, sim.Cycle), check bool) (string, Stats, []int) {
			m := New(p)
			log := ""
			m.Deliver = func(dst int, msg *Msg, now sim.Cycle) {
				log += fmt.Sprintf("%d<-%d:%v@%d;", dst, msg.Src, msg.Payload, now)
			}
			rng := rand.New(rand.NewSource(seed))
			var inFlight []int
			for c := sim.Cycle(0); c < 600; c++ {
				if c < 400 {
					for k := rng.Intn(12); k > 0; k-- {
						m.Send(rng.Intn(81), rng.Intn(81), 8+rng.Intn(72), k, c)
					}
				}
				tick(m, c)
				if check {
					checkOccupancy(t, m, c)
				}
				inFlight = append(inFlight, m.InFlight())
			}
			return log, *m.Stats(), inFlight
		}
		l1, s1, f1 := run((*Mesh).Tick, true)
		l2, s2, f2 := run(fullScanTick, false)
		if l1 != l2 || s1 != s2 || fmt.Sprint(f1) != fmt.Sprint(f2) {
			t.Fatalf("seed %d: occupied-port walk diverged from full scan\nstats %+v\nvs    %+v", seed, s1, s2)
		}
		if s1.CreditStalls == 0 || s1.LinkStalls == 0 || s1.Delivered != s1.Injected {
			t.Fatalf("seed %d: traffic too light or lossy to exercise the walk: %+v", seed, s1)
		}
	}
}

// TestConservationAcrossReset resets the counters while messages are
// queued and on links, as the warmup boundary does, and requires the
// conservation check to hold at every later cycle boundary.
func TestConservationAcrossReset(t *testing.T) {
	m := New(Params{W: 4, H: 4, LinkBytes: 16, LinkLatency: 1, RouterLatency: 2, BufPkts: 2})
	m.Deliver = func(int, *Msg, sim.Cycle) {}
	rng := rand.New(rand.NewSource(1))
	for c := sim.Cycle(0); c < 300; c++ {
		if c < 200 {
			m.Send(rng.Intn(16), rng.Intn(16), 64, nil, c)
		}
		if c == 100 {
			m.ResetStats()
			if m.Carried() == 0 {
				t.Fatal("nothing in flight at the reset; test exercises nothing")
			}
		}
		m.Tick(c)
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	if m.InFlight() != 0 {
		t.Fatalf("mesh not drained: %d in flight", m.InFlight())
	}
	if s := m.Stats(); s.Delivered <= s.Injected {
		t.Fatalf("delivered %d <= injected %d: no carried message was delivered after the reset", s.Delivered, s.Injected)
	}
}

// TestConservationCatchesDrop removes a queued message without
// delivering it; the check must fail.
func TestConservationCatchesDrop(t *testing.T) {
	m := New(Params{W: 2, H: 2, LinkBytes: 16, LinkLatency: 1, RouterLatency: 1, BufPkts: 4})
	m.Deliver = func(int, *Msg, sim.Cycle) {}
	m.Send(0, 3, 8, nil, 0)
	m.Send(1, 2, 8, nil, 0)
	m.ResetStats()
	m.Send(2, 1, 8, nil, 1)
	if err := m.CheckConservation(); err != nil {
		t.Fatalf("intact mesh failed the check: %v", err)
	}
	m.dequeue(2, portLocal) // lost inside the router
	drive(m, 40)
	if err := m.CheckConservation(); err == nil {
		t.Fatal("a dropped message passed the conservation check")
	}
}

// TestConservationCatchesDoubleDelivery ejects a message twice; the
// check must fail.
func TestConservationCatchesDoubleDelivery(t *testing.T) {
	m := New(Params{W: 2, H: 2, LinkBytes: 16, LinkLatency: 1, RouterLatency: 1, BufPkts: 4})
	var last *Msg
	m.Deliver = func(_ int, msg *Msg, _ sim.Cycle) { last = msg }
	m.Send(0, 3, 8, nil, 0)
	drive(m, 40)
	if err := m.CheckConservation(); err != nil {
		t.Fatalf("intact mesh failed the check: %v", err)
	}
	m.eject(last, 40)
	if err := m.CheckConservation(); err == nil {
		t.Fatal("a double delivery passed the conservation check")
	}
}

// TestMeshSteadyStateZeroAlloc pins that once buffers and the message
// pool are warm, a Send, the Ticks that route it and its delivery
// allocate nothing.
func TestMeshSteadyStateZeroAlloc(t *testing.T) {
	m := New(Params{W: 4, H: 4, LinkBytes: 16, LinkLatency: 1, RouterLatency: 2, BufPkts: 4})
	delivered := 0
	m.Deliver = func(int, *Msg, sim.Cycle) { delivered++ }
	payload := &struct{ x int }{}
	now := sim.Cycle(0)
	round := func() {
		m.Send(0, 15, 72, payload, now)
		m.Send(15, 0, 8, payload, now)
		for m.InFlight() > 0 {
			m.Tick(now)
			now++
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state Send/Tick/deliver allocated %.1f times per round, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
