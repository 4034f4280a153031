package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// refQueue is the reference event queue: an unordered slice scanned for
// the smallest (cycle, schedule order) on every pop.
type refQueue struct {
	pending []refEvent
	seq     uint64
}

type refEvent struct {
	at  Cycle
	seq uint64
	fn  func()
}

func (q *refQueue) at(c Cycle, fn func()) {
	q.seq++
	q.pending = append(q.pending, refEvent{at: c, seq: q.seq, fn: fn})
}

func (q *refQueue) fireDue(now Cycle) {
	for {
		best := -1
		for i, ev := range q.pending {
			if ev.at <= now && (best < 0 || ev.at < q.pending[best].at ||
				ev.at == q.pending[best].at && ev.seq < q.pending[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		ev := q.pending[best]
		q.pending = append(q.pending[:best], q.pending[best+1:]...)
		ev.fn()
	}
}

func (q *refQueue) nextAt() (Cycle, bool) {
	if len(q.pending) == 0 {
		return 0, false
	}
	next := q.pending[0].at
	for _, ev := range q.pending {
		if ev.at < next {
			next = ev.at
		}
	}
	return next, true
}

// evPlan is one scheduled event of the randomized queue test: the cycle
// it is scheduled for, relative to the cycle at which it is scheduled,
// which callback shape carries it, and the events its callback
// schedules when it fires.
type evPlan struct {
	id    int
	delta Cycle
	call  bool
	kids  []*evPlan
}

// randDelta draws a schedule offset covering the cases the calendar
// ring must order like a heap: the current and past cycles, the near
// future, the edge of the ring's span, beyond it, and far beyond.
func randDelta(rng *rand.Rand) Cycle {
	switch rng.Intn(10) {
	case 0, 1:
		return -Cycle(rng.Intn(6))
	case 2, 3, 4, 5:
		return Cycle(rng.Intn(8))
	case 6, 7:
		return Cycle(ringSize - 4 + rng.Intn(8))
	case 8:
		return Cycle(ringSize + rng.Intn(300))
	default:
		return Cycle(rng.Intn(5000))
	}
}

func randPlan(rng *rand.Rand, ids *int, depth int) *evPlan {
	*ids++
	p := &evPlan{id: *ids, delta: randDelta(rng), call: rng.Intn(2) == 0}
	if depth < 2 {
		for k := rng.Intn(3); k > 0; k-- {
			if rng.Intn(3) == 0 {
				p.kids = append(p.kids, randPlan(rng, ids, depth+1))
			}
		}
	}
	return p
}

type firing struct {
	id int
	at Cycle
}

// TestEventQueueMatchesReference drives the calendar-ring queue and the
// reference queue with the same random mix of At and AtCall pushes —
// same-cycle ties, past cycles, cycles beyond the ring's span, pushes
// from inside callbacks — and FireDue calls with gaps between them. The
// firing order, the cycle handed to each callback, NextAt and Len must
// agree after every step.
func TestEventQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q EventQueue
		var ref refQueue
		var got, want []firing
		var now Cycle // cycle of the current or most recent FireDue

		var push func(p *evPlan, from Cycle)
		fired := func(p *evPlan, at Cycle) {
			got = append(got, firing{p.id, at})
			for _, k := range p.kids {
				push(k, now)
			}
		}
		callFn := func(arg any, at Cycle) { fired(arg.(*evPlan), at) }
		push = func(p *evPlan, from Cycle) {
			at := from + p.delta
			if p.call {
				q.AtCall(at, callFn, p)
			} else {
				q.At(at, func() { fired(p, at) })
			}
		}
		var refPush func(p *evPlan, from Cycle)
		refPush = func(p *evPlan, from Cycle) {
			at := from + p.delta
			ref.at(at, func() {
				want = append(want, firing{p.id, at})
				for _, k := range p.kids {
					refPush(k, now)
				}
			})
		}

		ids, checked := 0, 0
		for step := 0; step < 3000; step++ {
			if rng.Intn(2) == 0 {
				p := randPlan(rng, &ids, 0)
				push(p, now)
				refPush(p, now)
			} else {
				switch r := rng.Intn(10); {
				case r < 2: // FireDue again at the same cycle
				case r < 7:
					now++
				case r < 9:
					now += Cycle(2 + rng.Intn(10))
				default:
					now += Cycle(50 + rng.Intn(500))
				}
				q.FireDue(now)
				ref.fireDue(now)
			}
			if len(got) != len(want) || !reflect.DeepEqual(got[checked:], want[checked:]) {
				t.Fatalf("seed %d step %d: firing order diverged\ngot  %v\nwant %v", seed, step, tail(got), tail(want))
			}
			checked = len(got)
			if q.Len() != len(ref.pending) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, q.Len(), len(ref.pending))
			}
			gc, gok := q.NextAt()
			wc, wok := ref.nextAt()
			if gc != wc || gok != wok {
				t.Fatalf("seed %d step %d: NextAt %d,%v want %d,%v", seed, step, gc, gok, wc, wok)
			}
		}
		if len(want) < 1000 {
			t.Fatalf("seed %d: only %d events fired; test exercises too little", seed, len(want))
		}
	}
}

func tail(fs []firing) []firing {
	if len(fs) > 8 {
		return fs[len(fs)-8:]
	}
	return fs
}

// refEngine is the reference scheduler: the O(entries) rule the engine
// used before it kept an armed set. Every entry is checked on every
// stepped cycle and in every idle-span search.
type refEngine struct {
	now            Cycle
	entries        []refEntry
	events         refQueue
	ticksDelivered uint64
	cyclesSkipped  uint64
}

type refEntry struct {
	tick         func(now Cycle)
	every, phase Cycle
	sleep        Cycle
	ticks        uint64
}

func (e *refEngine) step() {
	e.now++
	e.events.fireDue(e.now)
	for i := range e.entries {
		en := &e.entries[i]
		if en.sleep > e.now || en.every > 1 && e.now%en.every != en.phase {
			continue
		}
		en.tick(e.now)
		en.ticks++
		e.ticksDelivered++
	}
}

func (e *refEngine) nextInteresting() Cycle {
	next := FarFuture
	for i := range e.entries {
		en := &e.entries[i]
		c := e.now + 1
		if en.sleep > c {
			c = en.sleep
		}
		if en.every > 1 {
			if r := c % en.every; r != en.phase {
				d := en.phase - r
				if d < 0 {
					d += en.every
				}
				c += d
			}
		}
		if c < next {
			next = c
		}
	}
	if c, ok := e.events.nextAt(); ok {
		if c <= e.now {
			c = e.now + 1
		}
		if c < next {
			next = c
		}
	}
	return next
}

func (e *refEngine) run(n Cycle) {
	for done := Cycle(0); done < n; {
		skip := e.nextInteresting() - (e.now + 1)
		switch {
		case skip <= 0:
			e.step()
			done++
		case skip >= n-done:
			e.now += n - done
			e.cyclesSkipped += uint64(n - done)
			done = n
		default:
			e.now += skip
			e.cyclesSkipped += uint64(skip)
			e.step()
			done += skip + 1
		}
	}
}

// schedOps is what a test component may do to the scheduler; the real
// engine and the reference each provide one.
type schedOps struct {
	sleep    func(i int, c Cycle)
	wake     func(i int)
	schedule func(c Cycle, f func())
}

// graphComponent is a component of a random sleep/wake graph. What it
// does when ticked is a pure function of (seed, index, cycle), so two
// schedulers that tick the same components on the same cycles drive
// identical graphs.
func graphComponent(seed uint64, i, n int, ops *schedOps, trace *[]firing) func(Cycle) {
	return func(now Cycle) {
		*trace = append(*trace, firing{i, now})
		h := seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(now)*0xbf58476d1ce4e5b9
		h ^= h >> 29
		h *= 0x94d049bb133111eb
		h ^= h >> 32
		j := int(h>>16) % n
		switch h % 16 {
		case 0, 1, 2, 3, 4, 5:
			ops.sleep(i, FarFuture)
		case 6, 7, 8:
			ops.sleep(i, now+1+Cycle(h>>8)%40)
		case 9:
			ops.wake(j) // earlier- or later-registered, within this cycle
		case 10:
			ops.wake(j)
			ops.sleep(i, FarFuture)
		case 11, 12:
			ops.schedule(now+1+Cycle(h>>8)%90, func() { ops.wake(j) })
			ops.sleep(i, FarFuture)
		case 13:
			ops.sleep(i, now) // at or below the next cycle: a no-op
		case 14:
			ops.sleep(j, now+1+Cycle(h>>8)%40) // a timed wake of another entry
		case 15:
			ops.sleep(j, FarFuture)
		}
	}
}

// TestEngineMatchesReference compares the armed-set engine against the
// reference O(n) rule on random sleep/wake graphs with clock dividers,
// cross-wakes of earlier- and later-registered entries inside one
// cycle, event-driven wakes across skipped spans, and entry counts
// that span several bitset words. The tick trace, TicksByComponent,
// TicksDelivered, CyclesSkipped and Now must agree after every run.
func TestEngineMatchesReference(t *testing.T) {
	skipping := 0
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		// Small graphs go idle often, so they exercise the skip path;
		// large ones span several bitset words.
		n := 1 + rng.Intn(8)
		if seed%2 == 0 {
			n = 1 + rng.Intn(150)
		}

		e := NewEngine()
		var handles []*TickHandle
		var got []firing
		realOps := &schedOps{
			sleep:    func(i int, c Cycle) { handles[i].SleepUntil(c) },
			wake:     func(i int) { handles[i].Wake() },
			schedule: e.Schedule,
		}
		ref := &refEngine{}
		var want []firing
		refOps := &schedOps{
			sleep:    func(i int, c Cycle) { ref.entries[i].sleep = c },
			wake:     func(i int) { ref.entries[i].sleep = 0 },
			schedule: ref.events.at,
		}
		for i := 0; i < n; i++ {
			every := []int{1, 1, 1, 2, 4}[rng.Intn(5)]
			phase := rng.Intn(every)
			handles = append(handles, e.RegisterEvery(every, phase, TickFunc(graphComponent(seed, i, n, realOps, &got))))
			ref.entries = append(ref.entries, refEntry{
				tick: graphComponent(seed, i, n, refOps, &want), every: Cycle(every), phase: Cycle(phase),
			})
		}
		for chunk := 0; chunk < 40; chunk++ {
			c := Cycle(1 + rng.Intn(200))
			e.Run(c)
			ref.run(c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d chunk %d: tick trace diverged\ngot  %v\nwant %v", seed, chunk, tail(got), tail(want))
			}
			var wantBy []uint64
			for i := range ref.entries {
				wantBy = append(wantBy, ref.entries[i].ticks)
			}
			if gotBy := e.TicksByComponent(); !reflect.DeepEqual(gotBy, wantBy) {
				t.Fatalf("seed %d chunk %d: TicksByComponent %v, want %v", seed, chunk, gotBy, wantBy)
			}
			if e.TicksDelivered() != ref.ticksDelivered || e.CyclesSkipped() != ref.cyclesSkipped || e.Now() != ref.now {
				t.Fatalf("seed %d chunk %d: delivered/skipped/now %d/%d/%d, want %d/%d/%d", seed, chunk,
					e.TicksDelivered(), e.CyclesSkipped(), e.Now(), ref.ticksDelivered, ref.cyclesSkipped, ref.now)
			}
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: nothing ticked", seed)
		}
		if ref.cyclesSkipped > 0 {
			skipping++
		}
	}
	if skipping < 20 {
		t.Fatalf("only %d of 60 graphs skipped any cycle; the skip path is barely compared", skipping)
	}
}

// TestEventQueueSteadyStateZeroAlloc pins that once the ring's slab
// and the heap have grown, pushing events — inside the ring's span and
// beyond it, and an existing closure through At — and firing them
// allocates nothing.
func TestEventQueueSteadyStateZeroAlloc(t *testing.T) {
	var q EventQueue
	fired := 0
	fn := func(any, Cycle) { fired++ }
	closure := func() { fired++ }
	arg := &struct{}{}
	now := Cycle(0)
	op := func() {
		q.At(now+1, closure)
		q.AtCall(now+3, fn, arg)
		q.AtCall(now+3, fn, arg)
		q.AtCall(now+2*ringSize, fn, arg)
		now++
		q.FireDue(now)
	}
	for i := 0; i < 4*ringSize; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("push+FireDue allocated %.2f times per op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("nothing fired")
	}
}

// TestEngineStepZeroAllocMostlyAsleep pins that stepping an engine whose
// entries mostly sleep until woken allocates nothing.
func TestEngineStepZeroAllocMostlyAsleep(t *testing.T) {
	e := NewEngine()
	ticks := 0
	for i := 0; i < 200; i++ {
		h := e.RegisterEvery(1, 0, TickFunc(func(Cycle) { ticks++ }))
		if i%50 != 7 {
			h.SleepUntil(FarFuture)
		}
	}
	if allocs := testing.AllocsPerRun(1000, e.Step); allocs != 0 {
		t.Fatalf("Step allocated %.2f times per cycle, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("nothing ticked")
	}
	if by := e.TicksByComponent(); by[7] == 0 || by[0] != 0 {
		t.Fatalf("wrong entries ticked: %v", by[:8])
	}
}
