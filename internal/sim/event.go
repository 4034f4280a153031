package sim

import "math/bits"

// event is a pending callback scheduled for a cycle. seq breaks ties so
// events scheduled earlier fire earlier within the same cycle.
//
// Every event fires as call(arg, at). AtCall schedules a prebuilt
// function — typically a method value built once and held in a struct
// field — plus the argument to hand it; this does not allocate, because
// a pointer stored in an interface value is allocation-free. At
// schedules a plain closure, carried as the arg of runClosure.
// Convenient, but every call site allocates a fresh closure.
//
// Both shapes share one seq order, so the relative firing order of
// same-cycle events is the schedule order regardless of shape.
type event struct {
	at   Cycle
	seq  uint64
	call func(arg any, at Cycle)
	arg  any
	link slot // next event in the same ring bucket, or next free slot
}

// runClosure fires an event scheduled with At.
func runClosure(f any, _ Cycle) { f.(func())() }

// slot is a 1-based index into EventQueue.slab; 0 means none, so the
// zero EventQueue needs no initialisation.
type slot int32

// eventLess orders events by cycle, then by schedule order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ringSize is the calendar ring's span in cycles. Most events in the
// simulator are scheduled a few to a few dozen cycles ahead (cache and
// directory latencies, link traversals, DRAM bursts), so a 64-cycle
// ring holds most of them and one uint64 tracks which buckets are
// occupied. Measured on the 4-core quadMC, 64-core mesh and 2D
// machines, 99.9%, 97% and 83% of pushes land in the ring; the rest
// are DRAM completions 64 to 256 cycles out.
const (
	ringSize = 64
	ringMask = ringSize - 1
)

// bucket is the FIFO of events for one ring cycle, linked through the
// slab.
type bucket struct {
	head, tail slot
}

// EventQueue is a deterministic time-ordered queue of callbacks.
//
// Events scheduled for the same cycle fire in the order they were
// scheduled. The zero value is ready to use.
//
// The queue is a calendar ring: events for the 64 cycles starting at
// base sit in per-cycle FIFO buckets, found through an occupancy mask,
// so scheduling and firing them is O(1). The buckets are linked lists
// over one slab with a free list, so a queue's storage grows to its
// peak occupancy once and is then reused. Events outside that span —
// further ahead, or for cycles before base — go to a binary heap. Each
// pop takes the smaller (cycle, schedule order) of the ring's earliest
// bucket head and the heap top, so the two together fire in exactly
// the order one heap would. The earliest pending cycle is cached, which
// keeps FireDue and NextAt O(1) on a queue with nothing due. The heap is
// hand-rolled rather than container/heap so it moves events by value
// instead of boxing each one in an interface.
type EventQueue struct {
	n    int    // pending events, ring and heap together
	next Cycle  // earliest pending cycle; meaningful only when n > 0
	base Cycle  // first cycle of the ring's span [base, base+ringSize)
	occ  uint64 // bit i set iff ring[i] is non-empty
	seq  uint64
	free slot // first free slab slot
	// ring is allocated on first use, so a queue embedded in a
	// component adds only a few words to it.
	ring *[ringSize]bucket
	slab []event
	heap []event
}

// At schedules f to run when FireDue is called with a cycle >= c.
func (q *EventQueue) At(c Cycle, f func()) {
	if f == nil {
		panic("sim: EventQueue.At called with nil func")
	}
	q.push(event{at: c, call: runClosure, arg: f})
}

// AtCall schedules fn(arg, c) to run when FireDue is called with a
// cycle >= c. Unlike At it does not allocate: fn should be a function
// value that already exists (build a method value once and reuse it)
// and arg should be a pointer. The cycle passed to fn is c — the cycle
// the event was scheduled for — matching the convention of At closures
// that capture their own scheduled time.
func (q *EventQueue) AtCall(c Cycle, fn func(arg any, at Cycle), arg any) {
	if fn == nil {
		panic("sim: EventQueue.AtCall called with nil func")
	}
	q.push(event{at: c, call: fn, arg: arg})
}

func (q *EventQueue) push(ev event) {
	q.seq++
	ev.seq = q.seq
	if q.n == 0 || ev.at < q.next {
		q.next = ev.at
	}
	q.n++
	// The unsigned difference is the offset into the span, and cannot
	// overflow however far apart the two cycles are.
	inSpan := uint64(ev.at-q.base) < ringSize
	if !inSpan && q.occ == 0 {
		// An empty ring can move its span freely: start it here so a
		// queue whose owner slept through many cycles keeps using it.
		q.base = ev.at
		inSpan = true
	}
	if inSpan {
		var s slot
		if q.free != 0 {
			s = q.free
			q.free = q.slab[s-1].link
		} else {
			q.slab = append(q.slab, event{})
			s = slot(len(q.slab))
		}
		ev.link = 0
		q.slab[s-1] = ev
		if q.ring == nil {
			q.ring = new([ringSize]bucket)
		}
		i := ev.at & ringMask
		b := &q.ring[i]
		if b.tail == 0 {
			b.head = s
		} else {
			q.slab[b.tail-1].link = s
		}
		b.tail = s
		q.occ |= 1 << i
		return
	}
	q.heap = append(q.heap, ev)
	q.up(len(q.heap) - 1)
}

// ringFirst reports the bucket holding the earliest ring cycle and the
// event at its head. The ring must be non-empty.
func (q *EventQueue) ringFirst() (*bucket, *event) {
	off := bits.TrailingZeros64(bits.RotateLeft64(q.occ, -int(q.base&ringMask)))
	b := &q.ring[(q.base+Cycle(off))&ringMask]
	return b, &q.slab[b.head-1]
}

// pop removes the earliest pending event and returns its callback. The
// queue must be non-empty. It returns the callback's parts rather than
// the event so they travel in registers.
func (q *EventQueue) pop() (call func(any, Cycle), arg any, at Cycle) {
	q.n--
	if q.occ != 0 {
		b, head := q.ringFirst()
		if len(q.heap) == 0 || eventLess(head, &q.heap[0]) {
			call, arg, at = head.call, head.arg, head.at
			s := b.head
			b.head = head.link
			*head = event{link: q.free} // drop call/arg references
			q.free = s
			if b.head == 0 {
				b.tail = 0
				q.occ &^= 1 << (at & ringMask)
				q.setNext()
			}
			// Otherwise an event for the same cycle remains, and next
			// is unchanged.
			return call, arg, at
		}
	}
	top := &q.heap[0]
	call, arg, at = top.call, top.arg, top.at
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap[n] = event{}
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	q.setNext()
	return call, arg, at
}

// setNext recomputes the cached earliest pending cycle.
func (q *EventQueue) setNext() {
	switch {
	case q.n == 0:
	case q.occ == 0:
		q.next = q.heap[0].at
	default:
		_, head := q.ringFirst()
		q.next = head.at
		if len(q.heap) > 0 && q.heap[0].at < q.next {
			q.next = q.heap[0].at
		}
	}
}

func (q *EventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&q.heap[i], &q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *EventQueue) down(i int) {
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && eventLess(&q.heap[r], &q.heap[l]) {
			small = r
		}
		if !eventLess(&q.heap[small], &q.heap[i]) {
			break
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
}

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return q.n }

// NextAt reports the cycle of the earliest pending event, or ok=false if
// the queue is empty.
func (q *EventQueue) NextAt() (c Cycle, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.next, true
}

// FireDue runs, in order, every event scheduled at or before now,
// including events that callbacks schedule at or before now.
func (q *EventQueue) FireDue(now Cycle) {
	for q.n > 0 && q.next <= now {
		call, arg, at := q.pop()
		call(arg, at)
	}
	// Everything left is after now, so the span can start at now+1.
	if now >= q.base {
		q.base = now + 1
	}
}
