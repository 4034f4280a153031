package core

import (
	"errors"
	"fmt"

	"stackedsim/internal/memctrl"
)

// held is one component still holding work: n items of the named kind
// in component who (id < 0 for singletons).
type held struct {
	who  string
	id   int
	n    int
	what string
}

func (h held) String() string {
	if h.id < 0 {
		return fmt.Sprintf("%s holds %d %s", h.who, h.n, h.what)
	}
	return fmt.Sprintf("%s %d holds %d %s", h.who, h.id, h.n, h.what)
}

// outstanding yields every component that still holds work. It is the
// one definition of "quiet" that DrainQuiesce waits for and
// CheckInvariants reports on. Directory banks come last: their line
// scan is the only check whose cost grows with the machine's state, and
// a caller that stops at the first yield usually skips it.
func (s *System) outstanding(yield func(held) bool) {
	more := true
	see := func(who string, id, n int, what string) {
		if more && n != 0 {
			more = yield(held{who, id, n, what})
		}
	}
	if s.L2 != nil {
		for i, f := range s.L2.MSHRBanks() {
			see("mshr bank", i, f.Len(), "entries")
		}
	}
	if s.Coh != nil {
		for c := 0; c < s.Cfg.Cores; c++ {
			see("private L2", c, s.Coh.L2(c).OutstandingMisses(), "outstanding misses")
			see("private L2", c, s.Coh.L2(c).WritebacksInFlight(), "unacknowledged writebacks")
		}
		see("mesh", -1, s.Coh.Mesh().InFlight(), "packets")
	}
	for i, l1 := range s.L1s {
		see("L1", i, l1.OutstandingMisses(), "outstanding misses")
	}
	for i, il1 := range s.IL1s {
		see("IL1", i, il1.OutstandingMisses(), "outstanding misses")
	}
	seeMC := func(mc *memctrl.Controller) {
		see("mc", mc.ID(), mc.QueueLen(), "requests in the MRQ")
		see("mc", mc.ID(), mc.InFlight(), "completions in flight")
	}
	for _, mc := range s.MCs {
		seeMC(mc)
	}
	if s.Stack != nil {
		see("stack cache", -1, s.Stack.Outstanding(), "fetches and retries")
		seeMC(s.Backing)
	}
	if s.Coh != nil {
		for i, d := range s.Coh.Dirs() {
			if !more {
				return
			}
			msgs, lines := d.Backlog()
			see("directory", i, msgs, "queued messages")
			see("directory", i, lines, "busy or deferred lines")
		}
	}
}

// CheckInvariants validates cross-component bookkeeping after a run has
// quiesced (call after DrainQuiesce or at any point where no request
// should be in flight). It exists to catch simulator bugs — lost
// requests, leaked MSHR entries, double accounting — rather than to
// model hardware.
func (s *System) CheckInvariants() error {
	var errs []error
	for h := range s.outstanding {
		errs = append(errs, fmt.Errorf("%v after quiesce", h))
	}
	if s.L2 != nil {
		for i, f := range s.L2.MSHRBanks() {
			st := f.Stats()
			// Entries allocated during warmup may release after the stats
			// reset, so releases can exceed allocs; fewer releases than
			// allocs after quiesce means entries were lost.
			if st.Releases < st.Allocs {
				errs = append(errs, fmt.Errorf("mshr bank %d: %d allocs but only %d releases", i, st.Allocs, st.Releases))
			}
		}
	}
	for _, mc := range s.MCs {
		st := mc.Stats()
		// Warmup stragglers can complete after the reset (completed >
		// scheduled); completions falling short means requests vanished.
		if st.Completed < st.Reads+st.Writes {
			errs = append(errs, fmt.Errorf("mc%d: %d scheduled but only %d completed", mc.ID(), st.Reads+st.Writes, st.Completed))
		}
		if st.RowHits > st.Reads+st.Writes {
			errs = append(errs, fmt.Errorf("mc%d: more row hits (%d) than accesses (%d)", mc.ID(), st.RowHits, st.Reads+st.Writes))
		}
	}
	// Cache accounting sanity.
	if s.L2 != nil {
		l2 := s.L2.Stats()
		if l2.Hits > l2.Accesses {
			errs = append(errs, fmt.Errorf("L2: hits %d exceed accesses %d", l2.Hits, l2.Accesses))
		}
	}
	if s.Coh != nil {
		cs := s.Coh.Stats()
		if cs.Hits > cs.Accesses {
			errs = append(errs, fmt.Errorf("coherence: hits %d exceed accesses %d", cs.Hits, cs.Accesses))
		}
		if err := s.Coh.Mesh().CheckConservation(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// DrainQuiesce halts every core's front end and runs the machine until
// nothing holds outstanding work or maxCycles elapse. It reports
// whether the system quiesced (after which CheckInvariants is
// meaningful).
func (s *System) DrainQuiesce(maxCycles int64) bool {
	for _, c := range s.Cores {
		c.FlushIdle(s.Engine.Now())
		c.Halt()
	}
	for i := int64(0); ; i++ {
		quiet := true
		for range s.outstanding {
			quiet = false
			break
		}
		if quiet || i == maxCycles {
			return quiet
		}
		s.Engine.Step()
	}
}
