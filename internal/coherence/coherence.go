// Package coherence implements the many-core memory hierarchy: private
// per-core L2 caches kept coherent by a directory-based MESI protocol,
// with directory banks co-located with the stacked memory controllers
// (one per vertical slice) and all traffic carried by the 2D mesh NoC
// (internal/noc).
//
// The protocol is a classic invalidation-based MESI directory:
//
//   - A read miss sends GetS to the line's home directory. From I the
//     requester is granted E (DataE); from S the directory reads memory
//     and replies Data; from M the directory forwards to the owner
//     (FwdGetS), which demotes to S and sends the data cache-to-cache
//     (DataOwner) plus a writeback copy to the directory (WBData).
//   - A write miss (or an S-state upgrade) sends GetM. The directory
//     invalidates sharers and collects the InvAcks itself, then grants
//     AckM (upgrade) or reads memory and grants exclusive DataE; from M
//     it forwards ownership cache-to-cache (FwdGetM, forward-and-forget).
//   - Dirty evictions send PutM (clean E evictions a PutE), which the
//     owner holds in a writeback buffer until the directory's WBAck. A
//     forward that races an eviction is served from the writeback
//     buffer, and the in-flight PutM doubles as the demotion data at
//     the directory — the writeback-race path.
//
// Sharer sets are exact bitvectors, S-state evictions are silent, and a
// stale PutM (sender no longer owner) is acknowledged and its data
// written to memory unless a newer owner exists — so no writeback is
// ever lost, including orphan L1 writebacks whose line the private L2
// already evicted.
package coherence

import (
	"fmt"

	"stackedsim/internal/attrib"
	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/noc"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// msgKind enumerates the protocol messages. Kinds up to mWBData travel
// core→directory; the rest travel directory→core or core→core.
type msgKind uint8

const (
	mGetS   msgKind = iota // read request
	mGetM                  // write / ownership request
	mPutM                  // owned-line eviction (clean flag → PutE)
	mInvAck                // sharer invalidated (collected at the directory)
	mWBData                // demotion data from a FwdGetS
	mData                  // shared-state fill from memory
	mDataE                 // exclusive fill from memory (E on GetS, M on GetM)
	mDataOwner             // cache-to-cache fill from the previous owner
	mAckM                  // upgrade grant (requester already holds the data in S)
	mWBAck                 // eviction acknowledged; writeback buffer entry retires
	mInv                   // invalidate a shared copy
	mFwdGetS               // owner: demote to S, send data to requester + directory
	mFwdGetM               // owner: invalidate, send exclusive data to requester
)

var kindNames = [...]string{
	"GetS", "GetM", "PutM", "InvAck", "WBData",
	"Data", "DataE", "DataOwner", "AckM", "WBAck", "Inv", "FwdGetS", "FwdGetM",
}

func (k msgKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// toDirectory reports whether a message kind is addressed to a
// directory bank (vs a private L2); the fabric's deliver callback
// dispatches on it, since a directory shares its mesh node with a core.
func (k msgKind) toDirectory() bool { return k <= mWBData }

// message is one protocol message. Messages are pooled by the fabric;
// the receiver releases them after processing.
type message struct {
	kind      msgKind
	line      mem.Addr
	from      int // sender core (mesh node); directory responses carry the bank's node
	requester int // Fwd*: core the owner must send data to
	clean     bool // PutM: the line was never written (PutE) — no memory update
	dirty     bool // WBData: the demoted line was modified
	excl      bool // DataE/DataOwner: the grant is exclusive (GetM response)

	// tag carries the requester's cycle-accounting lifecycle along the
	// protocol path, so forwards hand it to whoever ends up injecting
	// the data response. Nil when attribution is off or the message has
	// no associated demand miss.
	tag *attrib.Tag
}

// Params wires a fabric.
type Params struct {
	Cfg  *config.Config
	AMap mem.AddrMap
	// MCs are the stacked memory controllers, one per directory bank.
	MCs []cache.Port
	IDs *mem.IDSource
}

// Fabric ties together the private L2s, the directory banks and the
// mesh: one coherence domain. It owns the message pool and the
// node-numbering scheme (core c's L2 sits at mesh node c; directory
// bank d at node d*cores/banks, spreading the banks over the die).
type Fabric struct {
	cfg  *config.Config
	amap mem.AddrMap
	ids  *mem.IDSource
	mesh *noc.Mesh
	l2s  []*PrivateL2
	dirs []*Directory

	// dirAtNode maps a mesh node to the directory bank living there
	// (-1 for nodes without one).
	dirAtNode []int

	attrib *attrib.Collector

	ctrlBytes, dataBytes int

	free []*message
}

// New builds the fabric. The config must have passed Validate with
// CoherencePrivate + TopoMesh.
func New(p Params) *Fabric {
	cfg := p.Cfg
	dim := cfg.MeshDim()
	cores := cfg.Cores
	if dim*dim != cores {
		panic(fmt.Sprintf("coherence: %d cores is not a square mesh", cores))
	}
	if len(p.MCs) != cfg.MCs {
		panic(fmt.Sprintf("coherence: %d MC ports for %d MCs", len(p.MCs), cfg.MCs))
	}
	f := &Fabric{
		cfg:  cfg,
		amap: p.AMap,
		ids:  p.IDs,
		// Control messages carry an address and a command; data
		// messages add the full cache line.
		ctrlBytes: 8,
		dataBytes: 8 + cfg.LineBytes,
	}
	f.mesh = noc.New(noc.Params{
		W: dim, H: dim,
		LinkBytes:     cfg.MeshLinkBytes,
		LinkLatency:   sim.Cycle(cfg.MeshLinkLatency),
		RouterLatency: sim.Cycle(cfg.MeshRouterLatency),
		BufPkts:       cfg.MeshBufPkts,
	})
	f.mesh.Deliver = f.deliver
	f.dirAtNode = make([]int, cores)
	for i := range f.dirAtNode {
		f.dirAtNode[i] = -1
	}
	for d := 0; d < cfg.MCs; d++ {
		node := d * cores / cfg.MCs
		f.dirAtNode[node] = d
		f.dirs = append(f.dirs, newDirectory(f, d, node, p.MCs[d]))
	}
	for c := 0; c < cores; c++ {
		f.l2s = append(f.l2s, newPrivateL2(f, c))
	}
	return f
}

// Ports returns the per-core submission ports (the private L2s) the
// L1s stack on top of.
func (f *Fabric) Ports() []cache.Port {
	ports := make([]cache.Port, len(f.l2s))
	for i, l := range f.l2s {
		ports[i] = l
	}
	return ports
}

// L2 returns core c's private L2.
func (f *Fabric) L2(c int) *PrivateL2 { return f.l2s[c] }

// Dirs returns the directory banks.
func (f *Fabric) Dirs() []*Directory { return f.dirs }

// Mesh exposes the NoC (stats, digest).
func (f *Fabric) Mesh() *noc.Mesh { return f.mesh }

// Register wires every fabric component into the engine's tick order:
// private L2s, then directories, then the mesh. Both endpoint kinds
// tick before the mesh, so an ejection during the mesh's tick is
// processed at the start of the next cycle, while an injection from an
// endpoint is picked up by the mesh the same cycle — matching the
// "completion callbacks flow from later-registered to earlier"
// convention the rest of the machine uses.
func (f *Fabric) Register(e *sim.Engine) {
	for _, l := range f.l2s {
		l.setHandle(e.RegisterEvery(1, 0, l))
	}
	for _, d := range f.dirs {
		d.setHandle(e.RegisterEvery(1, 0, d))
	}
	f.mesh.SetHandle(e.RegisterEvery(1, 0, sim.TickFunc(f.mesh.Tick)))
}

// AttachAttrib enables cycle accounting on every demand miss flowing
// through the fabric. Nil disables (the default).
func (f *Fabric) AttachAttrib(col *attrib.Collector) { f.attrib = col }

// deliver dispatches an ejected mesh message to the directory bank or
// private L2 living at the destination node.
func (f *Fabric) deliver(dst int, nm *noc.Msg, now sim.Cycle) {
	m := nm.Payload.(*message)
	if m.kind.toDirectory() {
		d := f.dirAtNode[dst]
		if d < 0 {
			panic(fmt.Sprintf("coherence: %s for node %d, which hosts no directory", m.kind, dst))
		}
		f.dirs[d].recv(m, now)
		return
	}
	f.l2s[dst].recv(m, now)
}

// bytesOf sizes a message for link serialization: data-bearing kinds
// carry the cache line, everything else is a control packet.
func (f *Fabric) bytesOf(m *message) int {
	switch m.kind {
	case mData, mDataE, mDataOwner, mWBData:
		return f.dataBytes
	case mPutM:
		if m.clean {
			return f.ctrlBytes
		}
		return f.dataBytes
	}
	return f.ctrlBytes
}

// send injects m into the mesh; false means the local injection port is
// out of credits and the caller must retry.
func (f *Fabric) send(src, dst int, m *message, now sim.Cycle) bool {
	return f.mesh.Send(src, dst, f.bytesOf(m), m, now)
}

// homeDir returns the directory bank owning a line (the bank beside
// the line's memory controller) — one bank per vertical slice.
func (f *Fabric) homeDir(line mem.Addr) *Directory {
	return f.dirs[f.amap.MCOf(line)]
}

// newMsg returns a pooled, zeroed message.
func (f *Fabric) newMsg(kind msgKind, line mem.Addr, from int) *message {
	var m *message
	if n := len(f.free); n > 0 {
		m = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		m = &message{}
	}
	*m = message{kind: kind, line: line, from: from}
	return m
}

// putMsg returns a fully processed message to the pool.
func (f *Fabric) putMsg(m *message) {
	m.tag = nil
	f.free = append(f.free, m)
}

// Stats aggregates the fabric-wide counters for metrics collection.
type Stats struct {
	Accesses     uint64 // private L2 lookups (demand + prefetch)
	Hits         uint64
	DemandMisses uint64
	MSHRStalls   uint64 // demand misses bounced off a full miss table
	Upgrades     uint64 // S→M ownership chases (GetM with data in hand)
	Invalidations uint64 // Inv messages processed by sharers
	C2CTransfers uint64 // fills served cache-to-cache by the previous owner
	WBRaces      uint64 // forwards served from a writeback buffer
	OrphanWBs    uint64 // L1 writebacks whose line the L2 had evicted
	Deferred     uint64 // directory requests queued behind a busy line
	MemReads     uint64 // directory-issued memory reads
	MemWrites    uint64 // directory-issued memory writes
}

// MissRate is the private-L2 aggregate miss rate.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Accesses-s.Hits) / float64(s.Accesses)
}

// Stats sums the per-component counters.
func (f *Fabric) Stats() Stats {
	var s Stats
	for _, l := range f.l2s {
		s.Accesses += l.stats.Accesses
		s.Hits += l.stats.Hits
		s.DemandMisses += l.stats.DemandMisses
		s.MSHRStalls += l.stats.MSHRStalls
		s.Upgrades += l.stats.Upgrades
		s.Invalidations += l.stats.InvRecv
		s.C2CTransfers += l.stats.FwdServed + l.stats.FwdFromWB
		s.WBRaces += l.stats.FwdFromWB
		s.OrphanWBs += l.stats.OrphanWB
	}
	for _, d := range f.dirs {
		s.Deferred += d.stats.Deferred
		s.MemReads += d.stats.MemReads
		s.MemWrites += d.stats.MemWrites
	}
	return s
}

// DemandMissesByCore reports each core's private-L2 demand misses
// (the MPKI numerator).
func (f *Fabric) DemandMissesByCore() []uint64 {
	out := make([]uint64, len(f.l2s))
	for i, l := range f.l2s {
		out[i] = l.stats.DemandMisses
	}
	return out
}

// ResetStats zeroes every component's counters (end of warmup).
func (f *Fabric) ResetStats() {
	for _, l := range f.l2s {
		l.stats = PL2Stats{}
	}
	for _, d := range f.dirs {
		d.stats = DirStats{}
	}
	f.mesh.ResetStats()
}

// DigestWords folds the fabric's architectural counters into a run
// digest via emit, in a fixed order: per-core L2s, then directory
// banks, then the mesh.
func (f *Fabric) DigestWords(emit func(...uint64)) {
	for _, l := range f.l2s {
		st := &l.stats
		emit(st.Accesses, st.Hits, st.DemandMisses, st.Merges, st.MSHRStalls,
			st.WritebacksIn, st.OrphanWB, st.Upgrades, st.InvRecv,
			st.FwdServed, st.FwdFromWB, st.EvictOwned, st.EvictShared)
	}
	for _, d := range f.dirs {
		st := &d.stats
		emit(st.GetS, st.GetM, st.PutM, st.PutE, st.StalePutM, st.Deferred,
			st.InvSent, st.InvAcks, st.FwdGetS, st.FwdGetM, st.WBRaces,
			st.MemReads, st.MemWrites, st.AckM, st.DataE, st.DataS)
	}
	f.mesh.DigestWords(emit)
}

// Instrument registers the "coherence.*" and "noc.*" gauges.
func (f *Fabric) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("coherence.accesses", func() float64 { return float64(f.Stats().Accesses) })
	reg.GaugeFunc("coherence.miss_rate", func() float64 { s := f.Stats(); return s.MissRate() })
	reg.GaugeFunc("coherence.demand_misses", func() float64 { return float64(f.Stats().DemandMisses) })
	reg.GaugeFunc("coherence.mshr_stalls", func() float64 { return float64(f.Stats().MSHRStalls) })
	reg.GaugeFunc("coherence.upgrades", func() float64 { return float64(f.Stats().Upgrades) })
	reg.GaugeFunc("coherence.invalidations", func() float64 { return float64(f.Stats().Invalidations) })
	reg.GaugeFunc("coherence.c2c_transfers", func() float64 { return float64(f.Stats().C2CTransfers) })
	reg.GaugeFunc("coherence.wb_races", func() float64 { return float64(f.Stats().WBRaces) })
	reg.GaugeFunc("coherence.orphan_writebacks", func() float64 { return float64(f.Stats().OrphanWBs) })
	reg.GaugeFunc("coherence.dir_deferred", func() float64 { return float64(f.Stats().Deferred) })
	reg.GaugeFunc("coherence.dir_mem_reads", func() float64 { return float64(f.Stats().MemReads) })
	reg.GaugeFunc("coherence.dir_mem_writes", func() float64 { return float64(f.Stats().MemWrites) })

	ms := f.mesh.Stats()
	reg.GaugeFunc("noc.injected", func() float64 { return float64(ms.Injected) })
	reg.GaugeFunc("noc.delivered", func() float64 { return float64(ms.Delivered) })
	reg.GaugeFunc("noc.rejected", func() float64 { return float64(ms.Rejected) })
	reg.GaugeFunc("noc.hops", func() float64 { return float64(ms.Hops) })
	reg.GaugeFunc("noc.flits", func() float64 { return float64(ms.Flits) })
	reg.GaugeFunc("noc.credit_stalls", func() float64 { return float64(ms.CreditStalls) })
	reg.GaugeFunc("noc.link_stalls", func() float64 { return float64(ms.LinkStalls) })
	reg.GaugeFunc("noc.in_flight", func() float64 { return float64(f.mesh.InFlight()) })
	reg.GaugeFunc("noc.avg_latency", func() float64 {
		if ms.Delivered == 0 {
			return 0
		}
		return float64(ms.LatencySum) / float64(ms.Delivered)
	})
}
