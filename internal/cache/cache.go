// Package cache implements the three-level write-back cache hierarchy of
// the simulated machine (Table II of the paper): per-core L1D and L2,
// a shared L3, LRU replacement, write-allocate, and a bounded number of
// MSHRs per level with miss coalescing.
//
// Caches are timing-only: they track tags and dirtiness, while data lives
// in mem.Storage. Every level implements Port, so levels chain naturally
// and the memory controller terminates the chain.
//
// Completion uses sim.Done tokens rather than func() closures, and each
// level's fetch/fill continuations are method values materialized once at
// construction, so the steady-state hit and miss paths allocate nothing.
// When the next level is another *Cache the chain is devirtualized: New
// detects the concrete type and calls it directly.
package cache

import (
	"prosper/internal/journey"
	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/stats"
)

// Port is anything that can service a line-granularity memory access.
// The zero Done token means "posted" — no completion callback.
type Port interface {
	Access(write bool, addr uint64, done sim.Done)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(write bool, addr uint64, done sim.Done)

// Access calls f.
func (f PortFunc) Access(write bool, addr uint64, done sim.Done) { f(write, addr, done) }

// Config describes one cache level.
type Config struct {
	Name    string
	Size    int      // capacity in bytes
	Ways    int      // associativity
	Latency sim.Time // hit latency in cycles
	MSHRs   int      // outstanding misses
}

// L1DConfig returns the paper's L1 data cache: 32 KiB, 8-way, 3 cycles,
// 16 MSHRs.
func L1DConfig() Config { return Config{Name: "l1d", Size: 32 << 10, Ways: 8, Latency: 3, MSHRs: 16} }

// L2Config returns the paper's L2: 512 KiB, 16-way, 12 cycles, 32 MSHRs.
func L2Config() Config { return Config{Name: "l2", Size: 512 << 10, Ways: 16, Latency: 12, MSHRs: 32} }

// L3Config returns the paper's shared L3 scaled by core count:
// 2 MiB/core, 16-way, 20 cycles, 32 MSHRs.
func L3Config(cores int) Config {
	if cores < 1 {
		cores = 1
	}
	return Config{Name: "l3", Size: cores * (2 << 20), Ways: 16, Latency: 20, MSHRs: 32}
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

type mshr struct {
	waiters []waiter
	issued  sim.Time // when the line fetch left this level
	jid     uint32   // first sampled waiter's journey; tags the downstream fetch
}

type waiter struct {
	write   bool
	done    sim.Done
	arrived sim.Time // when this waiter joined the miss (journey spans)
}

type deferredAccess struct {
	write   bool
	addr    uint64
	done    sim.Done
	arrived sim.Time // when MSHR exhaustion parked the access (journey spans)
}

// Cache is one set-associative write-back, write-allocate level.
type Cache struct {
	eng  *sim.Engine
	cfg  Config
	next Port
	// nextCache devirtualizes the common chain (L1→L2→L3): when the next
	// level is a concrete *Cache, Access goes straight to it instead of
	// through the interface.
	nextCache *Cache

	sets     [][]line
	setMask  uint64
	lruClock uint64

	mshrs    map[uint64]*mshr //prosperlint:ignore snapshot SaveSnap asserts no in-flight misses; a fresh boot's empty MSHR map needs no restoring
	mshrFree []*mshr          // retired MSHRs, reused with their waiter backing
	//prosperlint:ignore snapshot SaveSnap asserts none are stalled; a fresh boot's empty list needs no restoring
	blocked  []deferredAccess // accesses stalled on MSHR exhaustion
	retryBuf []deferredAccess // spare backing swapped with blocked on retry

	// fetchFn/fillFn are the miss-path continuations (method values bound
	// once here, rebound never): fetch asks the next level for the line
	// after the lookup latency; fill installs it on arrival.
	fetchFn func(uint64)
	fillFn  func(uint64)

	Counters   *stats.Counters
	Histograms *stats.Histograms

	// Precomputed counter handles: Access/access/miss run once per
	// memory reference, so composing "<name>.hits" there allocates on
	// every access. The handles pin each slot at construction instead.
	cHits          stats.Counter
	cMisses        stats.Counter
	cReadAccesses  stats.Counter
	cWriteAccesses stats.Counter
	cCoalesced     stats.Counter
	cMSHRStalls    stats.Counter
	cWritebacks    stats.Counter

	hMissLatency *stats.Histogram // line-fetch latency, issue to fill
	hMSHROcc     *stats.Histogram // MSHRs in use after each allocation

	// journeys, when attached, receives stage spans for sampled accesses
	// whose Done tokens carry a journey ID; stage is this level's lane.
	// Both are boot-time wiring, excluded from snapshots by design: a
	// journey-enabled spec is rejected by the snapshot runner (§15).
	journeys *journey.Recorder
	stage    journey.Stage
}

// New builds a cache level in front of next.
func New(eng *sim.Engine, cfg Config, next Port) *Cache {
	numLines := cfg.Size / mem.LineSize
	numSets := numLines / cfg.Ways
	if numSets == 0 || numSets&(numSets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	sets := make([][]line, numSets)
	backing := make([]line, numLines)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	c := &Cache{
		eng:        eng,
		cfg:        cfg,
		next:       next,
		sets:       sets,
		setMask:    uint64(numSets - 1),
		mshrs:      make(map[uint64]*mshr),
		Counters:   stats.NewCounters(),
		Histograms: stats.NewHistograms(),
	}
	if nc, ok := next.(*Cache); ok {
		c.nextCache = nc
	}
	c.fetchFn = c.fetch
	c.fillFn = c.fill
	c.cHits = c.Counters.Handle(cfg.Name + ".hits")
	c.cMisses = c.Counters.Handle(cfg.Name + ".misses")
	c.cReadAccesses = c.Counters.Handle(cfg.Name + ".read_accesses")
	c.cWriteAccesses = c.Counters.Handle(cfg.Name + ".write_accesses")
	c.cCoalesced = c.Counters.Handle(cfg.Name + ".mshr_coalesced")
	c.cMSHRStalls = c.Counters.Handle(cfg.Name + ".mshr_stalls")
	c.cWritebacks = c.Counters.Handle(cfg.Name + ".writebacks")
	c.hMissLatency = c.Histograms.New("miss_latency")
	c.hMSHROcc = c.Histograms.New("mshr_occupancy")
	return c
}

// AttachJourneys wires the journey recorder into the level, declaring
// which stage lane (L1/L2/L3) its spans land in.
func (c *Cache) AttachJourneys(r *journey.Recorder, stage journey.Stage) {
	c.journeys = r
	c.stage = stage
}

func (c *Cache) setFor(lineAddr uint64) []line {
	return c.sets[(lineAddr>>mem.LineShift)&c.setMask]
}

func (c *Cache) lookup(lineAddr uint64) *line {
	set := c.setFor(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// nextAccess forwards one access to the level below, devirtualized when
// that level is a concrete *Cache.
func (c *Cache) nextAccess(write bool, addr uint64, done sim.Done) {
	if c.nextCache != nil {
		c.nextCache.Access(write, addr, done)
		return
	}
	c.next.Access(write, addr, done)
}

// Access services one access to the line containing addr. The access is
// aligned internally; callers may pass arbitrary byte addresses.
//
//prosperlint:hotpath per-line cache access: the L1/L2 service path runs once per segment
func (c *Cache) Access(write bool, addr uint64, done sim.Done) {
	if write {
		c.cWriteAccesses.Inc()
	} else {
		c.cReadAccesses.Inc()
	}
	c.access(write, mem.LineOf(addr), done)
}

// access is the internal (non-counting-of-entry) path, reused verbatim by
// MSHR-stall retries so that one logical access is accounted exactly once
// as a hit or a miss.
func (c *Cache) access(write bool, lineAddr uint64, done sim.Done) {
	if ln := c.lookup(lineAddr); ln != nil {
		c.cHits.Inc()
		c.lruClock++
		ln.lru = c.lruClock
		if write {
			ln.dirty = true
		}
		if jid := done.Journey(); jid != 0 {
			now := c.eng.Now()
			c.journeys.Span(jid, c.stage, journey.CauseHit, now, now+c.cfg.Latency)
		}
		if done.Valid() {
			c.eng.ScheduleDone(c.cfg.Latency, done)
		}
		return
	}
	c.miss(write, lineAddr, done)
}

func (c *Cache) miss(write bool, lineAddr uint64, done sim.Done) {
	if m, ok := c.mshrs[lineAddr]; ok {
		// Coalesce with the in-flight fetch of the same line.
		c.cMisses.Inc()
		c.cCoalesced.Inc()
		m.waiters = append(m.waiters, waiter{write: write, done: done, arrived: c.eng.Now()}) //prosperlint:ignore hotalloc amortized: waiter slices are recycled with their MSHRs at steady state
		if m.jid == 0 {
			// A sampled coalescer adopts the fetch if the initiator was
			// unsampled, so the downstream levels still get tagged (the
			// fetch token reads m.jid when it departs, latency cycles on).
			m.jid = done.Journey()
		}
		return
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		// Not yet a hit or a miss: the retry will classify it.
		c.cMSHRStalls.Inc()
		c.blocked = append(c.blocked, deferredAccess{write: write, addr: lineAddr, done: done, arrived: c.eng.Now()}) //prosperlint:ignore hotalloc amortized: the blocked list is drained and reused; growth is bounded by offered load
		return
	}
	c.cMisses.Inc()
	m := c.allocMSHR()
	m.waiters = append(m.waiters, waiter{write: write, done: done, arrived: c.eng.Now()}) //prosperlint:ignore hotalloc amortized: waiter slices are recycled with their MSHRs at steady state
	m.issued = c.eng.Now()
	m.jid = done.Journey()
	c.mshrs[lineAddr] = m
	c.hMSHROcc.Observe(uint64(len(c.mshrs)))
	// Fetch the line from the level below after paying the lookup latency.
	c.eng.ScheduleDone(c.cfg.Latency, sim.Bind(sim.CompCache, c.fetchFn, lineAddr))
}

// fetch asks the next level for lineAddr; fill runs on its completion.
// The fill token carries the miss's journey ID so the levels below tag
// their spans against the same sampled access.
func (c *Cache) fetch(lineAddr uint64) {
	tok := sim.Bind(sim.CompCache, c.fillFn, lineAddr)
	if c.journeys != nil {
		if m, ok := c.mshrs[lineAddr]; ok && m.jid != 0 {
			tok = tok.WithJourney(m.jid)
		}
	}
	c.nextAccess(false, lineAddr, tok)
}

func (c *Cache) fill(lineAddr uint64) {
	m := c.mshrs[lineAddr]
	delete(c.mshrs, lineAddr)
	c.hMissLatency.Observe(uint64(c.eng.Now() - m.issued))

	victim := c.victimFor(lineAddr)
	if victim.valid && victim.dirty {
		c.cWritebacks.Inc()
		// Posted writeback: lower level absorbs it asynchronously.
		c.nextAccess(true, victim.tag, sim.Done{})
	}
	c.lruClock++
	*victim = line{tag: lineAddr, valid: true, lru: c.lruClock}
	now := c.eng.Now()
	for i := range m.waiters {
		w := m.waiters[i]
		if w.write {
			victim.dirty = true
		}
		if jid := w.done.Journey(); jid != 0 {
			// The level's whole share of the miss, waiter arrival to
			// fill; deeper levels' spans carve out their sub-intervals
			// in the attribution sweep.
			cause := journey.CauseMiss
			if i > 0 {
				cause = journey.CauseCoalesced
			}
			c.journeys.Span(jid, c.stage, cause, w.arrived, now)
		}
		w.done.Run()
	}
	// Retire the MSHR only after the waiter loop: callbacks above may
	// allocate MSHRs for new misses and must not be handed this one.
	c.freeMSHR(m)
	c.retryBlocked()
}

func (c *Cache) allocMSHR() *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		return m
	}
	return &mshr{} //prosperlint:ignore hotalloc pool-miss only: freeMSHR recycles entries, so steady state allocates nothing
}

func (c *Cache) freeMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = waiter{} // drop completion references
	}
	m.waiters = m.waiters[:0]
	c.mshrFree = append(c.mshrFree, m)
}

func (c *Cache) victimFor(lineAddr uint64) *line {
	set := c.setFor(lineAddr)
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

func (c *Cache) retryBlocked() {
	if len(c.blocked) == 0 {
		return
	}
	// Swap in the spare backing so retries re-deferred by still-full MSHRs
	// append to a distinct slice; the drained one becomes the next spare.
	pend := c.blocked
	c.blocked = c.retryBuf[:0]
	now := c.eng.Now()
	for i := range pend {
		p := pend[i]
		if jid := p.done.Journey(); jid != 0 {
			c.journeys.Span(jid, journey.StageMSHR, journey.CauseMSHRFull, p.arrived, now)
		}
		c.access(p.write, p.addr, p.done)
	}
	for i := range pend {
		pend[i] = deferredAccess{}
	}
	c.retryBuf = pend[:0]
}

// MSHRsInUse returns how many miss-status registers hold in-flight
// misses right now; telemetry samples it against cfg.MSHRs.
func (c *Cache) MSHRsInUse() int { return len(c.mshrs) }

// Flush writes back every dirty line and invalidates the cache, e.g. to
// model cache loss at power failure or explicit clwb sweeps.
//
//prosperlint:ignore deadcode machine.TestAllocsL1MissL2Hit and TestAllocsJourneyOffUnsampled flush levels to force misses
func (c *Cache) Flush() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			ln := &c.sets[si][wi]
			if ln.valid && ln.dirty {
				c.cWritebacks.Inc()
				c.nextAccess(true, ln.tag, sim.Done{})
			}
			ln.valid = false
			ln.dirty = false
		}
	}
}

// Hierarchy bundles the per-core L1/L2 front ends with a shared L3 over
// the memory controller.
type Hierarchy struct {
	L1D []*Cache // one per core
	L2  []*Cache // one per core
	L3  *Cache
}

// NewHierarchy builds the Table II cache stack for the given core count.
func NewHierarchy(eng *sim.Engine, cores int, memory Port) *Hierarchy {
	h := &Hierarchy{L3: New(eng, L3Config(cores), memory)}
	for i := 0; i < cores; i++ {
		l2 := New(eng, L2Config(), h.L3)
		l1 := New(eng, L1DConfig(), l2)
		h.L2 = append(h.L2, l2)
		h.L1D = append(h.L1D, l1)
	}
	return h
}
