package machine

import (
	"fmt"

	"prosper/internal/cache"
	"prosper/internal/journey"
	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/vm"
)

// StoreObserver sees every store the core issues, with its virtual
// address, before it enters the cache hierarchy. The Prosper dirty
// tracker and Romulus's hardware logger implement this.
type StoreObserver interface {
	ObserveStore(vaddr uint64, size int)
}

// FaultHandler resolves a page fault in kernel context; the machine
// charges Config.PageFaultCycles around the call. Returning an error
// kills the access (simulated segfault).
type FaultHandler func(vaddr uint64, write bool) error

// Core is one in-order simulated CPU. The kernel binds an address space,
// fault handler, and optional observers before running code on it.
//
// The access path is closure-free: each in-flight Read/Write is tracked
// by pooled continuation records (memOp/segOp/walkOp) whose callbacks are
// method values bound once when the record is first created, so the
// steady-state load/store path allocates nothing.
type Core struct {
	ID   int      //prosperlint:ignore snapshot identity, fixed at construction; SaveSnap only names it in diagnostics
	mach *Machine //prosperlint:ignore snapshot boot-time wiring; SaveSnap only reads its config for the quiescence check
	eng  *sim.Engine

	TLB *vm.TLB
	l1  *cache.Cache
	l2  *cache.Cache

	// Context, owned by the kernel.
	AS       *vm.AddressSpace
	OnFault  FaultHandler
	Observer StoreObserver
	// StoreHook, when set, interposes extra persistence work per store
	// (Romulus logging, SSP shadow remapping); it runs after the
	// functional write, may issue its own timed traffic, and returns a
	// stall the store pipeline must absorb before the store retires
	// (e.g. SSP's shadow-line remap resolution from NVM).
	StoreHook func(vaddr, paddr uint64, size int) sim.Time
	// Tracer, when set, observes every program-issued memory operation at
	// issue time (the SniP-style tracing tap used by internal/trace).
	Tracer func(write bool, vaddr uint64, size int)

	storeCredits int      //prosperlint:ignore snapshot SaveSnap asserts the store buffer drained; a fresh boot's full credit pool needs no restoring
	storeWaiters []func() //prosperlint:ignore snapshot SaveSnap asserts no waiters; a fresh boot's empty list needs no restoring
	//prosperlint:ignore snapshot SaveSnap asserts it equals len(storeWaiters); implied by the drained store buffer
	swHead int // oldest waiting credit requester

	// relCreditTok returns one store-buffer credit on L1 completion; the
	// method value is materialized once here instead of per store.
	relCreditTok sim.Done
	// relCreditJFn is the sampled-store variant: it releases the credit
	// and retires the store's journey segment (the journey ID rides the
	// token's bound argument). Materialized once; only sampled stores
	// bind it, so the tracing-off path never touches it.
	relCreditJFn func(uint64)

	// journeys, when attached, samples and records per-access journeys.
	// Boot-time wiring like mach/eng: the snapshot runner rejects
	// journey-enabled specs, so there is no state to save (§15).
	journeys *journey.Recorder

	// Continuation free lists. Records cycle between the pools and the
	// in-flight sets; their bound callbacks are created at record birth.
	opFree   []*memOp
	segFree  []*segOp
	walkFree []*walkOp

	Counters *stats.Counters
}

func newCore(m *Machine, id int) *Core {
	c := &Core{
		ID:           id,
		mach:         m,
		eng:          m.Eng,
		TLB:          vm.NewTLB(fmt.Sprintf("core%d.tlb", id), m.Cfg.TLBEntries),
		l1:           m.Hier.L1D[id],
		l2:           m.Hier.L2[id],
		storeCredits: m.Cfg.StoreBuffer,
		Counters:     stats.NewCounters(),
	}
	c.relCreditTok = sim.Thunk(sim.CompWorkload, c.releaseStoreCredit)
	c.relCreditJFn = c.releaseStoreCreditJourney
	return c
}

// memOp is one in-flight Read or Write: the shared buffer, the caller's
// completion, and the count of line segments still outstanding.
type memOp struct {
	buf       []byte // read destination, reused across ops (see Read)
	data      []byte // store payload (caller-owned, released on free)
	readDone  func([]byte)
	writeDone func()
	remaining int
}

// segOp is one cache-line segment of a memOp, with its continuations
// bound once at record birth: translatedFn resumes after address
// translation, lineDoneTok after the L1 access, issueFn after a
// store-hook stall, creditFn after a store-buffer credit is granted.
type segOp struct {
	core   *Core
	op     *memOp
	va     uint64
	off, n int
	write  bool
	paddr  uint64
	jid    uint32   // journey of the parent access (0: unsampled)
	sbWait sim.Time // when the segment began waiting for a store credit

	translatedFn func(uint64)
	lineDoneTok  sim.Done
	issueFn      func()
	creditFn     func()
}

// walkOp is one hardware page walk: the dependent chain of table reads
// plus the translation continuation that runs when it finishes.
type walkKind uint8

const (
	walkTLBMiss walkKind = iota
	walkDirtySet
)

type walkOp struct {
	core  *Core
	kind  walkKind
	vaddr uint64
	write bool
	jid   uint32 // journey of the access that triggered the walk
	k     func(uint64)
	entry *vm.TLBEntry // dirty-set walks: the hitting TLB entry
	addrs [4]uint64
	n, i  int
	began sim.Time

	stepFn sim.Done
}

func (c *Core) allocOp() *memOp {
	if n := len(c.opFree); n > 0 {
		op := c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
		return op
	}
	return &memOp{} //prosperlint:ignore hotalloc pool-miss only: freeOp recycles memOps, so steady state allocates nothing
}

func (c *Core) freeOp(op *memOp) {
	op.data = nil
	op.readDone = nil
	op.writeDone = nil
	c.opFree = append(c.opFree, op) //prosperlint:ignore hotalloc amortized: free-list growth is bounded by peak concurrency
}

func (c *Core) allocSeg() *segOp {
	if n := len(c.segFree); n > 0 {
		s := c.segFree[n-1]
		c.segFree = c.segFree[:n-1]
		return s
	}
	s := &segOp{core: c}                                    //prosperlint:ignore hotalloc pool-miss only: freeSeg recycles segOps, so steady state allocates nothing
	s.translatedFn = s.translated                           //prosperlint:ignore hotalloc pool-miss only: bound once per pooled segOp and reused for its lifetime
	s.lineDoneTok = sim.Thunk(sim.CompWorkload, s.lineDone) //prosperlint:ignore hotalloc pool-miss only: bound once per pooled segOp and reused for its lifetime
	s.issueFn = s.issue                                     //prosperlint:ignore hotalloc pool-miss only: bound once per pooled segOp and reused for its lifetime
	s.creditFn = s.credited                                 //prosperlint:ignore hotalloc pool-miss only: bound once per pooled segOp and reused for its lifetime
	return s
}

func (c *Core) freeSeg(s *segOp) {
	s.op = nil
	c.segFree = append(c.segFree, s) //prosperlint:ignore hotalloc amortized: free-list growth is bounded by peak concurrency
}

func (c *Core) allocWalk() *walkOp {
	if n := len(c.walkFree); n > 0 {
		w := c.walkFree[n-1]
		c.walkFree = c.walkFree[:n-1]
		return w
	}
	w := &walkOp{core: c}                    //prosperlint:ignore hotalloc pool-miss only: freeWalk recycles walkOps, so steady state allocates nothing
	w.stepFn = sim.Thunk(sim.CompVM, w.step) //prosperlint:ignore hotalloc pool-miss only: bound once per pooled walkOp and reused for its lifetime
	return w
}

func (c *Core) freeWalk(w *walkOp) {
	w.k = nil
	w.entry = nil
	c.walkFree = append(c.walkFree, w) //prosperlint:ignore hotalloc amortized: free-list growth is bounded by peak concurrency
}

// L2 returns the core's private L2; tracker-generated bitmap traffic is
// injected here so it does not pollute L1 but still contends below it.
func (c *Core) L2() *cache.Cache { return c.l2 }

// StoreBufferInUse returns how many store-buffer entries are occupied
// right now; telemetry samples it against Config.StoreBuffer.
func (c *Core) StoreBufferInUse() int { return c.mach.Cfg.StoreBuffer - c.storeCredits }

// SwitchContext rebinds the core to a new address space, flushing the TLB
// like a CR3 write.
func (c *Core) SwitchContext(as *vm.AddressSpace) {
	c.AS = as
	c.TLB.Flush()
	c.Counters.Inc("core.context_switches")
}

// translate resolves vaddr and calls k with the physical address. It
// models TLB lookup, hardware page walks (timed reads through L2 of the
// real walk addresses), dirty-bit setting walks on first store to a clean
// page, and page faults through the kernel handler.
func (c *Core) translate(vaddr uint64, write bool, jid uint32, k func(paddr uint64)) {
	if e := c.TLB.Lookup(vaddr); e != nil {
		if write && !e.Write {
			c.fault(vaddr, write, jid, k)
			return
		}
		if write && !e.Dirty {
			// First store since the PTE's dirty bit was cleared: the page
			// walker must set it in memory (this is what gives the
			// Dirtybit tracking baseline its per-page cost).
			w := c.allocWalk()
			w.kind = walkDirtySet
			w.vaddr, w.write, w.k, w.entry = vaddr, write, k, e
			w.jid = jid
			c.startWalk(w)
			return
		}
		k(e.Frame | (vaddr & (mem.PageSize - 1)))
		return
	}
	// TLB miss: hardware walk.
	w := c.allocWalk()
	w.kind = walkTLBMiss
	w.vaddr, w.write, w.k = vaddr, write, k
	w.jid = jid
	c.startWalk(w)
}

// startWalk issues the dependent chain of page-table reads through L2 and
// records the end-to-end walk latency into the TLB's distribution.
func (c *Core) startWalk(w *walkOp) {
	c.Counters.Inc("core.page_walks")
	w.n = c.AS.PT.WalkAddrsInto(w.vaddr, &w.addrs)
	w.began = c.eng.Now()
	w.i = 0
	w.step()
}

func (w *walkOp) step() {
	c := w.core
	if w.i >= w.n {
		c.TLB.WalkLatency.Observe(uint64(c.eng.Now() - w.began))
		w.finish()
		return
	}
	a := w.addrs[w.i]
	w.i++
	c.l2.Access(false, a, w.stepFn.WithJourney(w.jid))
}

// finish completes the walk: it re-reads the page table functionally and
// resumes the translation continuation (or faults). The walkOp is retired
// before the continuation runs so it can be reused by walks the
// continuation itself triggers.
func (w *walkOp) finish() {
	c := w.core
	vaddr, write, jid := w.vaddr, w.write, w.jid
	k := w.k
	if jid != 0 {
		cause := journey.CauseWalk
		if w.kind == walkDirtySet {
			cause = journey.CauseDirtySet
		}
		c.journeys.Span(jid, journey.StageTLB, cause, w.began, c.eng.Now())
	}
	if w.kind == walkDirtySet {
		e := w.entry
		c.freeWalk(w)
		pte := c.AS.PT.Lookup(vaddr)
		if pte == nil || !pte.Present() {
			c.fault(vaddr, write, jid, k)
			return
		}
		pte.Flags |= vm.FlagDirty | vm.FlagAccess
		e.Dirty = true
		c.Counters.Inc("core.dirty_set_walks")
		k(e.Frame | (vaddr & (mem.PageSize - 1)))
		return
	}
	c.freeWalk(w)
	paddr, pte, ok := c.AS.PT.Translate(vaddr)
	if !ok || (write && !pte.Writable()) {
		c.fault(vaddr, write, jid, k)
		return
	}
	pte.Flags |= vm.FlagAccess
	if write {
		pte.Flags |= vm.FlagDirty
	}
	c.TLB.Insert(vaddr, paddr&^uint64(mem.PageSize-1), pte.Writable(), pte.Dirty())
	k(paddr)
}

// fault invokes the kernel fault handler, charges the fault cost, and
// retries the translation. An unresolvable fault panics: simulated
// workloads are not supposed to segfault. Faults are rare, so the retry
// closure is the one place the translation path still allocates.
func (c *Core) fault(vaddr uint64, write bool, jid uint32, k func(uint64)) {
	c.Counters.Inc("core.page_faults")
	if c.OnFault == nil {
		panic("machine: page fault with no handler")
	}
	if err := c.OnFault(vaddr, write); err != nil {
		panic("machine: " + err.Error()) //prosperlint:ignore hotalloc panic path: the concat feeds a fatal error on an unhandled fault
	}
	if jid != 0 {
		now := c.eng.Now()
		c.journeys.Span(jid, journey.StageTLB, journey.CauseFault, now, now+c.mach.Cfg.PageFaultCycles)
	}
	c.TLB.Invalidate(vaddr)
	c.eng.Schedule(sim.CompVM, c.mach.Cfg.PageFaultCycles, func() { //prosperlint:ignore hotalloc fault path: page faults are rare by design; the retry closure is documented above
		c.translate(vaddr, write, jid, k)
	})
}

// Read performs a timed load of size bytes at vaddr; done receives the
// data once the slowest line completes. Loads block the core (the kernel
// run loop waits for done before issuing the next op), so the buffer
// handed to done is only valid until the core issues its next load — it
// is reused, not reallocated.
//
//prosperlint:hotpath per-access load entry: every workload load funnels through here
func (c *Core) Read(vaddr uint64, size int, done func([]byte)) {
	c.Counters.Inc("core.loads")
	if c.Tracer != nil {
		c.Tracer(false, vaddr, size)
	}
	if size <= 0 {
		return
	}
	op := c.allocOp()
	op.readDone = done
	if cap(op.buf) < size {
		op.buf = make([]byte, size) //prosperlint:ignore hotalloc growth-only: the op buffer is reused across loads and grows to the high-water mark
	} else {
		op.buf = op.buf[:size]
	}
	op.remaining = mem.LinesSpanned(vaddr, size)
	jid := c.journeys.Start(c.eng.Now(), false, vaddr, size, op.remaining)
	c.issueSegs(op, vaddr, size, false, jid)
}

// Write performs a store of data at vaddr. done fires when the store has
// been accepted into the store buffer (program order can continue), not
// when it completes in the memory system; completion returns the buffer
// credit asynchronously, so a full store buffer stalls the core exactly
// like real hardware.
//
//prosperlint:hotpath per-access store entry: every workload store funnels through here
func (c *Core) Write(vaddr uint64, data []byte, done func()) {
	c.Counters.Inc("core.stores")
	if c.Tracer != nil {
		c.Tracer(true, vaddr, len(data))
	}
	if c.Observer != nil {
		c.Observer.ObserveStore(vaddr, len(data))
	}
	if len(data) == 0 {
		return
	}
	op := c.allocOp()
	op.data = data
	op.writeDone = done
	op.remaining = mem.LinesSpanned(vaddr, len(data))
	jid := c.journeys.Start(c.eng.Now(), true, vaddr, len(data), op.remaining)
	c.issueSegs(op, vaddr, len(data), true, jid)
}

// issueSegs cuts [vaddr, vaddr+size) at cache-line boundaries and starts
// one segment record per line, in address order.
func (c *Core) issueSegs(op *memOp, vaddr uint64, size int, write bool, jid uint32) {
	off := 0
	for size > 0 {
		space := int(mem.LineSize - (vaddr & (mem.LineSize - 1)))
		n := size
		if n > space {
			n = space
		}
		s := c.allocSeg()
		s.op = op
		s.va, s.off, s.n, s.write = vaddr, off, n, write
		s.jid = jid
		c.translate(vaddr, write, jid, s.translatedFn)
		vaddr += uint64(n)
		off += n
		size -= n
	}
}

// translated resumes a segment once its physical address is known: the
// functional data movement happens immediately, then the timed cache
// access (reads) or the store pipeline (writes) takes over.
func (s *segOp) translated(paddr uint64) {
	c := s.core
	if !s.write {
		c.mach.Storage.Read(paddr, s.op.buf[s.off:s.off+s.n])
		c.l1.Access(false, paddr, s.lineDoneTok.WithJourney(s.jid))
		return
	}
	c.mach.Storage.Write(paddr, s.op.data[s.off:s.off+s.n])
	var stall sim.Time
	if c.StoreHook != nil {
		stall = c.StoreHook(s.va, paddr, s.n)
	}
	s.paddr = paddr
	if stall > 0 {
		c.Counters.Inc("core.store_hook_stalls")
		if s.jid != 0 {
			now := c.eng.Now()
			c.journeys.Span(s.jid, journey.StageHook, journey.CauseStoreHook, now, now+stall)
		}
		c.eng.Schedule(sim.CompWorkload, stall, s.issueFn)
	} else {
		s.issue()
	}
}

// lineDone retires one read segment at L1 completion.
func (s *segOp) lineDone() {
	c := s.core
	op := s.op
	if s.jid != 0 {
		c.journeys.SegDone(s.jid, c.eng.Now())
	}
	c.freeSeg(s)
	op.remaining--
	if op.remaining == 0 {
		if op.readDone != nil {
			op.readDone(op.buf)
		}
		c.freeOp(op)
	}
}

// issue enters a write segment into the store-credit queue.
func (s *segOp) issue() {
	if s.jid != 0 {
		s.sbWait = s.core.eng.Now()
	}
	s.core.acquireStoreCredit(s.creditFn)
}

// credited runs once the store buffer accepts the segment: the timed L1
// write goes out carrying the credit-release token, and the segment
// retires (program order continues at acceptance, not completion).
// A sampled store's journey runs to memory-system completion, not
// acceptance: its token retires the journey segment when the credit
// comes back.
func (s *segOp) credited() {
	c := s.core
	op := s.op
	tok := c.relCreditTok
	if s.jid != 0 {
		now := c.eng.Now()
		if now > s.sbWait {
			c.journeys.Span(s.jid, journey.StageStoreBuf, journey.CauseSBFull, s.sbWait, now)
		}
		tok = sim.Bind(sim.CompWorkload, c.relCreditJFn, uint64(s.jid)).WithJourney(s.jid)
	}
	c.l1.Access(true, s.paddr, tok)
	c.freeSeg(s)
	op.remaining--
	if op.remaining == 0 {
		if op.writeDone != nil {
			op.writeDone()
		}
		c.freeOp(op)
	}
}

func (c *Core) acquireStoreCredit(k func()) {
	if c.storeCredits > 0 {
		c.storeCredits--
		k()
		return
	}
	c.Counters.Inc("core.store_buffer_stalls")
	c.storeWaiters = append(c.storeWaiters, k) //prosperlint:ignore hotalloc amortized: the credit-waiter list is drained and reused under backpressure
}

// releaseStoreCreditJourney is the sampled-store completion: the credit
// returns and the journey's segment retires at true completion time.
func (c *Core) releaseStoreCreditJourney(jid uint64) {
	c.releaseStoreCredit()
	c.journeys.SegDone(uint32(jid), c.eng.Now())
}

func (c *Core) releaseStoreCredit() {
	if c.swHead < len(c.storeWaiters) {
		k := c.storeWaiters[c.swHead]
		c.storeWaiters[c.swHead] = nil
		c.swHead++
		if c.swHead == len(c.storeWaiters) {
			c.storeWaiters = c.storeWaiters[:0]
			c.swHead = 0
		}
		k()
		return
	}
	c.storeCredits++
}

// DrainStores calls done once every in-flight store has left the store
// buffer (a store fence, used around checkpoints and context switches).
func (c *Core) DrainStores(done func()) {
	if c.storeCredits == c.mach.Cfg.StoreBuffer && c.swHead == len(c.storeWaiters) {
		c.eng.Schedule(sim.CompKernel, 0, done)
		return
	}
	c.eng.Schedule(sim.CompKernel, 20, func() { c.DrainStores(done) })
}
