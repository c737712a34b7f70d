package main

import (
	"fmt"
	"time"

	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// The traced run times every layer from outside the program, through the
// layers' public functions only: it steps the engine itself and learns
// each event's owner from the engine's per-component event counts, wraps
// the workload program and the persistence mechanism to time Next,
// OnStore and Checkpoint, and times boot, spawn, snapshot, crash
// injection and fsck calls where it makes them. Nothing inside the
// program changes, so its simulated outputs must equal the untraced
// run's.

var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// span is one timed call. Parent is the index of the enclosing span, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// callStat aggregates a call made too often to keep a span per call.
type callStat struct{ calls, ns int64 }

func (c *callStat) add(ns int64) { c.calls++; c.ns += ns }

// call names a layer call the run makes itself; each is also kept as a
// span.
type call int

const (
	callBoot call = iota
	callSpawn
	callSave
	callResume
	callInject
	callFsck
	numCalls
)

var callNames = [numCalls]string{"kernel.New", "Kernel.Spawn", "snapshot.Save", "snapshot.Resume", "crash.Injector.Inject", "kernel.Fsck"}

// timed runs fn as a call. Inside an engine event it is a child of the
// event, so its time leaves the event owner's self time.
func (tr *tracer) timed(c call, fn func()) {
	if tr == nil {
		fn()
		return
	}
	end := tr.begin(callNames[c])
	s := nanotime()
	fn()
	d := nanotime() - s
	end()
	tr.calls[c].add(d)
	tr.childNS += d
}

// tracer records spans and per-layer accounting for one traced pass. A
// nil *tracer is the untraced run: every method is then a no-op and the
// wrappers return their argument.
type tracer struct {
	spans []span
	open  []int

	// childNS is host time inside timed calls (Next, OnStore, Checkpoint);
	// an event's self time excludes the part of it they cover.
	childNS int64
	next    callStat
	onStore callStat
	ckpt    callStat

	prof    *sim.Profile
	last    [sim.NumComponents]uint64
	eventN  [sim.NumComponents]int64
	eventNS [sim.NumComponents]int64
	steps   callStat

	calls     [numCalls]callStat // calls the run makes itself
	snapBytes int64

	model  [numModel]uint64 // model counters over measured windows
	before [numModel]uint64
	cycles int64 // simulated cycles stepped

	stream []workload.Op // the first ops Next returned, for the layer probes
}

func (tr *tracer) begin(name string) func() {
	if tr == nil {
		return func() {}
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	i := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Start: nanotime(), Parent: parent})
	tr.open = append(tr.open, i)
	return func() {
		tr.spans[i].End = nanotime()
		for n := len(tr.open) - 1; n >= 0; n-- {
			if tr.open[n] == i {
				tr.open = tr.open[:n]
				break
			}
		}
	}
}

// attach enables event-owner counting on a freshly booted kernel.
func (tr *tracer) attach(k *kernel.Kernel) {
	if tr == nil {
		return
	}
	tr.prof = k.Eng.EnableProfiling(nil)
	tr.last = [sim.NumComponents]uint64{}
}

// stepTo steps k's engine until it has fired target events, charging
// each event's self time to its owner, then moves the clock to deadline
// as Engine.RunUntil does (deadline < 0: leave the clock alone, as
// Engine.RunWhile does).
func (tr *tracer) stepTo(k *kernel.Kernel, target uint64, deadline sim.Time) error {
	from := k.Eng.Now()
	defer func() { tr.cycles += k.Eng.Now() - from }()
	for k.Eng.Fired() < target {
		c0 := tr.childNS
		s := nanotime()
		if !k.Eng.Step() {
			return fmt.Errorf("engine drained at %d of %d events", k.Eng.Fired(), target)
		}
		d := nanotime() - s
		counts := tr.prof.Snapshot().Counts
		for c := range counts {
			if counts[c] != tr.last[c] {
				tr.eventN[c]++
				tr.eventNS[c] += d - (tr.childNS - c0)
				break
			}
		}
		tr.last = counts
		tr.steps.add(d)
	}
	if now, seq, fired := k.Eng.Clock(); deadline >= 0 && now < deadline {
		k.Eng.RestoreClock(deadline, seq, fired)
	}
	return nil
}

// replay advances a simulation to deadlines. Untraced (tr nil) it runs
// the engine and records Engine.Fired at each stop; traced it steps to
// the recorded counts, so both runs fire exactly the same events.
type replay struct {
	tr    *tracer
	fired []uint64
	i     int
}

func (r *replay) runUntil(k *kernel.Kernel, deadline sim.Time) error {
	if r.tr == nil {
		k.Eng.RunUntil(deadline)
		r.fired = append(r.fired, k.Eng.Fired())
		return nil
	}
	return r.next(k, deadline)
}

func (r *replay) runWhile(k *kernel.Kernel, cond func() bool) error {
	if r.tr == nil {
		k.Eng.RunWhile(cond)
		r.fired = append(r.fired, k.Eng.Fired())
		return nil
	}
	return r.next(k, -1)
}

func (r *replay) next(k *kernel.Kernel, deadline sim.Time) error {
	if r.i >= len(r.fired) {
		return fmt.Errorf("traced run stops more often than the untraced one")
	}
	r.i++
	return r.tr.stepTo(k, r.fired[r.i-1], deadline)
}

// Program wrappers. The kernel type-asserts workload.Checkpointable, so
// the wrapper implements it exactly when the wrapped program does.
type progW struct {
	workload.Program
	tr *tracer
}

type progCkpt struct {
	*progW
	workload.Checkpointable
}

const streamOps = 1 << 16

func (p *progW) Next() workload.Op {
	s := nanotime()
	op := p.Program.Next()
	d := nanotime() - s
	p.tr.next.add(d)
	p.tr.childNS += d
	if len(p.tr.stream) < streamOps && (op.Kind == workload.Load || op.Kind == workload.Store) {
		p.tr.stream = append(p.tr.stream, op)
	}
	return op
}

func (tr *tracer) wrapProgram(p workload.Program) workload.Program {
	if tr == nil {
		return p
	}
	w := &progW{Program: p, tr: tr}
	if c, ok := p.(workload.Checkpointable); ok {
		return progCkpt{w, c}
	}
	return w
}

// Mechanism wrappers. The kernel type-asserts persist.Snapshotter and a
// Detach method, so each wrapper implements exactly what the wrapped
// mechanism does.
type detacher interface{ Detach() }

type mechW struct {
	persist.Mechanism
	tr *tracer
}

type mechSnap struct {
	*mechW
	persist.Snapshotter
}

type mechDetach struct {
	*mechW
	detacher
}

type mechSnapDetach struct {
	*mechW
	persist.Snapshotter
	detacher
}

func (m *mechW) OnStore(core *machine.Core, vaddr, paddr uint64, size int) sim.Time {
	s := nanotime()
	stall := m.Mechanism.OnStore(core, vaddr, paddr, size)
	d := nanotime() - s
	m.tr.onStore.add(d)
	m.tr.childNS += d
	return stall
}

func (m *mechW) Checkpoint(done func(persist.Result)) {
	end := m.tr.begin("Mechanism.Checkpoint")
	s := nanotime()
	m.Mechanism.Checkpoint(done)
	d := nanotime() - s
	end()
	m.tr.ckpt.add(d)
	m.tr.childNS += d
}

func (tr *tracer) wrapFactory(f persist.Factory) persist.Factory {
	if tr == nil || f == nil {
		return f
	}
	return func() persist.Mechanism {
		m := f()
		w := &mechW{Mechanism: m, tr: tr}
		s, snap := m.(persist.Snapshotter)
		d, det := m.(detacher)
		switch {
		case snap && det:
			return mechSnapDetach{w, s, d}
		case snap:
			return mechSnap{w, s}
		case det:
			return mechDetach{w, d}
		}
		return w
	}
}

// Model counters, read from the components' public Counters over each
// measured window. They are exact and must not change under a change
// that only makes the simulator faster.
const (
	mL1Hit = iota
	mL1Miss
	mL2Hit
	mL2Miss
	mL3Hit
	mL3Miss
	mCoalesced
	mTLBHit
	mTLBMiss
	mPageWalks
	mDRAM
	mNVMWrites
	mBufferStalls
	mSOIs
	mBitmapStores
	mWritebacks
	numModel
)

func modelCounters(k *kernel.Kernel) [numModel]uint64 {
	var v [numModel]uint64
	h := k.Mach.Hier
	for _, c := range k.Mach.Cores {
		v[mTLBHit] += c.TLB.Counters.Get(fmt.Sprintf("core%d.tlb.hits", c.ID))
		v[mTLBMiss] += c.TLB.Counters.Get(fmt.Sprintf("core%d.tlb.misses", c.ID))
		v[mPageWalks] += c.Counters.Get("core.page_walks")
	}
	for i := range h.L1D {
		v[mL1Hit] += h.L1D[i].Counters.Get("l1d.hits")
		v[mL1Miss] += h.L1D[i].Counters.Get("l1d.misses")
		v[mL2Hit] += h.L2[i].Counters.Get("l2.hits")
		v[mL2Miss] += h.L2[i].Counters.Get("l2.misses")
		v[mCoalesced] += h.L1D[i].Counters.Get("l1d.mshr_coalesced") + h.L2[i].Counters.Get("l2.mshr_coalesced")
	}
	v[mL3Hit] = h.L3.Counters.Get("l3.hits")
	v[mL3Miss] = h.L3.Counters.Get("l3.misses")
	v[mCoalesced] += h.L3.Counters.Get("l3.mshr_coalesced")
	dram, nvm := k.Mach.Ctl.DRAM.Counters, k.Mach.Ctl.NVM.Counters
	v[mDRAM] = dram.Get("dram.reads") + dram.Get("dram.writes")
	v[mNVMWrites] = nvm.Get("nvm.writes")
	v[mBufferStalls] = dram.Get("dram.buffer_stalls") + nvm.Get("nvm.buffer_stalls")
	for _, t := range k.Trackers {
		v[mSOIs] += t.Counters.Get("prosper.sois")
		v[mBitmapStores] += t.Counters.Get("prosper.bitmap_stores")
		v[mWritebacks] += t.Counters.Get("prosper.hwm_writebacks") + t.Counters.Get("prosper.evictions") + t.Counters.Get("prosper.flushes")
	}
	return v
}

func (tr *tracer) windowStart(k *kernel.Kernel) {
	if tr != nil {
		tr.before = modelCounters(k)
	}
}

func (tr *tracer) windowEnd(k *kernel.Kernel) {
	if tr != nil {
		after := modelCounters(k)
		for i := range after {
			tr.model[i] += after[i] - tr.before[i]
		}
	}
}
