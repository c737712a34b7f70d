// Package sim provides the deterministic discrete-event simulation engine
// that drives every timing component in the repository: cores, caches,
// memory devices, the Prosper dirty tracker, kernel timers, and background
// persistence threads.
//
// The engine is single-threaded and fully deterministic: events scheduled
// for the same cycle fire in the order they were scheduled (FIFO), and all
// randomness in the simulator flows from explicitly seeded sources
// (see Rand). Re-running a configuration always reproduces the same cycle
// counts and statistics.
//
// The event queue is an index-based 4-ary min-heap over a flat []event
// slice: no container/heap, no interface boxing, and the slice backing
// doubles as the event free list (popped slots are reused by later
// pushes), so steady-state scheduling allocates nothing. Ordering is the
// strict total order (when, seq) — seq is unique per event — so any
// correct min-heap pops events in exactly the same sequence; switching
// the heap arity cannot change a single simulated cycle.
package sim

import (
	"fmt"
	"slices"
)

// Time is a simulation timestamp in CPU cycles. The simulated machine runs
// at Frequency cycles per second, so wall-clock intervals convert via
// Millisecond and friends.
type Time = int64

// Frequency is the simulated core clock in cycles per second (3 GHz,
// matching Table II of the paper).
const Frequency = 3_000_000_000

// Convenient durations expressed in cycles at Frequency.
const (
	Nanosecond  Time = 3 // 3 cycles per ns at 3 GHz
	Microsecond Time = 3_000
	Millisecond Time = 3_000_000
	Second      Time = Frequency
)

// event is a scheduled callback. seq breaks ties among events with equal
// timestamps so ordering is deterministic FIFO. An event carries either a
// plain callback (fn) or a prebound single-argument callback (afn+arg);
// the latter lets hot paths schedule completions without materializing a
// fresh closure per event. comp tags the owning simulated component for
// host profiling; it never affects ordering.
type event struct {
	when Time
	seq  uint64
	fn   func()
	afn  func(uint64)
	arg  uint64
	comp Component
}

// less orders events by (when, seq). seq is unique, so this is a strict
// total order: heap pop order is independent of heap shape.
func (ev event) less(other event) bool {
	if ev.when != other.when {
		return ev.when < other.when
	}
	return ev.seq < other.seq
}

// Done is a heap-free completion token: the continuation a component hands
// down the memory hierarchy instead of a freshly allocated `func()`
// closure. It wraps either a plain callback or a callback bound to one
// uint64 argument; components materialize the bound method value once (at
// construction or pool-entry birth) and pass copies of the token through
// the port chain, so the steady-state access path allocates nothing.
//
// The zero value is the "no completion" token (the old nil done):
// Valid() is false and Run() is a no-op.
//
// A token carries the Component that owns its callback, declared once at
// the Thunk/Bind birth site; ScheduleDone/AtDone attribute the resulting
// event to that owner.
// A token also carries an optional journey ID (see internal/journey):
// when a sampled access's completion chain is handed down the hierarchy,
// WithJourney stamps the token and each component reads Journey() to tag
// the spans it records. The slot packs into the struct's existing
// padding next to comp, so carrying it is free, and an unstamped token's
// jid is 0 ("not sampled") — the tracing-off path costs one predictable
// branch per component and zero allocations.
type Done struct {
	fn   func()
	afn  func(uint64)
	arg  uint64
	comp Component
	jid  uint32
	key  uint64
}

// Thunk wraps a plain callback as a completion token owned by comp.
// Wrapping is free; creating fn itself may allocate, so hot paths should
// create it once and reuse the token.
func Thunk(comp Component, fn func()) Done { return Done{fn: fn, comp: comp} }

// Bind wraps a single-argument callback plus its argument as a completion
// token owned by comp. The callback is typically a method value stored
// once on the owning component; Bind itself never allocates.
func Bind(comp Component, fn func(uint64), arg uint64) Done {
	return Done{afn: fn, arg: arg, comp: comp}
}

// KeyedThunk wraps a plain callback as a completion token owned by comp
// and carrying a stable resume identity. Components whose tokens may be
// parked in device queues across a simulator snapshot declare a key at
// the birth site; the snapshot subsystem serializes parked tokens as
// (key, arg) pairs and re-binds them through a key registry on resume.
// Keys must be unique per live callback target; 0 means "no identity"
// (such a token cannot cross a snapshot boundary).
func KeyedThunk(comp Component, key uint64, fn func()) Done {
	return Done{fn: fn, comp: comp, key: key}
}

// KeyedBind wraps a single-argument callback plus its argument as a
// completion token owned by comp with a stable resume identity; see
// KeyedThunk for the key contract.
func KeyedBind(comp Component, key uint64, fn func(uint64), arg uint64) Done {
	return Done{afn: fn, arg: arg, comp: comp, key: key}
}

// Key returns the token's resume identity (0 when none was declared).
func (d Done) Key() uint64 { return d.key }

// WithArg returns a copy of the token with its bound argument replaced;
// the snapshot subsystem uses it to rehydrate serialized (key, arg)
// pairs from a registry of key prototypes.
func (d Done) WithArg(arg uint64) Done {
	d.arg = arg
	return d
}

// WithJourney returns a copy of the token stamped with a journey ID;
// components downstream read it back with Journey. Stamping jid 0 is the
// identity (an unsampled access).
func (d Done) WithJourney(jid uint32) Done {
	d.jid = jid
	return d
}

// Journey returns the journey ID the token was stamped with (0 when the
// access is not sampled or tracing is off).
func (d Done) Journey() uint32 { return d.jid }

// Valid reports whether the token carries a callback (the analogue of the
// old `done != nil` check).
func (d Done) Valid() bool { return d.fn != nil || d.afn != nil }

// Run invokes the wrapped callback, if any.
func (d Done) Run() {
	if d.fn != nil {
		d.fn()
		return
	}
	if d.afn != nil {
		d.afn(d.arg)
	}
}

// Engine is the discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	queue []event // flat 4-ary min-heap ordered by (when, seq)
	now   Time
	seq   uint64
	fired uint64
	prof  *Profile // nil unless EnableProfiling was called
}

// NewEngine returns an empty engine at cycle zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in cycles.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events executed so far, useful as a
// progress and determinism check.
func (e *Engine) Fired() uint64 { return e.fired }

// ScheduleSeq returns the sequence number the next scheduled event will
// receive. Because seq is the same-cycle tiebreaker and every Schedule/At
// consumes exactly one, a component that records ScheduleSeq right after
// scheduling an event can later prove "nothing else was scheduled in
// between" by comparing — the foundation of the device's order-safe
// completion batching.
func (e *Engine) ScheduleSeq() uint64 { return e.seq }

// Clock returns the engine's full clock state — current cycle, next
// schedule sequence number, and events fired — for snapshotting.
func (e *Engine) Clock() (now Time, seq, fired uint64) {
	return e.now, e.seq, e.fired
}

// RestoreClock overwrites the engine clock state with a previously
// captured one. The snapshot-resume path calls it after ResetQueue so
// that subsequently injected and scheduled events reproduce the saved
// run's (when, seq) order exactly.
func (e *Engine) RestoreClock(now Time, seq, fired uint64) {
	e.now = now
	e.seq = seq
	e.fired = fired
}

// ResetQueue discards every pending event without firing it. Only the
// snapshot-resume path uses it: a freshly booted kernel's constructor
// events are replaced wholesale by the saved run's re-injected ones.
func (e *Engine) ResetQueue() {
	for i := range e.queue {
		e.queue[i] = event{}
	}
	e.queue = e.queue[:0]
}

// Inject pushes an event with an explicit (when, seq) identity without
// consuming the engine's sequence counter. The snapshot-resume path uses
// it to re-create pending events whose owners recorded their scheduled
// identity; when must not be in the past.
func (e *Engine) Inject(comp Component, when Time, seq uint64, fn func()) {
	if when < e.now {
		panic(fmt.Sprintf("sim: inject at %d before now %d", when, e.now))
	}
	e.push(event{when: when, seq: seq, fn: fn, comp: comp})
}

// InjectDone is Inject for a completion token.
func (e *Engine) InjectDone(when Time, seq uint64, d Done) {
	if when < e.now {
		panic(fmt.Sprintf("sim: inject at %d before now %d", when, e.now))
	}
	e.push(event{when: when, seq: seq, fn: d.fn, afn: d.afn, arg: d.arg, comp: d.comp})
}

// PendingKey identifies one queued event by its total-order position.
type PendingKey struct {
	When Time
	Seq  uint64
}

// PendingKeys returns the (when, seq) identity of every queued event in
// ascending order. The snapshot path cross-checks it against the events
// each component claims ownership of, proving the queue was reconstructed
// exactly.
func (e *Engine) PendingKeys() []PendingKey {
	out := make([]PendingKey, len(e.queue))
	for i, ev := range e.queue {
		out[i] = PendingKey{When: ev.when, Seq: ev.seq}
	}
	slices.SortFunc(out, func(a, b PendingKey) int {
		if a.When != b.When {
			if a.When < b.When {
				return -1
			}
			return 1
		}
		if a.Seq != b.Seq {
			if a.Seq < b.Seq {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}

// AssertDrained returns nil when no events are pending, or an error
// naming the leftover count and the next due timestamp. Tests use it to
// prove a simulation wound down completely instead of abandoning queued
// work (e.g. the runner's per-spec engines after a measured window).
//
//prosperlint:ignore deadcode runner.TestEngineDrains uses it to prove an engine wound down
func (e *Engine) AssertDrained() error {
	if len(e.queue) == 0 {
		return nil
	}
	return fmt.Errorf("sim: %d events still pending, next at cycle %d (now %d)",
		len(e.queue), e.queue[0].when, e.now)
}

// Schedule runs fn delay cycles from now, attributing the event to comp.
// A negative delay panics: the simulator never travels backwards.
func (e *Engine) Schedule(comp Component, delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay)) //prosperlint:ignore hotalloc panic path: the message formats only when a negative delay aborts the run
	}
	e.At(comp, e.now+delay, fn)
}

// At runs fn at the absolute cycle t, which must not be in the past,
// attributing the event to comp.
func (e *Engine) At(comp Component, t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now)) //prosperlint:ignore hotalloc panic path: the message formats only when scheduling into the past aborts the run
	}
	e.push(event{when: t, seq: e.seq, fn: fn, comp: comp})
	e.seq++
}

// ScheduleDone runs the completion token delay cycles from now. The event
// is attributed to the token's owner.
func (e *Engine) ScheduleDone(delay Time, d Done) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay)) //prosperlint:ignore hotalloc panic path: the message formats only when a negative delay aborts the run
	}
	e.AtDone(e.now+delay, d)
}

// AtDone runs the completion token at the absolute cycle t. The event is
// attributed to the token's owner.
func (e *Engine) AtDone(t Time, d Done) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now)) //prosperlint:ignore hotalloc panic path: the message formats only when scheduling into the past aborts the run
	}
	e.push(event{when: t, seq: e.seq, fn: d.fn, afn: d.afn, arg: d.arg, comp: d.comp})
	e.seq++
}

// push inserts ev, sifting up through 4-ary parents. Shifting occupied
// slots down and writing ev once at its final position keeps the inner
// loop to one comparison and one copy per level.
func (e *Engine) push(ev event) {
	e.queue = append(e.queue, ev) //prosperlint:ignore hotalloc amortized: the event heap grows to the high-water mark and is reused
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.less(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes and returns the minimum event (the root at index 0, which
// AssertDrained and RunUntil peek directly).
func (e *Engine) pop() event {
	q := e.queue
	root := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop callback references so the GC can reclaim them
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return root
}

// siftDown re-inserts ev from the root, descending to the smallest of up
// to four children per level.
func (e *Engine) siftDown(ev event) {
	q := e.queue
	n := len(q)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q[c].less(q[min]) {
				min = c
			}
		}
		if !q[min].less(ev) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = ev
}

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.when
	e.fired++
	if e.prof != nil {
		e.prof.record(ev.comp)
	}
	if ev.fn != nil {
		ev.fn()
	} else if ev.afn != nil {
		ev.afn(ev.arg)
	}
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, leaving later
// events queued. The clock is then advanced to deadline (even when the
// last fired event was earlier), so subsequent Schedule calls are
// relative to the deadline.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].when <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWhile executes events until cond() reports false or the queue drains.
// cond is evaluated before each event.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// Ticker invokes fn every period cycles until Stop is called. The first
// tick fires one period from the time Tick is created. The rescheduling
// callback is bound once at construction and reused every period, so a
// steady ticker contributes zero allocations per tick. Every tick event
// is attributed to the component declared at construction.
type Ticker struct {
	engine  *Engine
	period  Time
	fn      func()
	tickFn  func() // t.tick, materialized once
	comp    Component
	stopped bool

	// nextWhen/nextSeq record the scheduled identity of the pending tick
	// so a snapshot can claim (and a resume re-inject) that exact event.
	nextWhen Time
	nextSeq  uint64
}

// NewTicker schedules fn to run every period cycles, attributing tick
// events to comp. period must be positive.
func (e *Engine) NewTicker(comp Component, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn, comp: comp}
	t.tickFn = t.tick
	t.nextWhen, t.nextSeq = e.now+period, e.seq
	e.Schedule(comp, period, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.nextWhen, t.nextSeq = t.engine.now+t.period, t.engine.seq
		t.engine.Schedule(t.comp, t.period, t.tickFn)
	}
}

// Stop cancels future ticks. It is safe to call from within fn.
func (t *Ticker) Stop() { t.stopped = true }

// Stopped reports whether the ticker has been stopped.
func (t *Ticker) Stopped() bool { return t.stopped }

// NextFire returns the scheduled identity of the pending tick event.
// Meaningless after Stop (the stale event stays queued but is a no-op);
// the snapshot path still claims it so the queue cross-check balances.
func (t *Ticker) NextFire() (when Time, seq uint64) { return t.nextWhen, t.nextSeq }

// Rearm re-injects the pending tick event with an explicit identity on a
// freshly reset engine queue (snapshot resume).
func (t *Ticker) Rearm(when Time, seq uint64) {
	t.nextWhen, t.nextSeq = when, seq
	t.engine.Inject(t.comp, when, seq, t.tickFn)
}
