// Package telemetry is the sim-time observability layer of the
// simulator: a deterministic tracer that records spans, instant events,
// and counter samples keyed by engine cycles (never wall clock), plus a
// hierarchical metrics registry (registry.go) that adopts the
// per-component stats.Counters under stable dotted names.
//
// Traces serialize to the Chrome trace-event JSON format, which
// ui.perfetto.dev loads directly. Timestamps are emitted in raw engine
// cycles (the viewer labels them as microseconds; at the simulated 3 GHz
// one displayed "us" is one cycle, i.e. 1/3 ns — see DESIGN.md §8).
//
// Everything is nil-safe: a nil *Trace hands out nil *Tracers, and every
// Tracer/Span method no-ops on a nil receiver, so instrumented code runs
// with zero overhead when telemetry is disabled (a single pointer test
// on the hot paths; see BenchmarkNilTracer*).
//
// Determinism: each simulation run owns one Tracer, recorded into only
// from that run's single-threaded event engine; the parent Trace emits
// tracers in creation order (plan order, not completion order), so the
// serialized bytes are identical for any worker count.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"

	"prosper/internal/sim"
)

// Arg is one key/value attribute attached to a span or instant event.
type Arg struct {
	Key   string
	val   int64
	str   string
	isStr bool
}

// I builds an integer-valued attribute.
func I(key string, v int64) Arg { return Arg{Key: key, val: v} }

// U builds an integer attribute from an unsigned counter value.
func U(key string, v uint64) Arg { return Arg{Key: key, val: int64(v)} }

// S builds a string-valued attribute.
func S(key, v string) Arg { return Arg{Key: key, str: v, isStr: true} }

// Track is one named horizontal lane inside a run's trace (a "thread" in
// Chrome trace terms). The zero value is valid and names the run's
// default lane.
type Track struct{ tid int }

// event is one recorded trace event. ph follows the Chrome trace-event
// phase codes: 'X' complete span, 'i' instant, 'C' counter, 'M' metadata,
// and 's'/'t'/'f' flow start/step/finish (id carries the flow identity).
type event struct {
	ph   byte
	tid  int
	name string
	ts   sim.Time
	dur  sim.Time
	id   uint64
	args []Arg
}

// metricsSnap is one registry snapshot at a sim timestamp.
type metricsSnap struct {
	cycle  sim.Time
	names  []string
	values []uint64
}

// Tracer records one simulation run's telemetry. It is not safe for
// concurrent use — by construction a run's tracer is only touched from
// that run's single-threaded sim engine, which is what keeps event order
// deterministic.
type Tracer struct {
	pid     int
	name    string
	eng     *sim.Engine
	nextTID int
	events  []event
	snaps   []metricsSnap
}

// Enabled reports whether the tracer actually records (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Bind attaches the engine whose clock timestamps every event. The
// kernel calls it at boot; events recorded before Bind stamp cycle 0.
func (t *Tracer) Bind(eng *sim.Engine) {
	if t == nil {
		return
	}
	t.eng = eng
}

func (t *Tracer) now() sim.Time {
	if t.eng == nil {
		return 0
	}
	return t.eng.Now()
}

// Track allocates a named lane and emits its thread_name metadata.
func (t *Tracer) Track(name string) Track {
	if t == nil {
		return Track{}
	}
	t.nextTID++
	tid := t.nextTID
	t.events = append(t.events, event{ph: 'M', name: "thread_name", tid: tid, args: []Arg{S("name", name)}})
	return Track{tid: tid}
}

// Span is an in-progress interval opened by Begin. The zero value (from
// a nil tracer) is valid and End on it is a no-op.
type Span struct {
	t     *Tracer
	track Track
	name  string
	start sim.Time
}

// Begin opens a span on the track at the current sim time.
func (t *Tracer) Begin(track Track, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, track: track, name: name, start: t.now()}
}

// End closes the span at the current sim time, attaching args.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	s.t.events = append(s.t.events, event{
		ph: 'X', tid: s.track.tid, name: s.name,
		ts: s.start, dur: s.t.now() - s.start, args: args,
	})
}

// SpanAt records a complete span with an explicit start and duration
// instead of the engine clock. Post-hoc exporters (internal/journey)
// use it to serialize spans whose cycles were recorded during the run.
func (t *Tracer) SpanAt(track Track, name string, start, dur sim.Time, args ...Arg) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.events = append(t.events, event{
		ph: 'X', tid: track.tid, name: name, ts: start, dur: dur, args: args,
	})
}

// FlowStart opens a flow arrow (Chrome phase 's') with identity id at an
// explicit timestamp. Perfetto draws an arrow from here through every
// FlowStep with the same id to the matching FlowEnd, linking related
// spans across tracks; the (ts, track) pair should sit inside the span
// the arrow departs from.
func (t *Tracer) FlowStart(track Track, name string, id uint64, ts sim.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{ph: 's', tid: track.tid, name: name, ts: ts, id: id})
}

// FlowStep continues flow id through an intermediate span ('t').
func (t *Tracer) FlowStep(track Track, name string, id uint64, ts sim.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{ph: 't', tid: track.tid, name: name, ts: ts, id: id})
}

// FlowEnd terminates flow id ('f'). Emitted with binding point "e"
// (enclosing slice) so the arrowhead attaches to the span containing
// the timestamp, per the trace-event spec.
func (t *Tracer) FlowEnd(track Track, name string, id uint64, ts sim.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{ph: 'f', tid: track.tid, name: name, ts: ts, id: id})
}

// Instant records a point event on the track.
func (t *Tracer) Instant(track Track, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{ph: 'i', tid: track.tid, name: name, ts: t.now(), args: args}) //prosperlint:ignore hotalloc tracing only: the event buffer exists only when a trace sink is attached
}

// Counter records one sample of a counter-track series; Perfetto renders
// successive samples of the same name as a stepped area chart.
func (t *Tracer) Counter(track Track, name, series string, v int64) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{ph: 'C', tid: track.tid, name: name, ts: t.now(), args: []Arg{I(series, v)}})
}

// CounterProbe describes one occupancy series to sample periodically:
// Get is polled at every sampling tick and must only read state.
type CounterProbe struct {
	Track  Track
	Name   string // counter-track name, e.g. "nvm.queue"
	Series string // series key inside the track, e.g. "writes"
	Get    func() int64
}

// Sample records one sample from every probe at the current sim time.
func (t *Tracer) Sample(probes []CounterProbe) {
	if t == nil {
		return
	}
	for _, p := range probes {
		t.Counter(p.Track, p.Name, p.Series, p.Get())
	}
}

// SnapshotMetrics captures the registry's full current state, stamped
// with the current sim time, for WriteMetricsJSONL.
func (t *Tracer) SnapshotMetrics(r *Registry) {
	if t == nil || r == nil {
		return
	}
	names, values := r.Snapshot()
	t.snaps = append(t.snaps, metricsSnap{cycle: t.now(), names: names, values: values})
}

// Trace is the top-level collection: one Tracer per simulation run, each
// rendered as its own process lane ("pid") in Perfetto. NewTracer is
// safe for concurrent use; recording into a Tracer is single-run-local.
type Trace struct {
	mu      sync.Mutex
	tracers []*Tracer
}

// NewTrace returns an empty trace collection.
func NewTrace() *Trace { return &Trace{} }

// NewTracer allocates the next run lane. Lanes are numbered in call
// order, so callers creating tracers in plan order get plan-ordered
// output regardless of run interleaving. A nil Trace returns a nil
// (disabled) Tracer.
func (tr *Trace) NewTracer(name string) *Tracer {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := &Tracer{pid: len(tr.tracers) + 1, name: name}
	t.events = append(t.events, event{ph: 'M', name: "process_name", args: []Arg{S("name", name)}})
	tr.tracers = append(tr.tracers, t)
	return t
}

// WriteJSON serializes the whole trace as Chrome trace-event JSON
// (ui.perfetto.dev opens it directly). Output is byte-deterministic:
// tracers in creation order, each tracer's events in record order.
func (tr *Trace) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	for _, t := range tr.tracers {
		for i := range t.events {
			writeEvent(bw, t.pid, &t.events[i], &first)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func writeEvent(bw *bufio.Writer, pid int, e *event, first *bool) {
	if *first {
		bw.WriteString("\n")
		*first = false
	} else {
		bw.WriteString(",\n")
	}
	fmt.Fprintf(bw, `{"name":%s,"ph":"%c","pid":%d,"tid":%d`, strconv.Quote(e.name), e.ph, pid, e.tid)
	switch e.ph {
	case 'X':
		fmt.Fprintf(bw, `,"ts":%d,"dur":%d`, e.ts, e.dur)
	case 'i':
		// Scope "t": the instant marker spans its thread lane only.
		fmt.Fprintf(bw, `,"ts":%d,"s":"t"`, e.ts)
	case 'C':
		fmt.Fprintf(bw, `,"ts":%d`, e.ts)
	case 's', 't':
		fmt.Fprintf(bw, `,"ts":%d,"id":%d`, e.ts, e.id)
	case 'f':
		fmt.Fprintf(bw, `,"ts":%d,"id":%d,"bp":"e"`, e.ts, e.id)
	}
	if len(e.args) > 0 {
		bw.WriteString(`,"args":{`)
		for i, a := range e.args {
			if i > 0 {
				bw.WriteString(",")
			}
			bw.WriteString(strconv.Quote(a.Key))
			bw.WriteString(":")
			if a.isStr {
				bw.WriteString(strconv.Quote(a.str))
			} else {
				fmt.Fprintf(bw, "%d", a.val)
			}
		}
		bw.WriteString("}")
	}
	bw.WriteString("}")
}

// WriteMetricsJSONL serializes every tracer's periodic registry
// snapshots as JSON lines: {"run":...,"cycle":...,"metrics":{...}}.
// Like WriteJSON the output is byte-deterministic in plan order.
func (tr *Trace) WriteMetricsJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range tr.tracers {
		for _, s := range t.snaps {
			fmt.Fprintf(bw, `{"run":%s,"cycle":%d,"metrics":{`, strconv.Quote(t.name), s.cycle)
			for i, n := range s.names {
				if i > 0 {
					bw.WriteString(",")
				}
				fmt.Fprintf(bw, "%s:%d", strconv.Quote(n), s.values[i])
			}
			bw.WriteString("}}\n")
		}
	}
	return bw.Flush()
}
