package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"prosper/internal/sim"
	"prosper/internal/stats"
)

// TestNilTracerSafe pins the disabled fast path: every operation on a
// nil Trace/Tracer/zero Span is a no-op, never a panic.
func TestNilTracerSafe(t *testing.T) {
	var tr *Trace
	tc := tr.NewTracer("x")
	if tc != nil {
		t.Fatal("nil Trace handed out a live Tracer")
	}
	if tc.Enabled() {
		t.Fatal("nil tracer claims to be enabled")
	}
	tc.Bind(sim.NewEngine())
	track := tc.Track("lane")
	sp := tc.Begin(track, "span")
	sp.End(I("k", 1))
	tc.Instant(track, "i", S("s", "v"))
	tc.Counter(track, "c", "depth", 7)
	tc.Sample([]CounterProbe{{Track: track, Name: "n", Series: "s", Get: func() int64 { return 1 }}})
	tc.SnapshotMetrics(NewRegistry())
	if tc.Events() != 0 || tc.Snapshots() != 0 {
		t.Fatal("nil tracer recorded something")
	}
	var zero Span
	zero.End()
}

// TestTraceJSONGolden pins the exact serialized bytes of a small
// hand-built trace: the Chrome trace-event structure, phase codes,
// cycle timestamps, and arg ordering.
func TestTraceJSONGolden(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTrace()
	tc := tr.NewTracer("run-a")
	tc.Bind(eng)
	track := tc.Track("ckpt")

	eng.RunUntil(100)
	sp := tc.Begin(track, "checkpoint")
	eng.RunUntil(250)
	tc.Instant(track, "flush", I("live_entries", 3))
	sp.End(U("bytes", 4096), S("phase", "commit"))
	tc.Counter(track, "nvm.write_queue", "depth", 12)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"run-a"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"ckpt"}},
{"name":"flush","ph":"i","pid":1,"tid":1,"ts":250,"s":"t","args":{"live_entries":3}},
{"name":"checkpoint","ph":"X","pid":1,"tid":1,"ts":100,"dur":150,"args":{"bytes":4096,"phase":"commit"}},
{"name":"nvm.write_queue","ph":"C","pid":1,"tid":1,"ts":250,"args":{"depth":12}}
]}
`
	if buf.String() != want {
		t.Fatalf("serialized trace differs:\n got: %s\nwant: %s", buf.String(), want)
	}

	// The golden bytes must also be JSON a standard parser accepts.
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("golden trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 5 {
		t.Fatalf("parsed %d events, want 5", len(parsed.TraceEvents))
	}
}

// TestTracerLaneOrder pins that lanes are numbered in NewTracer call
// order, independent of which tracer records first.
func TestTracerLaneOrder(t *testing.T) {
	tr := NewTrace()
	a := tr.NewTracer("a")
	b := tr.NewTracer("b")
	eng := sim.NewEngine()
	b.Bind(eng)
	a.Bind(eng)
	b.Instant(b.Track("x"), "later-lane-first")
	a.Instant(a.Track("y"), "earlier-lane-second")

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia := strings.Index(out, `"earlier-lane-second"`)
	ib := strings.Index(out, `"later-lane-first"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("tracer a's events must precede tracer b's:\n%s", out)
	}
}

func TestRegistryOrderingAndSnapshot(t *testing.T) {
	c1 := stats.NewCounters()
	c1.Add("zeta", 3)
	c1.Add("alpha", 1)
	c2 := stats.NewCounters()
	c2.Add("beta", 2)

	r := NewRegistry()
	r.Register("dev", c1)
	r.Register("skip", nil) // ignored
	r.RegisterFunc("proc", func(emit func(string, uint64)) {
		emit("checkpoints", 9)
		emit("thread0.user_ops", 42)
	})
	r.Register("cache", c2)

	names, values := r.Snapshot()
	wantNames := []string{"dev.alpha", "dev.zeta", "proc.checkpoints", "proc.thread0.user_ops", "cache.beta"}
	wantValues := []uint64{1, 3, 9, 42, 2}
	if len(names) != len(wantNames) {
		t.Fatalf("snapshot has %d entries, want %d: %v", len(names), len(wantNames), names)
	}
	for i := range wantNames {
		if names[i] != wantNames[i] || values[i] != wantValues[i] {
			t.Fatalf("entry %d = %s=%d, want %s=%d", i, names[i], values[i], wantNames[i], wantValues[i])
		}
	}

	var text bytes.Buffer
	r.WriteText(&text)
	want := "dev.alpha 1\ndev.zeta 3\nproc.checkpoints 9\nproc.thread0.user_ops 42\ncache.beta 2\n"
	if text.String() != want {
		t.Fatalf("text dump:\n%s\nwant:\n%s", text.String(), want)
	}
}

func TestMetricsJSONL(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTrace()
	tc := tr.NewTracer("m-run")
	tc.Bind(eng)

	c := stats.NewCounters()
	r := NewRegistry()
	r.Register("dev", c)

	c.Add("ops", 1)
	eng.RunUntil(10)
	tc.SnapshotMetrics(r)
	c.Add("ops", 4)
	eng.RunUntil(20)
	tc.SnapshotMetrics(r)

	var buf bytes.Buffer
	if err := tr.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	type snap struct {
		Run     string            `json:"run"`
		Cycle   int64             `json:"cycle"`
		Metrics map[string]uint64 `json:"metrics"`
	}
	var s0, s1 snap
	if err := json.Unmarshal([]byte(lines[0]), &s0); err != nil {
		t.Fatalf("line 0 invalid JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &s1); err != nil {
		t.Fatalf("line 1 invalid JSON: %v", err)
	}
	if s0.Run != "m-run" || s0.Cycle != 10 || s0.Metrics["dev.ops"] != 1 {
		t.Fatalf("snapshot 0 wrong: %+v", s0)
	}
	if s1.Cycle != 20 || s1.Metrics["dev.ops"] != 5 {
		t.Fatalf("snapshot 1 wrong: %+v", s1)
	}
}

// TestCounterProbeSampling checks Sample polls every probe exactly once
// at the current sim time.
func TestCounterProbeSampling(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTrace()
	tc := tr.NewTracer("probe-run")
	tc.Bind(eng)
	track := tc.Track("memory")
	depth := int64(0)
	probes := []CounterProbe{
		{Track: track, Name: "nvm.write_queue", Series: "depth", Get: func() int64 { return depth }},
		{Track: track, Name: "tracker0.table", Series: "occupancy", Get: func() int64 { return 16 }},
	}
	depth = 5
	eng.RunUntil(30)
	tc.Sample(probes)
	// 1 process_name + 1 thread_name + 2 counter samples
	if tc.Events() != 4 {
		t.Fatalf("recorded %d events, want 4", tc.Events())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`{"name":"nvm.write_queue","ph":"C","pid":1,"tid":1,"ts":30,"args":{"depth":5}}`,
		`{"name":"tracker0.table","ph":"C","pid":1,"tid":1,"ts":30,"args":{"occupancy":16}}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("trace missing %s:\n%s", want, buf.String())
		}
	}
}

// TestRegistryHistograms pins the deterministic expansion of histogram
// groups: sorted histogram names, each expanded to the fixed scalar
// suffix order count/sum/min/max/p50/p95/p99, interleaved with other
// groups in registration order.
func TestRegistryHistograms(t *testing.T) {
	hs := stats.NewHistograms()
	lat := hs.New("z_latency")
	hs.New("a_wait") // registered later than z_latency, sorts first
	for i := 0; i < 10; i++ {
		lat.Observe(10)
	}
	lat.Observe(100)

	c := stats.NewCounters()
	c.Add("ops", 7)

	r := NewRegistry()
	r.Register("dev", c)
	r.RegisterHistograms("dev", hs)
	r.RegisterHistograms("skip", nil) // ignored

	var text bytes.Buffer
	r.WriteText(&text)
	want := "dev.ops 7\n" +
		"dev.a_wait.count 0\ndev.a_wait.sum 0\ndev.a_wait.min 0\ndev.a_wait.max 0\n" +
		"dev.a_wait.p50 0\ndev.a_wait.p95 0\ndev.a_wait.p99 0\n" +
		"dev.z_latency.count 11\ndev.z_latency.sum 200\ndev.z_latency.min 10\ndev.z_latency.max 100\n" +
		"dev.z_latency.p50 15\ndev.z_latency.p95 100\ndev.z_latency.p99 100\n"
	if text.String() != want {
		t.Fatalf("histogram text dump:\n%s\nwant:\n%s", text.String(), want)
	}
}

// TestRegistryEmptyPrefix: a group registered under "" keeps its own
// fully-qualified names with no leading dot.
func TestRegistryEmptyPrefix(t *testing.T) {
	c := stats.NewCounters()
	c.Add("core0.tlb.hits", 3)
	r := NewRegistry()
	r.Register("", c)
	names, values := r.Snapshot()
	if len(names) != 1 || names[0] != "core0.tlb.hits" || values[0] != 3 {
		t.Fatalf("empty prefix snapshot = %v %v", names, values)
	}
}

// TestFlowEventsGolden pins the serialized form of flow arrows and
// explicit-timestamp spans — the shapes ExportTrace uses to render
// journey span trees with flow links: phase codes s/t/f, the flow id
// field, and the "bp":"e" binding point on the terminator.
func TestFlowEventsGolden(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTrace()
	tc := tr.NewTracer("flow-run")
	tc.Bind(eng)
	l1 := tc.Track("journey/l1")
	dev := tc.Track("journey/dev_service")

	tc.SpanAt(l1, "l1", 100, 3, U("jid", 7))
	tc.FlowStart(l1, "journey", 7, 100)
	tc.SpanAt(dev, "dev_service", 103, -5) // negative dur clamps to 0
	tc.FlowStep(dev, "journey", 7, 103)
	tc.FlowEnd(dev, "journey", 7, 110)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"flow-run"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"journey/l1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"journey/dev_service"}},
{"name":"l1","ph":"X","pid":1,"tid":1,"ts":100,"dur":3,"args":{"jid":7}},
{"name":"journey","ph":"s","pid":1,"tid":1,"ts":100,"id":7},
{"name":"dev_service","ph":"X","pid":1,"tid":2,"ts":103,"dur":0},
{"name":"journey","ph":"t","pid":1,"tid":2,"ts":103,"id":7},
{"name":"journey","ph":"f","pid":1,"tid":2,"ts":110,"id":7,"bp":"e"}
]}
`
	if buf.String() != want {
		t.Fatalf("serialized flow trace differs:\n got: %s\nwant: %s", buf.String(), want)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("golden flow trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 8 {
		t.Fatalf("parsed %d events, want 8", len(parsed.TraceEvents))
	}

	// The nil tracer stays a no-op for the new shapes too.
	var off *Tracer
	off.SpanAt(l1, "x", 0, 1)
	off.FlowStart(l1, "x", 1, 0)
	off.FlowStep(l1, "x", 1, 0)
	off.FlowEnd(l1, "x", 1, 0)
}

// Events returns how many trace events the tracer holds (tests).
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Snapshots returns how many metrics snapshots the tracer holds (tests).
func (t *Tracer) Snapshots() int {
	if t == nil {
		return 0
	}
	return len(t.snaps)
}
