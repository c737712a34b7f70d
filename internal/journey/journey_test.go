package journey

import (
	"bytes"
	"strings"
	"testing"

	"prosper/internal/sim"
)

// TestStageCauseNames pins the journal vocabulary: every stage and cause
// round-trips through its stable name, and unknown names are rejected.
func TestStageCauseNames(t *testing.T) {
	for s := 0; s < NumStages; s++ {
		got, ok := StageFromName(Stage(s).String())
		if !ok || got != Stage(s) {
			t.Fatalf("stage %d (%q) does not round-trip: got %d ok=%v", s, Stage(s).String(), got, ok)
		}
	}
	for c := 0; c < NumCauses; c++ {
		got, ok := CauseFromName(Cause(c).String())
		if !ok || got != Cause(c) {
			t.Fatalf("cause %d (%q) does not round-trip: got %d ok=%v", c, Cause(c).String(), got, ok)
		}
	}
	if _, ok := StageFromName("bogus"); ok {
		t.Fatal("StageFromName accepted an unknown name")
	}
	if _, ok := CauseFromName("bogus"); ok {
		t.Fatal("CauseFromName accepted an unknown name")
	}
}

// TestNilRecorderSafe pins the tracing-off fast path: every method on a
// nil *Recorder is a no-op returning zero values, never a panic.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if jid := r.Start(10, false, 0x1000, 8, 1); jid != 0 {
		t.Fatalf("nil recorder sampled an access (jid %d)", jid)
	}
	r.Span(1, StageL1, CauseHit, 10, 13)
	r.SegDone(1, 13)
	if a, s, f := r.Counts(); a != 0 || s != 0 || f != 0 {
		t.Fatalf("nil recorder counts = %d/%d/%d", a, s, f)
	}
	if r.Journeys() != nil {
		t.Fatal("nil recorder returned live state")
	}
	if NewRecorder("off", 0, 1) != nil {
		t.Fatal("rate 0 must return a nil (disabled) recorder")
	}
}

// TestSamplingDeterministic pins that the sampled-access set is a pure
// function of (rate, seed, sequence number): two recorders fed the same
// access stream sample identical sequence numbers, and rate 1 samples
// everything.
func TestSamplingDeterministic(t *testing.T) {
	drive := func(rate, seed uint64) []uint64 {
		r := NewRecorder("run", rate, seed)
		var sampled []uint64
		for i := 0; i < 10_000; i++ {
			if jid := r.Start(sim.Time(i), false, uint64(i), 8, 1); jid != 0 {
				sampled = append(sampled, r.seq)
				r.SegDone(jid, sim.Time(i+3))
			}
		}
		return sampled
	}
	a := drive(64, 7)
	b := drive(64, 7)
	if len(a) == 0 {
		t.Fatal("rate 64 sampled nothing in 10k accesses")
	}
	if len(a) != len(b) {
		t.Fatalf("same (rate, seed) sampled %d vs %d accesses", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: seq %d vs %d", i, a[i], b[i])
		}
	}
	c := drive(64, 8)
	different := len(a) != len(c)
	for i := 0; !different && i < len(a); i++ {
		different = a[i] != c[i]
	}
	if !different {
		t.Fatal("changing the seed did not change the sampled set")
	}
	if all := drive(1, 1); len(all) != 10_000 {
		t.Fatalf("rate 1 sampled %d of 10000 accesses", len(all))
	}
}

// TestAttributionPartition pins the innermost-span-wins sweep on a
// hand-built journey: overlapping spans resolve to the latest-entered
// (deepest on ties), uncovered gaps charge to issue, and the vector sums
// exactly to the measured latency.
func TestAttributionPartition(t *testing.T) {
	r := NewRecorder("run", 1, 1)
	jid := r.Start(100, false, 0x2000, 8, 1)
	if jid == 0 {
		t.Fatal("rate 1 did not sample")
	}
	// L1 owns [100,160) but L2 enters later and claims [110,150); the
	// device enters later still and claims [120,140). [160,170) is a gap
	// no span covers -> issue.
	r.Span(jid, StageL1, CauseMiss, 100, 160)
	r.Span(jid, StageL2, CauseMiss, 110, 150)
	r.Span(jid, StageDevService, CauseDRAM, 120, 140)
	r.SegDone(jid, 170)

	j := r.Journeys()[0]
	if !j.Finished() {
		t.Fatal("journey did not finish")
	}
	if j.Latency() != 70 {
		t.Fatalf("latency = %d, want 70", j.Latency())
	}
	want := map[Stage]sim.Time{
		StageL1:         20, // [100,110) + [150,160)
		StageL2:         20, // [110,120) + [140,150)
		StageDevService: 20, // [120,140)
		StageIssue:      10, // [160,170) uncovered
	}
	var sum sim.Time
	for s := 0; s < NumStages; s++ {
		sum += j.Vec[s]
		if j.Vec[s] != want[Stage(s)] {
			t.Errorf("Vec[%s] = %d, want %d", Stage(s), j.Vec[s], want[Stage(s)])
		}
	}
	if sum != j.Latency() {
		t.Fatalf("vector sums to %d, latency is %d", sum, j.Latency())
	}
	if j.DominantStage() != StageL1 {
		// Three stages tie at 20; the shallowest of them wins, and issue
		// (10 cycles) never beats them.
		t.Fatalf("dominant stage = %s, want l1", j.DominantStage())
	}
}

// TestTieBreakDeeperStage pins the same-enter-cycle tie: when two spans
// begin together, the deeper (larger-valued) stage claims the cycles.
func TestTieBreakDeeperStage(t *testing.T) {
	r := NewRecorder("run", 1, 1)
	jid := r.Start(0, true, 0x3000, 8, 1)
	r.Span(jid, StageL1, CauseMiss, 0, 10)
	r.Span(jid, StageMSHR, CauseMSHRFull, 0, 10)
	r.SegDone(jid, 10)
	j := r.Journeys()[0]
	if j.Vec[StageMSHR] != 10 || j.Vec[StageL1] != 0 {
		t.Fatalf("tie went to %v, want all 10 cycles on mshr", j.Vec)
	}
}

// TestEndClampsToFutureSpans pins that a journey whose spans end after
// the last segment completion (a hit recorded with its deterministic
// future exit) extends End to cover them, keeping every span inside
// [Start, End] and the sum invariant intact.
func TestEndClampsToFutureSpans(t *testing.T) {
	r := NewRecorder("run", 1, 1)
	jid := r.Start(50, false, 0x4000, 8, 1)
	r.Span(jid, StageL1, CauseHit, 50, 53)
	r.SegDone(jid, 50) // completion callback runs at issue cycle
	j := r.Journeys()[0]
	if j.End != 53 || j.Latency() != 3 {
		t.Fatalf("End = %d latency = %d, want 53/3", j.End, j.Latency())
	}
	if j.Vec[StageL1] != 3 {
		t.Fatalf("Vec[l1] = %d, want 3", j.Vec[StageL1])
	}
}

// TestMultiSegmentJourney pins that a journey spanning multiple cache
// lines finishes only when its last segment retires.
func TestMultiSegmentJourney(t *testing.T) {
	r := NewRecorder("run", 1, 1)
	jid := r.Start(0, false, 0x5000, 128, 2)
	r.Span(jid, StageL1, CauseHit, 0, 3)
	r.SegDone(jid, 3)
	if r.Journeys()[0].Finished() {
		t.Fatal("journey finished with a segment outstanding")
	}
	r.Span(jid, StageL1, CauseMiss, 0, 90)
	r.SegDone(jid, 90)
	j := r.Journeys()[0]
	if !j.Finished() || j.Latency() != 90 {
		t.Fatalf("finished=%v latency=%d, want true/90", j.Finished(), j.Latency())
	}
	if _, _, finished := r.Counts(); finished != 1 {
		t.Fatalf("finished count = %d, want 1", finished)
	}
}

// TestLateSpansDropped pins that spans and segment completions arriving
// after a journey finished (decoupled fills racing the measured window)
// are ignored rather than corrupting the attribution.
func TestLateSpansDropped(t *testing.T) {
	r := NewRecorder("run", 1, 1)
	jid := r.Start(0, false, 0x6000, 8, 1)
	r.Span(jid, StageL1, CauseHit, 0, 3)
	r.SegDone(jid, 3)
	r.Span(jid, StageL2, CauseMiss, 0, 500)
	r.SegDone(jid, 500)
	j := r.Journeys()[0]
	if j.Latency() != 3 || len(j.Spans) != 1 {
		t.Fatalf("late records mutated the journey: latency=%d spans=%d", j.Latency(), len(j.Spans))
	}
	r.Span(99, StageL1, CauseHit, 0, 1) // unknown jid: no-op
	r.SegDone(99, 1)
}

// TestJournalRoundTrip pins the full serialize -> parse -> invariants
// path, including an unfinished journey being counted but not emitted.
func TestJournalRoundTrip(t *testing.T) {
	jl := NewJournal()
	r := jl.NewRecorder("run-a", 1, 3)
	jid := r.Start(10, true, 0xabc0, 16, 1)
	r.Span(jid, StageHook, CauseStoreHook, 10, 14)
	r.Span(jid, StageL1, CauseMiss, 14, 40)
	r.Span(jid, StageDrain, CauseNVMDrain, 20, 40)
	r.SegDone(jid, 40)
	r.Start(11, false, 0xdef0, 8, 1) // never finishes: in flight at run end

	var buf bytes.Buffer
	if err := jl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if len(p.Runs) != 1 {
		t.Fatalf("parsed %d runs, want 1", len(p.Runs))
	}
	run := p.Runs[0]
	if run.Name != "run-a" || run.Rate != 1 || run.Seed != 3 {
		t.Fatalf("run header = %+v", run)
	}
	if run.Accesses != 2 || run.Sampled != 2 || run.Finished != 1 {
		t.Fatalf("counters = %d/%d/%d, want 2/2/1", run.Accesses, run.Sampled, run.Finished)
	}
	if len(run.Journeys) != 1 {
		t.Fatalf("parsed %d journeys, want 1 (unfinished one suppressed)", len(run.Journeys))
	}
	j := run.Journeys[0]
	if j.JID != 1 || j.Seq != 1 || !j.Write || j.VAddr != 0xabc0 || j.Size != 16 {
		t.Fatalf("journey identity = %+v", j)
	}
	if j.Latency != 30 || len(j.Spans) != 3 {
		t.Fatalf("latency=%d spans=%d, want 30/3", j.Latency, len(j.Spans))
	}
	var sum int64
	for s := 0; s < NumStages; s++ {
		sum += j.Vec[s]
	}
	if sum != j.Latency {
		t.Fatalf("parsed vector sums to %d, latency %d", sum, j.Latency)
	}

	// Serialization is deterministic: a second write is byte-identical.
	var buf2 bytes.Buffer
	if err := jl.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two serializations of the same journal differ")
	}
}

// TestParseRejectsMalformed pins the typed failure modes of the parser:
// each malformed input errors instead of yielding a half-read journal.
func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "not json\n"},
		{"missing header", `{"run":"x","rate":1,"seed":1,"accesses":0,"sampled":0,"finished":0}` + "\n"},
		{"unsupported version", `{"journey_journal":99}` + "\n"},
		{"duplicate header", "{\"journey_journal\":1}\n{\"journey_journal\":1}\n"},
		{"journey before run", "{\"journey_journal\":1}\n" +
			`{"jid":1,"seq":1,"kind":"load","vaddr":1,"size":8,"start":0,"end":3,"latency":3,"stages":[],"vec":{"l1":3}}` + "\n"},
		{"unknown stage", "{\"journey_journal\":1}\n" +
			`{"run":"x","rate":1,"seed":1,"accesses":1,"sampled":1,"finished":1}` + "\n" +
			`{"jid":1,"seq":1,"kind":"load","vaddr":1,"size":8,"start":0,"end":3,"latency":3,"stages":[{"stage":"warp","cause":"hit","enter":0,"exit":3}],"vec":{"l1":3}}` + "\n"},
		{"latency mismatch", "{\"journey_journal\":1}\n" +
			`{"run":"x","rate":1,"seed":1,"accesses":1,"sampled":1,"finished":1}` + "\n" +
			`{"jid":1,"seq":1,"kind":"load","vaddr":1,"size":8,"start":0,"end":3,"latency":9,"stages":[],"vec":{"l1":9}}` + "\n"},
		{"unknown vec stage", "{\"journey_journal\":1}\n" +
			`{"run":"x","rate":1,"seed":1,"accesses":1,"sampled":1,"finished":1}` + "\n" +
			`{"jid":1,"seq":1,"kind":"load","vaddr":1,"size":8,"start":0,"end":3,"latency":3,"stages":[],"vec":{"warp":3}}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("parser accepted malformed input:\n%s", tc.in)
			}
		})
	}
}

// TestCheckInvariantsCatchesBadVector pins that a journal whose vector
// does not sum to its latency fails validation even when well-formed.
func TestCheckInvariantsCatchesBadVector(t *testing.T) {
	in := "{\"journey_journal\":1}\n" +
		`{"run":"x","rate":1,"seed":1,"accesses":1,"sampled":1,"finished":1}` + "\n" +
		`{"jid":1,"seq":1,"kind":"load","vaddr":1,"size":8,"start":0,"end":10,"latency":10,"stages":[],"vec":{"l1":3}}` + "\n"
	p, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a vector that does not sum to the latency")
	}
}

// TestAnalyzeTopK pins the analyzer's deterministic ordering: latency
// descending, ties by sequence number ascending, truncated to K.
func TestAnalyzeTopK(t *testing.T) {
	jl := NewJournal()
	r := jl.NewRecorder("run", 1, 1)
	mk := func(lat sim.Time) {
		jid := r.Start(0, false, uint64(0x1000*lat), 8, 1)
		r.Span(jid, StageL2, CauseMiss, 0, lat)
		r.SegDone(jid, lat)
	}
	mk(30)
	mk(90)
	mk(90)
	mk(10)

	var buf bytes.Buffer
	if err := jl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(p, 3)
	if len(a.Runs) != 1 || len(a.Runs[0].Top) != 3 {
		t.Fatalf("analysis shape wrong: %+v", a.Runs)
	}
	top := a.Runs[0].Top
	if top[0].Latency != 90 || top[1].Latency != 90 || top[2].Latency != 30 {
		t.Fatalf("top latencies = %d,%d,%d", top[0].Latency, top[1].Latency, top[2].Latency)
	}
	if top[0].Seq >= top[1].Seq {
		t.Fatalf("equal latencies must order by seq: %d then %d", top[0].Seq, top[1].Seq)
	}
	if a.Runs[0].MaxLatency != 90 || a.Runs[0].MeanLatency != 55 {
		t.Fatalf("max/mean = %d/%d, want 90/55", a.Runs[0].MaxLatency, a.Runs[0].MeanLatency)
	}
	var text bytes.Buffer
	if err := a.WriteText(&text, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"top 3 slowest", "anatomy of the slowest access", "l2"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
}
