package stats

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunLogStreamsAndSummarizes(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf)
	l.Record(RunRecord{Name: "fig8/gapbs_pr/base", SimCycles: 600_000, Wall: 20 * time.Millisecond})
	l.Record(RunRecord{Name: "fig8/gapbs_pr/prosper", SimCycles: 300_000, Wall: 10 * time.Millisecond})

	if n := len(l.recs); n != 2 {
		t.Fatalf("records = %d", n)
	}
	out := buf.String()
	for _, want := range []string{"fig8/gapbs_pr/base", "600000 cycles", "Mcycles/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stream output missing %q:\n%s", want, out)
		}
	}
	sum := l.Summary().String()
	for _, want := range []string{"TOTAL", "900000", "fig8/gapbs_pr/prosper"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestRunLogConcurrentRecords(t *testing.T) {
	l := NewRunLog(nil) // nil writer: collect only
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Record(RunRecord{Name: "r", SimCycles: 1, Wall: time.Microsecond})
		}()
	}
	wg.Wait()
	if n := len(l.recs); n != 32 {
		t.Fatalf("records = %d, want 32", n)
	}
}

// Summary renders the collected records as a table plus a totals row:
// the cumulative simulated cycles and the cumulative wall time across
// runs (which exceeds elapsed wall time when runs execute in parallel).
func (l *RunLog) Summary() *Table {
	l.mu.Lock()
	defer l.mu.Unlock()
	tb := NewTable("Run log (completion order)", "run", "sim_cycles", "wall_seconds")
	var cycles int64
	var wall time.Duration
	for _, r := range l.recs {
		tb.AddRow(r.Name, r.SimCycles, r.Wall.Seconds())
		cycles += r.SimCycles
		wall += r.Wall
	}
	tb.AddRow("TOTAL", cycles, wall.Seconds())
	return tb
}
