package stats

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// RunRecord is one completed simulation run: its display name, how much
// simulated time it covered (in cycles), and how long it took for real.
type RunRecord struct {
	Name      string
	SimCycles int64
	Wall      time.Duration
}

// RunLog collects per-run timing records from a (possibly concurrent)
// experiment executor and optionally streams them to a writer as they
// arrive. It is safe for concurrent use; records are kept in completion
// order, which — unlike result order — may vary between runs.
type RunLog struct {
	mu    sync.Mutex
	w     io.Writer
	jsonW io.Writer
	recs  []RunRecord
}

// NewRunLog returns a RunLog that streams each record to w (nil w keeps
// records without streaming).
func NewRunLog(w io.Writer) *RunLog { return &RunLog{w: w} }

// StreamJSON attaches a second, machine-parseable sink: each record is
// also written to w as one JSON line
// ({"run":...,"sim_cycles":...,"wall_seconds":...}) as it arrives. The
// human-readable stream (and stdout) are unaffected. Records arrive in
// completion order, so line order may vary between parallel runs.
func (l *RunLog) StreamJSON(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jsonW = w
}

// Record appends one run record and, if a writer is attached, prints a
// single progress line: name, simulated cycles, and wall seconds, plus
// the resulting simulation rate.
func (l *RunLog) Record(r RunRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, r)
	if l.jsonW != nil {
		fmt.Fprintf(l.jsonW, `{"run":%q,"sim_cycles":%d,"wall_seconds":%.6f}`+"\n",
			r.Name, r.SimCycles, r.Wall.Seconds())
	}
	if l.w == nil {
		return
	}
	rate := ""
	if s := r.Wall.Seconds(); s > 0 {
		rate = fmt.Sprintf("  (%.1f Mcycles/s)", float64(r.SimCycles)/s/1e6)
	}
	fmt.Fprintf(l.w, "  run %-44s %12d cycles  %7.3fs%s\n", r.Name, r.SimCycles, r.Wall.Seconds(), rate)
}
