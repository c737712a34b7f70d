package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"prosper/internal/crash"
	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/workload"
)

// peakSampler tracks the largest live heap seen at the sample points:
// interval and sweep boundaries. The live heap is the one the last
// collection marked, so unswept garbage does not make it depend on when
// the collector happened to run. runtime/metrics reads it without
// stopping the world, unlike runtime.ReadMemStats.
type peakSampler struct {
	s    []metrics.Sample
	peak uint64
}

var heapPeak = &peakSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}

func (h *peakSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *peakSampler) reset() {
	h.peak = 0
	h.sample()
}

// tally counts the units of work a run attempted and the ones that
// failed: a spec that panics or whose outputs differ from the expected
// ones, a crash point with a violation, or a sweep that errors.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
}

// pass is the host cost of one pass over a workload.
type pass struct {
	wallNS, setupNS int64
	allocBytes      uint64
	peakHeap        uint64
	gcCycles        uint32
	gcPauseNS       uint64
	// cycles is the simulated cycles of the measured intervals, or of
	// the crash points' power cuts; points counts the crash points.
	cycles int64
	points int
	// workNS is the host time of each timed piece of the pass, in the
	// same order every pass: each spec's intervals, or each mechanism's
	// sweep. A piece holds perPiece closed-loop units: one checkpoint
	// interval, or a sweep's crash points.
	workNS   []int64
	perPiece int64
}

// measurePass brackets fn with the runtime counters every pass reports.
func measurePass(fn func(*pass)) pass {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heapPeak.reset()
	var p pass
	start := time.Now()
	fn(&p)
	p.wallNS = time.Since(start).Nanoseconds()
	heapPeak.sample()
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.peakHeap = heapPeak.peak
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	return p
}

// simPass runs every spec once with the given seed and returns their
// outcomes in spec order (nil for a spec that failed) and their runs.
func simPass(specs []simSpec, seed uint64, t *tally) (pass, []*simRun) {
	runs := make([]*simRun, len(specs))
	p := measurePass(func(p *pass) {
		p.perPiece = 1
		for i, sp := range specs {
			r, err := runSim(sp, seed, &replay{})
			if err != nil {
				t.check(false, "%v", err)
				continue
			}
			runs[i] = &r
			p.setupNS += r.setupNS
			p.cycles += r.cycles
			p.workNS = append(p.workNS, r.intervalNS...)
		}
	})
	return p, runs
}

// sweepOut is a sweep's simulated verdict, compared like simOut.
type sweepOut struct {
	Points     int `json:"points"`
	Commits    int `json:"commits"`
	Forked     int `json:"forked"`
	PreCommit  int `json:"pre_commit_failures"`
	Violations int `json:"violations"`
}

func summarize(r crash.Result) sweepOut {
	o := sweepOut{Points: len(r.Points), Commits: r.Commits, Forked: r.Forked, Violations: len(r.Violations())}
	for _, pt := range r.Points {
		if pt.Err != "" && pt.Violation == "" {
			o.PreCommit++
		}
	}
	return o
}

// crashSetup boots and spawns each mechanism's sweep process the way
// every golden run and crash point does, and returns the host time.
func crashSetup(cfgs []crash.Config) int64 {
	var ns int64
	for _, c := range cfgs {
		start := time.Now()
		k := kernel.New(kernel.Config{Machine: machine.Config{Cores: 1}})
		p := k.Spawn(sweepProcess(c.Mechanism), workload.NewCounter(1<<30))
		ns += time.Since(start).Nanoseconds()
		p.Shutdown()
	}
	return ns
}

// crashPass sweeps every mechanism once and returns the verdicts keyed by
// mechanism (absent when the sweep errored).
func crashPass(cfgs []crash.Config, t *tally) (pass, map[string]sweepOut) {
	outs := make(map[string]sweepOut)
	p := measurePass(func(p *pass) {
		p.perPiece = crashPoints
		p.setupNS = crashSetup(cfgs)
		for _, c := range cfgs {
			start := time.Now()
			res, err := crash.Sweep(c)
			ns := time.Since(start).Nanoseconds()
			heapPeak.sample()
			if err != nil {
				t.check(false, "sweep %s: %v", c.Mechanism, err)
				continue
			}
			for _, pt := range res.Points {
				t.check(pt.Violation == "", "sweep %s: crash at cycle %d: %s", c.Mechanism, pt.Cycle, pt.Violation)
				p.cycles += pt.Cycle
			}
			p.points += len(res.Points)
			p.workNS = append(p.workNS, ns)
			outs[c.Mechanism] = summarize(res)
		}
	})
	return p, outs
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Python's statistics.quantiles(xs, n=4) with its
// default exclusive method: the first quartile, median and third
// quartile, linearly interpolated at positions (n+1)·i/4.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1), or 0
// for no samples.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p * float64(len(s))))
	return float64(s[max(idx, 1)-1])
}
