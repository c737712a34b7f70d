// Package experiments contains one harness per table and figure of the
// paper's evaluation, each regenerating the corresponding rows/series on
// the simulated machine (see DESIGN.md §5 for the index and EXPERIMENTS.md
// for paper-vs-measured results).
//
// The paper's runs use 10 ms consistency intervals over minutes of
// execution; a dense software simulation cannot afford that, so every
// harness takes a Scale that shrinks the interval and the number of
// checkpoints proportionally (all mechanisms' per-interval work scales
// with the interval, preserving the comparisons; the scaling is recorded
// in EXPERIMENTS.md).
//
// Each figure declares a runner.Plan — a list of independent run specs —
// and hands it to a runner.Executor, which fans the specs out across a
// bounded worker pool (Scale.Workers). Results come back in plan order,
// so the rendered tables are byte-identical regardless of the worker
// count; only wall-clock time changes.
package experiments

import (
	"prosper/internal/journey"
	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/prosper"
	"prosper/internal/runner"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/telemetry"
	"prosper/internal/workload"
)

// Scale bounds an experiment run.
type Scale struct {
	// Interval is the consistency/checkpoint interval (paper: 10 ms).
	Interval sim.Time
	// Checkpoints is how many intervals the measured window covers.
	Checkpoints int
	// Warmup runs before measurement starts.
	Warmup sim.Time
	// TraceOps bounds trace-driven analyses (Figs 1-4).
	TraceOps int
	// StackReserve and HeapSize size the process segments.
	StackReserve uint64
	HeapSize     uint64
	Seed         uint64

	// Workers bounds how many of a figure's runs execute concurrently
	// (<= 0 means GOMAXPROCS). Results are identical for any value.
	Workers int
	// Log, when non-nil, receives one record per completed run (spec
	// label, simulated cycles, wall-clock time) as runs finish.
	Log *stats.RunLog

	// Trace, when non-nil, collects per-run sim-time telemetry: every
	// spec of every plan gets its own tracer lane, allocated in plan
	// order (before execution starts), so the serialized trace bytes are
	// identical for any Workers value.
	Trace *telemetry.Trace
	// SampleEvery is the telemetry occupancy/metrics sampling cadence in
	// cycles (0: the kernel's 10 µs default).
	SampleEvery sim.Time

	// Journal, when non-nil, samples per-access journeys on every run:
	// each spec gets its own recorder, allocated in plan order like the
	// tracer lanes, so the serialized journal is byte-identical for any
	// Workers value. JourneySampleRate is 1-in-N accesses (0 disables);
	// JourneySeed seeds the sequence-number hash.
	Journal           *journey.Journal
	JourneySampleRate uint64
	JourneySeed       uint64
}

// DefaultScale is the standard scaled-down configuration: 200 µs
// intervals (1/50 of the paper's 10 ms), 10 checkpoints.
func DefaultScale() Scale {
	return Scale{
		Interval:     200 * sim.Microsecond,
		Checkpoints:  10,
		Warmup:       100 * sim.Microsecond,
		TraceOps:     150_000,
		StackReserve: 1 << 20,
		HeapSize:     64 << 20,
		Seed:         1,
	}
}

// TestScale is a very small configuration for unit tests.
//
//prosperlint:ignore deadcode the root package's BenchmarkFig8 and BenchmarkCrashSweep in bench_test.go run at this scale
func TestScale() Scale {
	s := DefaultScale()
	s.Interval = 50 * sim.Microsecond
	s.Checkpoints = 3
	s.Warmup = 20 * sim.Microsecond
	s.TraceOps = 40_000
	return s
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.Interval == 0 {
		s.Interval = d.Interval
	}
	if s.Checkpoints == 0 {
		s.Checkpoints = d.Checkpoints
	}
	if s.TraceOps == 0 {
		s.TraceOps = d.TraceOps
	}
	if s.StackReserve == 0 {
		s.StackReserve = d.StackReserve
	}
	if s.HeapSize == 0 {
		s.HeapSize = d.HeapSize
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	return s
}

// consolidationScale converts the paper's SSP consolidation-thread
// invocation intervals (10 µs / 100 µs / 1 ms against a 10 ms checkpoint
// interval) to the scaled run, preserving the ratio to the interval.
func (s Scale) consolidation(paperInterval sim.Time) sim.Time {
	scaled := paperInterval * s.Interval / (10 * sim.Millisecond)
	if scaled < 500 { // keep ticks meaningful (>0.16 µs)
		scaled = 500
	}
	return scaled
}

// RunStats is the outcome of one measured workload run (owned by
// internal/runner; aliased here so figure code and its callers keep the
// historical name).
type RunStats = runner.RunStats

// runConfig describes one run of the standard single-process workload:
// today's spec-builder shorthand, converted to a runner.Spec by
// Scale.spec. The optional fields override the Scale for a single run.
type runConfig struct {
	name      string
	label     string // display label for progress reports (default: name)
	prog      func() workload.Program
	stackMech persist.Factory
	heapMech  persist.Factory
	ckpt      bool
	cores     int
	threads   int
	// tracker configures the per-core Prosper trackers (Fig 13 HWM/LWM
	// sweeps and the allocation-policy ablation).
	tracker prosper.Config
	// interval/checkpoints override the Scale's values when nonzero
	// (Fig 11's interval sweep, the adaptive-granularity convergence).
	interval    sim.Time
	checkpoints int
}

// spec converts a runConfig into a runner.Spec under this scale.
func (s Scale) spec(rc runConfig) runner.Spec {
	label := rc.label
	if label == "" {
		label = rc.name
	}
	iv := s.Interval
	if rc.interval != 0 {
		iv = rc.interval
	}
	cks := s.Checkpoints
	if rc.checkpoints != 0 {
		cks = rc.checkpoints
	}
	return runner.Spec{
		Name:         rc.name,
		Label:        label,
		Prog:         rc.prog,
		StackMech:    rc.stackMech,
		HeapMech:     rc.heapMech,
		Checkpoint:   rc.ckpt,
		Cores:        rc.cores,
		Threads:      rc.threads,
		Tracker:      rc.tracker,
		Interval:     iv,
		Checkpoints:  cks,
		Warmup:       s.Warmup,
		StackReserve: s.StackReserve,
		HeapSize:     s.HeapSize,
		Seed:         s.Seed,
	}
}

// runPlan executes the configs as one named plan on the scale's worker
// pool and returns stats in plan order. A panicking run is re-raised
// here, tagged with its spec label — the same crash a sequential loop
// would have produced, minus the runs that still completed.
func (s Scale) runPlan(figure string, rcs []runConfig) []RunStats {
	specs := make([]runner.Spec, len(rcs))
	for i, rc := range rcs {
		sp := s.spec(rc)
		if figure != "" {
			sp.Label = figure + "/" + sp.DisplayLabel()
		}
		if s.Trace != nil {
			sp.Tracer = s.Trace.NewTracer(sp.DisplayLabel())
			sp.SampleEvery = s.SampleEvery
		}
		if s.Journal != nil {
			sp.Journey = s.Journal.NewRecorder(sp.DisplayLabel(), s.JourneySampleRate, s.JourneySeed)
		}
		specs[i] = sp
	}
	ex := runner.Executor{Workers: s.Workers, OnDone: s.record}
	res, err := ex.Run(runner.Plan{Name: figure, Specs: specs})
	if err != nil {
		panic(err)
	}
	return res
}

// record forwards one completed run to the scale's RunLog, if any.
func (s Scale) record(r runner.Result) {
	if s.Log == nil || r.Err != nil {
		return
	}
	s.Log.Record(stats.RunRecord{
		Name:      r.Spec.DisplayLabel(),
		SimCycles: int64(r.Stats.SimEnd),
		Wall:      r.Wall,
	})
}

// run executes one configuration (a single-spec plan) and collects stats.
func (s Scale) run(rc runConfig) RunStats {
	return s.runPlan("", []runConfig{rc})[0]
}

// runIPCWindow measures user cycles spent executing a fixed window of the
// (deterministic) op stream: ops [warmupOps, warmupOps+measureOps). Both
// the baseline and the tracked run execute the identical sequence, so the
// cycle delta isolates the tracking overhead exactly — the user-space IPC
// methodology of Figure 12 without time-window sampling noise.
func (s Scale) runIPCWindow(rc runConfig, trCfg prosper.Config, warmupOps, measureOps uint64) (ops, cycles uint64) {
	if rc.cores <= 0 {
		rc.cores = 1
	}
	k := kernel.New(kernel.Config{
		Machine:    machine.Config{Cores: rc.cores},
		Quantum:    s.Interval / 2,
		TrackerCfg: trCfg,
	})
	pc := kernel.ProcessConfig{
		Name:         rc.name,
		StackMech:    rc.stackMech,
		HeapMech:     rc.heapMech,
		StackReserve: s.StackReserve,
		HeapSize:     s.HeapSize,
		PremapHeap:   true, // measure warmed-up steady state
		Seed:         s.Seed,
	}
	if rc.ckpt {
		pc.CheckpointInterval = s.Interval
	}
	p := k.Spawn(pc, rc.prog())
	defer p.Shutdown()
	th := p.Threads[0]

	deadline := k.Eng.Now() + 60*sim.Millisecond // hard cap
	k.Eng.RunWhile(func() bool { return th.UserOps < warmupOps && k.Eng.Now() < deadline })
	startCycles := th.UserCycles
	startOps := th.UserOps
	target := startOps + measureOps
	k.Eng.RunWhile(func() bool { return th.UserOps < target && k.Eng.Now() < deadline })
	return th.UserOps - startOps, th.UserCycles - startCycles
}

// apps returns the three application models of the main evaluation.
func apps() []workload.AppParams {
	return []workload.AppParams{workload.GapbsPR(), workload.G500SSSP(), workload.YcsbMem()}
}
