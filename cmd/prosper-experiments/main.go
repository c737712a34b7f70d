// Command prosper-experiments regenerates the paper's tables and figures
// on the simulated machine. Each experiment prints a paper-style ASCII
// table; DESIGN.md §5 maps experiment ids to the paper.
//
// Usage:
//
//	prosper-experiments [-interval us] [-checkpoints n] [-ops n]
//	                    [-parallel n] [-progress] [-list]
//	                    [-journey-out FILE [-journey-sample-rate n]
//	                    [-journey-seed s]]
//	                    [fig1 fig2 ... | all | quick]
//	prosper-experiments -crash-sweep [-crash-points n] [-crash-seed s]
//	                    [-parallel n]
//	prosper-experiments -snapshot-out FILE [-snapshot-at n]
//	                    [-snapshot-mech m] [-snapshot-seed s]
//	prosper-experiments -resume-from FILE [-snapshot-mech m]
//	                    [-snapshot-seed s]
//
// "quick" runs the trace-driven motivation figures only (seconds);
// "all" also runs the full-machine figures (minutes at default scale).
//
// -crash-sweep runs the differential power-failure sweep instead of the
// figures: every mechanism is crashed at -crash-points seeded cycles and
// recovered from the surviving NVM image, and any recovery-invariant
// violation makes the command exit non-zero (see EXPERIMENTS.md).
//
// -snapshot-out runs a deterministic checkpointing workload, saves the
// full machine state at a chosen commit, and prints the run's headline
// stats; -resume-from (same flags) restores that snapshot into a fresh
// kernel, finishes the window, and prints identical stats. Malformed or
// mismatched snapshots exit 2 with a typed diagnostic (DESIGN.md §14).
//
// Every figure is a declarative run plan executed on a bounded worker
// pool (-parallel, default GOMAXPROCS). Each run owns a private
// deterministic simulation, and results are assembled in plan order, so
// tables on stdout are byte-identical for any -parallel value; progress
// and timing go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"prosper/internal/crash"
	"prosper/internal/experiments"
	"prosper/internal/journey"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/telemetry"
)

type experiment struct {
	name  string
	heavy bool
	run   func() *stats.Table
}

func main() {
	intervalUS := flag.Int("interval", 200, "checkpoint interval in simulated microseconds (paper: 10000)")
	checkpoints := flag.Int("checkpoints", 10, "checkpoints per measured run")
	traceOps := flag.Int("ops", 150000, "trace length for motivation figures")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of ASCII tables")
	chartOut := flag.Bool("chart", false, "also render each figure as an ASCII bar chart")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation runs per experiment")
	list := flag.Bool("list", false, "print the experiment registry and exit")
	progress := flag.Bool("progress", true, "report per-run progress (spec, sim cycles, wall seconds) on stderr")
	progressJSON := flag.String("progress-json", "", "also append per-run progress records as JSON lines to FILE")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event / Perfetto JSON trace of every run to FILE")
	journeyOut := flag.String("journey-out", "", "write sampled per-access journey records (JSON lines) of every run to FILE")
	journeyRate := flag.Uint64("journey-sample-rate", 4096, "sample 1-in-N accesses for -journey-out (deterministic in the access sequence number)")
	journeySeed := flag.Uint64("journey-seed", 1, "seed for -journey-out access sampling")
	metricsOut := flag.String("metrics-out", "", "write periodic metrics-registry snapshots as JSON lines to FILE")
	sampleEvery := flag.Int64("sample-every", 30_000, "telemetry sampling cadence in simulated cycles (30000 = 10 µs)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator to FILE")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to FILE at exit")
	crashSweep := flag.Bool("crash-sweep", false, "run the power-failure crash sweep over every mechanism instead of the figures")
	crashPoints := flag.Int("crash-points", 64, "crash points per mechanism for -crash-sweep")
	crashSeed := flag.Int64("crash-seed", 1, "PRNG seed for -crash-sweep point sampling")
	snapshotOut := flag.String("snapshot-out", "", "run the snapshot spec and save a machine snapshot to FILE instead of the figures")
	snapshotAt := flag.Int("snapshot-at", 2, "measured-window commit to snapshot at for -snapshot-out (counts from 1)")
	resumeFrom := flag.String("resume-from", "", "resume the machine snapshot in FILE and finish its measured window instead of the figures")
	snapshotMech := flag.String("snapshot-mech", "prosper", "stack mechanism for -snapshot-out / -resume-from")
	snapshotSeed := flag.Uint64("snapshot-seed", 1, "workload seed for -snapshot-out / -resume-from")
	flag.Parse()

	for _, f := range []struct {
		name string
		v    int
	}{{"crash-points", *crashPoints}, {"parallel", *parallel}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "prosper-experiments: -%s must be >= 1, got %d\n", f.name, f.v)
			os.Exit(2)
		}
	}

	if *crashSweep {
		os.Exit(runCrashSweep(*crashPoints, *crashSeed, *parallel))
	}
	if *snapshotOut != "" && *resumeFrom != "" {
		fmt.Fprintln(os.Stderr, "prosper-experiments: -snapshot-out and -resume-from are mutually exclusive")
		os.Exit(2)
	}
	if *snapshotOut != "" {
		os.Exit(runSnapshotSave(*snapshotOut, *snapshotMech, *snapshotSeed,
			sim.Time(*intervalUS)*sim.Microsecond, *checkpoints, *snapshotAt))
	}
	if *resumeFrom != "" {
		os.Exit(runResume(*resumeFrom, *snapshotMech, *snapshotSeed,
			sim.Time(*intervalUS)*sim.Microsecond, *checkpoints))
	}

	scale := experiments.DefaultScale()
	scale.Interval = sim.Time(*intervalUS) * sim.Microsecond
	scale.Checkpoints = *checkpoints
	scale.TraceOps = *traceOps
	scale.Workers = *parallel
	if *progress {
		scale.Log = stats.NewRunLog(os.Stderr)
	} else if *progressJSON != "" {
		scale.Log = stats.NewRunLog(nil)
	}
	if *progressJSON != "" {
		f := mustCreate(*progressJSON)
		defer f.Close()
		scale.Log.StreamJSON(f)
	}
	if *traceOut != "" || *metricsOut != "" {
		scale.Trace = telemetry.NewTrace()
		scale.SampleEvery = sim.Time(*sampleEvery)
	}
	if *journeyOut != "" {
		scale.Journal = journey.NewJournal()
		scale.JourneySampleRate = *journeyRate
		scale.JourneySeed = *journeySeed
	}
	if *cpuprofile != "" {
		f := mustCreate(*cpuprofile)
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "prosper-experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	exps := []experiment{
		{"table1", false, func() *stats.Table { return experiments.Table1() }},
		{"fig1", false, func() *stats.Table { _, tb := experiments.Fig1(scale); return tb }},
		{"fig2", false, func() *stats.Table { _, tb := experiments.Fig2(scale); return tb }},
		{"fig3", false, func() *stats.Table { _, tb := experiments.Fig3(scale); return tb }},
		{"fig4", false, func() *stats.Table { _, tb := experiments.Fig4(scale); return tb }},
		{"fig8", true, func() *stats.Table { _, tb := experiments.Fig8(scale); return tb }},
		{"fig9", true, func() *stats.Table { _, tb := experiments.Fig9(scale); return tb }},
		{"fig10", true, func() *stats.Table { _, tb := experiments.Fig10(scale); return tb }},
		{"fig11", true, func() *stats.Table { _, tb := experiments.Fig11(scale); return tb }},
		{"fig12", true, func() *stats.Table { _, tb := experiments.Fig12(scale); return tb }},
		{"fig13", true, func() *stats.Table { _, tb := experiments.Fig13(scale); return tb }},
		{"ablation", true, func() *stats.Table { _, tb := experiments.Ablation(scale); return tb }},
		{"tracking", true, func() *stats.Table { _, tb := experiments.TrackingCost(scale); return tb }},
		{"adaptive", true, func() *stats.Table { _, tb := experiments.Adaptive(scale); return tb }},
		{"pause", true, func() *stats.Table { _, tb := experiments.PauseBreakdown(scale); return tb }},
		{"ctxswitch", false, func() *stats.Table { _, tb := experiments.ContextSwitch(scale); return tb }},
		{"energy", false, func() *stats.Table { _, tb := experiments.Energy(scale); return tb }},
	}

	if *list {
		printRegistry(os.Stdout, exps)
		return
	}

	byName := map[string]experiment{}
	for _, e := range exps {
		byName[e.name] = e
	}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"quick"}
	}
	var selected []experiment
	for _, a := range args {
		switch a {
		case "all":
			selected = append(selected, exps...)
		case "quick":
			for _, e := range exps {
				if !e.heavy {
					selected = append(selected, e)
				}
			}
		default:
			e, ok := byName[a]
			if !ok {
				fmt.Fprintf(os.Stderr, "prosper-experiments: unknown experiment %q\n\n", a)
				printRegistry(os.Stderr, exps)
				fmt.Fprintln(os.Stderr, "\n(run 'prosper-experiments -list' to see this registry again)")
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now() //prosperlint:ignore wallclock host metric: per-experiment wall time is stderr progress only, not part of the table
		tb := e.run()
		if *jsonOut {
			if err := tb.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			fmt.Println(tb.String())
			if *chartOut {
				if ch := chartFor(e.name, tb); ch != nil && ch.NumRows() > 0 {
					fmt.Println(ch.String())
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v wall time, %d workers]\n",
			e.name, time.Since(start).Round(time.Millisecond), *parallel) //prosperlint:ignore wallclock host metric: per-experiment wall time is stderr progress only, not part of the table
	}

	if *traceOut != "" {
		f := mustCreate(*traceOut)
		check(scale.Trace.WriteJSON(f))
		check(f.Close())
		fmt.Fprintf(os.Stderr, "[trace written to %s — open it at https://ui.perfetto.dev]\n", *traceOut)
	}
	if *metricsOut != "" {
		f := mustCreate(*metricsOut)
		check(scale.Trace.WriteMetricsJSONL(f))
		check(f.Close())
	}
	if *journeyOut != "" {
		f := mustCreate(*journeyOut)
		check(scale.Journal.WriteJSONL(f))
		check(f.Close())
		fmt.Fprintf(os.Stderr, "[journey journal written to %s — explore it with prosper-journey]\n", *journeyOut)
	}
	if *memprofile != "" {
		f := mustCreate(*memprofile)
		runtime.GC()
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
}

// runCrashSweep crashes every persistence mechanism at `points` seeded
// cycles, recovers each surviving NVM image, and prints one summary line
// per mechanism. Violations are listed individually; any violation makes
// the exit status 1.
func runCrashSweep(points int, seed int64, workers int) int {
	status := 0
	for _, mech := range crash.Mechanisms() {
		start := time.Now() //prosperlint:ignore wallclock host metric: sweep wall time is stderr progress only, verdicts come from sim state
		res, err := crash.Sweep(crash.Config{
			Mechanism: mech,
			Points:    points,
			Seed:      seed,
			Workers:   workers,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "prosper-experiments: crash sweep %s: %v\n", mech, err)
			return 1
		}
		fmt.Println(res.Summary())
		for _, v := range res.Violations() {
			fmt.Printf("  VIOLATION at cycle %d (P=%d S=%d): %s\n", v.Cycle, v.Commit, v.Epoch, v.Violation)
			status = 1
		}
		fmt.Fprintf(os.Stderr, "[crash-sweep %s completed in %v wall time, %d workers]\n",
			mech, time.Since(start).Round(time.Millisecond), workers) //prosperlint:ignore wallclock host metric: sweep wall time is stderr progress only, verdicts come from sim state
	}
	return status
}

// mustCreate opens an output file or exits with a diagnostic.
func mustCreate(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prosper-experiments:", err)
		os.Exit(1)
	}
	return f
}

// check exits with a diagnostic on a failed output write.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "prosper-experiments:", err)
		os.Exit(1)
	}
}

// printRegistry lists every experiment with its cost class, plus the two
// pseudo-targets.
func printRegistry(w *os.File, exps []experiment) {
	fmt.Fprintln(w, "experiments (quick = seconds; heavy = minutes at default scale):")
	for _, e := range exps {
		marker := "quick"
		if e.heavy {
			marker = "heavy"
		}
		fmt.Fprintf(w, "  %-10s %s\n", e.name, marker)
	}
	fmt.Fprintf(w, "  %-10s every experiment\n", "all")
	fmt.Fprintf(w, "  %-10s every quick experiment (default)\n", "quick")
}

// chartFor maps each figure to its headline series for bar rendering.
func chartFor(name string, tb *stats.Table) *stats.Chart {
	switch name {
	case "fig1":
		return stats.ChartFromTable(tb, "stack fraction", "", "stack_total", "benchmark")
	case "fig3":
		return stats.ChartFromTable(tb, "normalized time (no SP awareness)", "x", "no_sp_aware", "benchmark", "mechanism")
	case "fig4":
		return stats.ChartFromTable(tb, "page/8B checkpoint-size reduction", "x", "reduction", "benchmark")
	case "fig8":
		return stats.ChartFromTable(tb, "normalized execution time", "x", "normalized_time", "benchmark", "mechanism")
	case "fig9":
		return stats.ChartFromTable(tb, "normalized execution time", "x", "normalized_time", "benchmark", "combination", "ssp_interval")
	case "fig10":
		return stats.ChartFromTable(tb, "mean checkpoint bytes", "B", "mean_ckpt_bytes", "benchmark", "granularity")
	case "fig11":
		return stats.ChartFromTable(tb, "mean checkpoint bytes", "B", "mean_ckpt_bytes", "benchmark", "interval")
	case "fig12":
		return stats.ChartFromTable(tb, "user-IPC speedup", "", "speedup", "benchmark", "granularity")
	case "fig13":
		return stats.ChartFromTable(tb, "bitmap loads", "", "bitmap_loads", "benchmark", "param", "value")
	case "tracking":
		return stats.ChartFromTable(tb, "normalized time", "x", "normalized_time", "benchmark", "technique")
	default:
		return nil
	}
}
