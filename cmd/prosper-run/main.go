// Command prosper-run executes one workload under a chosen combination
// of persistence mechanisms on the simulated machine and reports the run
// statistics — the general-purpose driver for exploring configurations
// outside the fixed experiment harnesses.
//
// Usage:
//
//	prosper-run -workload gapbs_pr -stack prosper -heap ssp \
//	            -interval 200 -duration 2000 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

func mechFactory(name string, consolidationUS int) (persist.Factory, bool) {
	cons := sim.Time(consolidationUS) * sim.Microsecond
	switch name {
	case "", "none":
		return nil, true
	case "prosper":
		return persist.NewProsper(persist.ProsperConfig{}), true
	case "prosper-adaptive":
		return persist.NewAdaptiveProsper(persist.AdaptiveConfig{}), true
	case "dirtybit":
		return persist.NewDirtybit(persist.DirtybitConfig{}), true
	case "writeprotect":
		return persist.NewWriteProtect(persist.DirtybitConfig{}), true
	case "romulus":
		return persist.NewRomulus(), true
	case "ssp":
		return persist.NewSSP(persist.SSPConfig{ConsolidationInterval: cons}), true
	default:
		return nil, false
	}
}

func workloadByName(name string, arg int) workload.Program {
	switch name {
	case "gapbs_pr":
		return workload.NewApp(workload.GapbsPR())
	case "g500_sssp":
		return workload.NewApp(workload.G500SSSP())
	case "ycsb_mem":
		return workload.NewApp(workload.YcsbMem())
	case "mcf":
		return workload.NewApp(workload.SpecMCF())
	case "omnetpp":
		return workload.NewApp(workload.SpecOmnetpp())
	case "perlbench":
		return workload.NewApp(workload.SpecPerlbench())
	case "leela":
		return workload.NewApp(workload.SpecLeela())
	case "random":
		return workload.NewRandom(workload.MicroParams{})
	case "stream":
		return workload.NewStream(workload.MicroParams{})
	case "sparse":
		return workload.NewSparse(workload.MicroParams{})
	case "quicksort":
		return workload.NewQuicksort(arg)
	case "recursive":
		return workload.NewRecursive(arg)
	case "normal":
		return workload.NewNormal()
	case "poisson":
		return workload.NewPoisson()
	case "counter":
		return workload.NewCounter(arg)
	default:
		return nil
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload, and returns the exit status: 0 on
// a clean run, 1 if fsck finds problems, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prosper-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "gapbs_pr", "workload name")
	wlArg := fs.Int("arg", 4096, "workload parameter (elements/depth/iterations)")
	stack := fs.String("stack", "prosper", "stack mechanism: none|prosper|prosper-adaptive|dirtybit|writeprotect|romulus|ssp")
	heap := fs.String("heap", "none", "heap mechanism (same choices)")
	cons := fs.Int("consolidation", 10, "SSP consolidation interval (µs)")
	intervalUS := fs.Int("interval", 200, "checkpoint interval (simulated µs; 0 disables)")
	durationUS := fs.Int("duration", 2000, "run duration (simulated µs)")
	threads := fs.Int("threads", 1, "threads (one workload instance each)")
	cores := fs.Int("cores", 1, "simulated cores")
	seed := fs.Uint64("seed", 1, "workload seed")
	parallel := fs.Bool("parallel-ckpt", false, "checkpoint thread stacks concurrently")
	dumpStats := fs.Bool("stats", false, "dump all simulator counters at the end")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "prosper-run: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *wlArg < 0:
		return usage("-arg must be >= 0, got %d", *wlArg)
	case *cons < 0:
		return usage("-consolidation must be >= 0, got %d", *cons)
	case *intervalUS < 0:
		return usage("-interval must be >= 0 (0 disables), got %d", *intervalUS)
	case *durationUS < 1:
		return usage("-duration must be >= 1, got %d", *durationUS)
	case *threads < 1:
		return usage("-threads must be >= 1, got %d", *threads)
	case *cores < 1:
		return usage("-cores must be >= 1, got %d", *cores)
	}

	stackF, ok := mechFactory(*stack, *cons)
	if !ok {
		return usage("unknown stack mechanism %q", *stack)
	}
	heapF, ok := mechFactory(*heap, *cons)
	if !ok {
		return usage("unknown heap mechanism %q", *heap)
	}
	progs := make([]workload.Program, *threads)
	for i := range progs {
		progs[i] = workloadByName(*wl, *wlArg)
		if progs[i] == nil {
			return usage("unknown workload %q", *wl)
		}
	}

	k := kernel.New(kernel.Config{
		Machine:                 machine.Config{Cores: *cores},
		Quantum:                 100 * sim.Microsecond,
		ParallelStackCheckpoint: *parallel,
	})
	p := k.Spawn(kernel.ProcessConfig{
		Name:               *wl,
		StackMech:          stackF,
		HeapMech:           heapF,
		CheckpointInterval: sim.Time(*intervalUS) * sim.Microsecond,
		PremapHeap:         true,
		Seed:               *seed,
	}, progs...)

	k.RunFor(sim.Time(*durationUS) * sim.Microsecond)
	p.Shutdown()

	fmt.Fprintf(stdout, "workload           %s x%d (stack=%s heap=%s)\n", *wl, *threads, *stack, *heap)
	fmt.Fprintf(stdout, "simulated          %d µs (%d cycles, %d events)\n",
		*durationUS, k.Eng.Now(), k.Eng.Fired())
	var ops, cycles uint64
	for _, t := range p.Threads {
		ops += t.UserOps
		cycles += t.UserCycles
	}
	fmt.Fprintf(stdout, "user ops           %d (IPC %.4f)\n", ops, float64(ops)/float64(cycles+1))
	fmt.Fprintf(stdout, "checkpoints        %d\n", p.CheckpointCount)
	fmt.Fprintf(stdout, "persisted bytes    %d (stack %d)\n", p.CheckpointBytes, p.StackCkptBytes)
	if p.CheckpointCount > 0 {
		fmt.Fprintf(stdout, "mean ckpt cycles   %d\n", uint64(p.CheckpointTime)/p.CheckpointCount)
	}
	if rep := kernel.Fsck(k.Mach.Storage); !rep.OK() {
		fmt.Fprintln(stdout, "FSCK PROBLEMS:", rep.Problems)
		return 1
	}
	fmt.Fprintln(stdout, "fsck               clean")

	if *dumpStats {
		fmt.Fprintln(stdout)
		k.DumpStats(stdout)
	}
	return 0
}
