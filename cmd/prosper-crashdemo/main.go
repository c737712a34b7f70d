// Command prosper-crashdemo demonstrates end-to-end process persistence:
// it boots the simulated machine, runs a checkpointable workload with
// periodic Prosper-backed checkpoints, kills the machine at a random
// point (power failure: DRAM and caches lost, NVM survives), reboots a
// fresh kernel on the surviving NVM, recovers the process, and verifies
// that it resumes from its last committed checkpoint and runs to
// completion — the same correctness test the paper performs by killing
// the gem5 process.
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the crash-and-recover demo, and returns the exit
// status: 0 when the process resumes and completes, 1 when the demo
// fails, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prosper-crashdemo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	iterations := fs.Int("iterations", 200_000, "counter iterations the workload must complete")
	intervalUS := fs.Int("interval", 200, "checkpoint interval in simulated microseconds")
	crashAfterUS := fs.Int("crash-after", 1500, "simulated microseconds before the power failure")
	dumpStats := fs.Bool("stats", false, "dump all simulator counters (gem5 stats.txt style) at the end")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "prosper-crashdemo: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *iterations < 1:
		return usage("-iterations must be >= 1, got %d", *iterations)
	case *intervalUS < 1:
		return usage("-interval must be >= 1, got %d", *intervalUS)
	case *crashAfterUS < 1:
		return usage("-crash-after must be >= 1, got %d", *crashAfterUS)
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 1
	}

	cfg := kernel.ProcessConfig{
		Name:               "demo-service",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: sim.Time(*intervalUS) * sim.Microsecond,
	}

	fmt.Fprintln(stdout, "=== boot 1: running with periodic Prosper checkpoints ===")
	k1 := kernel.New(kernel.Config{Machine: machine.Config{Cores: 1}})
	prog1 := workload.NewCounter(*iterations)
	p1 := k1.Spawn(cfg, prog1)
	k1.RunFor(sim.Time(*crashAfterUS) * sim.Microsecond)

	fmt.Fprintf(stdout, "progress at crash: %d/%d iterations, %d checkpoints committed (%d bytes)\n",
		prog1.Progress(), *iterations, p1.CheckpointCount, p1.CheckpointBytes)
	if p1.CheckpointCount == 0 {
		return fail("no checkpoint committed before the crash; increase -crash-after")
	}

	fmt.Fprintln(stdout, "\n=== POWER FAILURE: dropping DRAM and caches ===")
	k1.Mach.Crash()

	fmt.Fprintln(stdout, "\n=== boot 2: recovering from NVM ===")
	k2 := kernel.New(kernel.Config{Machine: machine.Config{Cores: 1, Storage: k1.Mach.Storage}})
	prog2 := workload.NewCounter(*iterations)
	var recovered *kernel.Process
	if err := k2.RecoverProcess(cfg, []workload.Program{prog2}, func(p *kernel.Process) { recovered = p }); err != nil {
		return fail("recovery failed: %v", err)
	}
	k2.Eng.RunWhile(func() bool { return recovered == nil })
	fmt.Fprintf(stdout, "recovered execution position: iteration %d (crash was at %d)\n",
		prog2.Progress(), prog1.Progress())
	if prog2.Progress() == 0 || prog2.Progress() > prog1.Progress() {
		return fail("FAIL: recovery position implausible")
	}

	if !k2.RunUntilDone(10 * sim.Second) {
		return fail("FAIL: recovered process never completed")
	}
	fmt.Fprintf(stdout, "\nrecovered process ran to completion: %d/%d iterations\n", prog2.Progress(), *iterations)
	fmt.Fprintln(stdout, "OK: process persisted across the crash and resumed from its last checkpoint")

	if *dumpStats {
		fmt.Fprintln(stdout, "\n=== simulator counters (post-recovery kernel) ===")
		k2.DumpStats(stdout)
	}
	return 0
}
