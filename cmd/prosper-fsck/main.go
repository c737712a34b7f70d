// Command prosper-fsck demonstrates the NVM checkpoint-area integrity
// checker: it builds a checkpointed system, optionally injects corruption
// or a crash, and prints the validator's report. In a real deployment the
// equivalent check runs at boot before any recovery is trusted.
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

// run parses args, builds and checks the checkpointed system, and
// returns the exit status: 0 when the NVM checkpoint areas are
// consistent, 1 when fsck finds problems, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prosper-fsck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	corrupt := fs.Bool("corrupt", false, "inject metadata corruption before checking")
	crash := fs.Bool("crash", true, "power-fail the machine before checking")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "prosper-fsck: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	k := kernel.New(kernel.Config{Machine: machine.Config{Cores: 1}})
	p := k.Spawn(kernel.ProcessConfig{
		Name:               "fsck-demo",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 200 * sim.Microsecond,
	}, workload.NewCounter(10_000_000))
	k.RunFor(900 * sim.Microsecond)
	fmt.Fprintf(stdout, "ran %d checkpoints (%d bytes persisted)\n", p.CheckpointCount, p.CheckpointBytes)
	p.Shutdown()

	if *crash {
		k.Mach.Crash()
		fmt.Fprintln(stdout, "machine crashed (DRAM dropped)")
	}
	if *corrupt {
		k.Mach.Storage.WriteU64(p.Threads[0].StackSeg.MetaBase, 9)
		fmt.Fprintln(stdout, "injected: invalid commit phase in thread 0's stack metadata")
	}

	rep := kernel.Fsck(k.Mach.Storage)
	fmt.Fprintf(stdout, "\nfsck: %d processes, %d segments\n", rep.Processes, rep.Segments)
	if rep.OK() {
		fmt.Fprintln(stdout, "NVM checkpoint areas are consistent")
		return 0
	}
	fmt.Fprintln(stdout, "PROBLEMS FOUND:")
	for _, pr := range rep.Problems {
		fmt.Fprintln(stdout, "  -", pr)
	}
	return 1
}
