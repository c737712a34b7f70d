package main

import (
	"fmt"

	"prosper/internal/crash"
	"prosper/internal/kernel"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// pinnedSeed is the workload seed whose simulated outputs pinned.json
// records. Every run simulates it once, unmeasured, before its measured
// passes: that pass both warms the host and gates correctness.
const pinnedSeed = 1

// simSpec is one closed-loop simulation: one process of one program
// under one stack persistence mechanism on a one-core machine, warmed
// for warmup and then measured for intervals checkpoint intervals.
type simSpec struct {
	label     string
	prog      func() workload.Program
	mech      string
	interval  sim.Time
	intervals int
	warmup    sim.Time
}

const (
	stackReserve = 1 << 20
	heapSize     = 64 << 20
)

// mechFactory resolves a stack mechanism name. The SSP consolidation
// period keeps the paper's 10 µs : 10 ms ratio to the checkpoint
// interval, floored at 500 cycles as the experiments do.
func mechFactory(name string, interval sim.Time) persist.Factory {
	switch name {
	case "prosper":
		return persist.NewProsper(persist.ProsperConfig{})
	case "dirtybit":
		return persist.NewDirtybit(persist.DirtybitConfig{})
	case "writeprotect":
		return persist.NewWriteProtect(persist.DirtybitConfig{})
	case "romulus":
		return persist.NewRomulus()
	case "ssp-10us":
		c := 10 * sim.Microsecond * interval / (10 * sim.Millisecond)
		if c < 500 {
			c = 500
		}
		return persist.NewSSP(persist.SSPConfig{ConsolidationInterval: c})
	case "adaptive":
		return persist.NewAdaptiveProsper(persist.AdaptiveConfig{})
	}
	panic(fmt.Sprintf("perfbench: unknown mechanism %q", name))
}

func app(p workload.AppParams) (string, func() workload.Program) {
	return p.Name, func() workload.Program { return workload.NewApp(p) }
}

// appSteady is the paper's Fig 8 traffic: the three application models
// under Prosper at the default 200 µs interval. Their 8–64 MB heaps
// overflow the 2 MB L3, so op supply, the engine, translation, the
// caches and the devices do nearly all the work.
func appSteady() []simSpec {
	var specs []simSpec
	for _, p := range []workload.AppParams{workload.GapbsPR(), workload.G500SSSP(), workload.YcsbMem()} {
		name, prog := app(p)
		specs = append(specs, simSpec{
			label: name + "/prosper", prog: prog, mech: "prosper",
			interval: 200 * sim.Microsecond, intervals: 10, warmup: 100 * sim.Microsecond,
		})
	}
	return specs
}

// ckptDense is store-heavy checkpoint traffic: the stack-bound
// micro-benchmarks plus gapbs_pr under every stack mechanism at a 20 µs
// interval, so checkpoint inspect and copy, tracker bitmap traffic and
// NVM writes dominate.
func ckptDense() []simSpec {
	mp := workload.DefaultMicroParams()
	gapbs, gapbsProg := app(workload.GapbsPR())
	progs := []struct {
		name string
		prog func() workload.Program
	}{
		{"sparse", func() workload.Program { return workload.NewSparse(mp) }},
		{"random", func() workload.Program { return workload.NewRandom(mp) }},
		{"stream", func() workload.Program { return workload.NewStream(mp) }},
		{gapbs, gapbsProg},
	}
	var specs []simSpec
	for _, pr := range progs {
		for _, m := range []string{"prosper", "dirtybit", "writeprotect", "romulus", "ssp-10us", "adaptive"} {
			specs = append(specs, simSpec{
				label: pr.name + "/" + m, prog: pr.prog, mech: m,
				interval: 20 * sim.Microsecond, intervals: 10, warmup: 20 * sim.Microsecond,
			})
		}
	}
	return specs
}

// crashFactory resolves a crash.Config mechanism name the way the sweep
// does; nil is the no-persistence baseline.
func crashFactory(name string) persist.Factory {
	switch name {
	case "none":
		return nil
	case "ssp":
		return persist.NewSSP(persist.SSPConfig{})
	case "brokenfence":
		return persist.NewBrokenFence(persist.DirtybitConfig{})
	}
	return mechFactory(name, 0)
}

// crashPoints is the crash points sampled per mechanism sweep.
const crashPoints = 32

// crashConfigs is the crash-sweep workload: one crash.Sweep per
// mechanism crash.Mechanisms lists, run one point at a time.
func crashConfigs(seed int64, mechs []string) []crash.Config {
	var cfgs []crash.Config
	for _, m := range mechs {
		cfgs = append(cfgs, crash.Config{Mechanism: m, Points: crashPoints, Seed: seed, Workers: 1})
	}
	return cfgs
}

// sweepProcess is the process every crash.Sweep golden run and crash
// point spawns, at crash.Config's defaults.
func sweepProcess(mech string) kernel.ProcessConfig {
	return kernel.ProcessConfig{
		Name:               "sweep",
		StackMech:          crashFactory(mech),
		StackReserve:       64 << 10,
		HeapSize:           1 << 20,
		CheckpointInterval: 50 * sim.Microsecond,
	}
}
