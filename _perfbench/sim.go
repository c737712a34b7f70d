package main

import (
	"fmt"
	"time"

	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/persist"
)

// simOut is a spec's simulated outcome over its measured window. It is
// deterministic for a given binary, spec and seed, so it is compared
// exactly: against pinned.json for the pinned seed, across the passes of
// one run, and between the traced and the untraced run.
type simOut struct {
	UserOps         uint64                    `json:"user_ops"`
	UserCycles      uint64                    `json:"user_cycles"`
	Checkpoints     uint64                    `json:"checkpoints"`
	CheckpointBytes uint64                    `json:"checkpoint_bytes"`
	PauseCauses     [persist.NumCauses]uint64 `json:"pause_causes"`
	EventsFired     uint64                    `json:"events_fired"`
}

// simRun is one execution of a spec: its outcome plus host timings.
type simRun struct {
	out        simOut
	setupNS    int64   // kernel.New + Spawn + warmup
	intervalNS []int64 // one per measured checkpoint interval
	cycles     int64   // simulated cycles of the measured window
}

// runSim boots a private kernel, spawns the spec's process, warms it up
// and simulates the measured intervals one at a time. An untraced rp
// records the engine's progress; a traced one wraps the layers and
// replays the progress an untraced run of the same spec and seed
// recorded.
func runSim(sp simSpec, seed uint64, rp *replay) (run simRun, err error) {
	tr := rp.tr
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", sp.label, r)
		}
	}()
	start := time.Now()
	end := tr.begin("spec " + sp.label)
	defer end()

	var k *kernel.Kernel
	tr.timed(callBoot, func() {
		k = kernel.New(kernel.Config{Machine: machine.Config{Cores: 1}, Quantum: sp.interval / 2})
	})
	tr.attach(k)
	var p *kernel.Process
	tr.timed(callSpawn, func() {
		p = k.Spawn(kernel.ProcessConfig{
			Name:               sp.label,
			StackMech:          tr.wrapFactory(mechFactory(sp.mech, sp.interval)),
			StackReserve:       stackReserve,
			HeapSize:           heapSize,
			CheckpointInterval: sp.interval,
			PremapHeap:         true,
			Seed:               seed,
		}, tr.wrapProgram(sp.prog()))
	})
	defer p.Shutdown()

	endWarm := tr.begin("warmup")
	if err := rp.runUntil(k, k.Eng.Now()+sp.warmup); err != nil {
		return run, err
	}
	endWarm()
	run.setupNS = time.Since(start).Nanoseconds()

	tr.windowStart(k)
	var opsBase, cyclesBase uint64
	for _, t := range p.Threads {
		opsBase += t.UserOps
		cyclesBase += t.UserCycles
	}
	ckptBase, bytesBase := p.CheckpointCount, p.CheckpointBytes
	t0 := k.Eng.Now()
	for i := 0; i < sp.intervals; i++ {
		endIv := tr.begin("interval")
		ts := time.Now()
		if err := rp.runUntil(k, k.Eng.Now()+sp.interval); err != nil {
			return run, err
		}
		run.intervalNS = append(run.intervalNS, time.Since(ts).Nanoseconds())
		endIv()
		heapPeak.sample()
	}
	run.cycles = k.Eng.Now() - t0
	tr.windowEnd(k)

	o := &run.out
	for _, t := range p.Threads {
		o.UserOps += t.UserOps
		o.UserCycles += t.UserCycles
	}
	o.UserOps -= opsBase
	o.UserCycles -= cyclesBase
	o.Checkpoints = p.CheckpointCount - ckptBase
	o.CheckpointBytes = p.CheckpointBytes - bytesBase
	for _, ep := range p.EpochPauses {
		if ep.Seq > ckptBase {
			for c, v := range ep.Causes {
				o.PauseCauses[c] += v
			}
		}
	}
	o.EventsFired = k.Eng.Fired()
	return run, nil
}
