package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"prosper/internal/crash"
	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/snapshot"
	"prosper/internal/workload"
)

// Sweep constants at crash.Config's defaults.
const (
	sweepInterval = 50 * sim.Microsecond
	sweepCommits  = 4 + 2 // Epochs plus two for roll-forward headroom
)

// runSweep re-drives one crash.Sweep configuration through the public
// calls the traced run times: kernel.New, Kernel.Spawn, snapshot.Save
// and Resume, crash.Injector.Inject and kernel.Fsck. It takes the same
// golden run, samples the same crash points and forks them from the same
// commit snapshots, so its verdict counts equal crash.Sweep's. Of the
// recovery invariants it checks fsck, the recovered epoch and the
// execution position; the stack image check stays with crash.Sweep.
func runSweep(c crash.Config, rp *replay) (out sweepOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep %s: panic: %v", c.Mechanism, r)
		}
	}()
	tr := rp.tr
	boot := func(cfg kernel.Config) (k *kernel.Kernel) {
		tr.timed(callBoot, func() { k = kernel.New(cfg) })
		tr.attach(k)
		return k
	}
	spawn := func(k *kernel.Kernel) (p *kernel.Process, prog *workload.CounterProgram) {
		prog = workload.NewCounter(1 << 30)
		pc := sweepProcess(c.Mechanism)
		pc.StackMech = tr.wrapFactory(pc.StackMech)
		tr.timed(callSpawn, func() { p = k.Spawn(pc, tr.wrapProgram(prog)) })
		return p, prog
	}

	// Golden run: commit cycles, positions and machine snapshots.
	k := boot(kernel.Config{Machine: machine.Config{Cores: 1}})
	p, prog := spawn(k)
	var commits []sim.Time
	var positions, snaps [][]byte
	var snapErr error
	p.OnCommit = func(uint64) {
		commits = append(commits, k.Eng.Now())
		positions = append(positions, append([]byte(nil), prog.Snapshot()...))
	}
	p.CommitHook = func(*kernel.Process) {
		if snapErr != nil {
			return
		}
		var buf bytes.Buffer
		tr.timed(callSave, func() { snapErr = snapshot.Save(&buf, k, nil) })
		if tr != nil {
			tr.snapBytes += int64(buf.Len())
		}
		snaps = append(snaps, buf.Bytes())
	}
	tr.windowStart(k)
	for guard := 0; len(commits) < sweepCommits && guard < sweepCommits*16; guard++ {
		if err := rp.runUntil(k, k.Eng.Now()+sweepInterval); err != nil {
			return out, err
		}
	}
	tr.windowEnd(k)
	p.Shutdown()
	if len(commits) < sweepCommits {
		return out, fmt.Errorf("sweep %s: golden run recorded %d commits", c.Mechanism, len(commits))
	}
	if snapErr != nil {
		snaps = nil
	}
	out.Commits = len(commits)

	for _, at := range samplePoints(c.Seed, commits) {
		out.Points++
		committed := uint64(sort.Search(len(commits), func(i int) bool { return commits[i] > at }))
		k := boot(kernel.Config{Machine: machine.Config{Cores: 1}})
		spawn(k)
		if i := sort.Search(len(snaps), func(i int) bool { return commits[i] > at }) - 1; i >= 0 {
			var res *snapshot.Resumed
			tr.timed(callResume, func() {
				if res, err = snapshot.Resume(bytes.NewReader(snaps[i]), k); err == nil {
					err = res.Finish()
				}
			})
			if err != nil {
				return out, fmt.Errorf("sweep %s: fork from commit %d: %w", c.Mechanism, i+1, err)
			}
			out.Forked++
		}
		if err := rp.runUntil(k, at); err != nil {
			return out, err
		}
		img := k.Mach.Storage
		tr.timed(callInject, func() { img = crash.Injector{At: at}.Inject(k) })
		var rep kernel.FsckReport
		tr.timed(callFsck, func() { rep = kernel.Fsck(img) })
		if !rep.OK() {
			out.Violations++
			continue
		}
		v, preCommit, err := recoverPoint(c, rp, boot, img, committed, positions)
		if err != nil {
			return out, err
		}
		if v {
			out.Violations++
		}
		if preCommit {
			out.PreCommit++
		}
	}
	return out, nil
}

// recoverPoint boots the surviving image and checks the recovered epoch
// and execution position against the golden history. It reports a
// violation, or a recovery that failed as it must before the first
// durable commit.
func recoverPoint(c crash.Config, rp *replay, boot func(kernel.Config) *kernel.Kernel,
	img *mem.Storage, committed uint64, positions [][]byte) (violation, preCommit bool, err error) {
	k := boot(kernel.Config{Machine: machine.Config{Cores: 1, Storage: img}})
	prog := workload.NewCounter(1 << 30)
	pc := sweepProcess(c.Mechanism)
	pc.StackMech = rp.tr.wrapFactory(pc.StackMech)
	pc.CheckpointInterval = 0
	var rec *kernel.Process
	if rerr := k.RecoverProcess(pc, []workload.Program{rp.tr.wrapProgram(prog)}, func(p *kernel.Process) { rec = p }); rerr != nil {
		return committed >= 1, committed == 0, nil
	}
	if err := rp.runWhile(k, func() bool { return rec == nil }); err != nil {
		return false, false, err
	}
	if rec == nil {
		return true, false, nil
	}
	defer rec.Shutdown()
	s := rec.Threads[0].CkptEpoch()
	if (s != committed && s != committed+1) || s < 1 || int(s) > len(positions) {
		return true, false, nil
	}
	return !bytes.Equal(prog.Snapshot(), positions[s-1]), false, nil
}

// samplePoints draws crash.Sweep's crash points: even indices uniform
// over the window, odd ones clustered around commit instants.
func samplePoints(seed int64, commits []sim.Time) []sim.Time {
	rng := rand.New(rand.NewSource(seed))
	lo := sim.Time(1000)
	hi := commits[len(commits)-2]
	span := int64(sweepInterval/3 + sweepInterval/20)
	pts := make([]sim.Time, 0, crashPoints)
	for i := 0; i < crashPoints; i++ {
		var at sim.Time
		if i%2 == 0 {
			at = lo + sim.Time(rng.Int63n(int64(hi-lo)))
		} else {
			commit := commits[rng.Intn(len(commits)-1)]
			at = commit - sweepInterval/3 + sim.Time(rng.Int63n(span))
		}
		at = max(lo, min(at, hi))
		pts = append(pts, at)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}
