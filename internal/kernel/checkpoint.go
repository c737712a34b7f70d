package kernel

import (
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/telemetry"
	"prosper/internal/workload"
)

// checkpointProcess runs one incremental process checkpoint: pause every
// thread at an op boundary (mechanism state saved and quiescent), persist
// the register state, the per-thread stacks, and the heap, commit the
// checkpoint sequence number, and resume. done (optional) receives the
// completion callback for synchronous callers.
func (k *Kernel) checkpointProcess(p *Process, done func()) {
	if p.checkpointing || p.Done() {
		if done != nil {
			k.Eng.Schedule(sim.CompKernel, 0, done)
		}
		return
	}
	p.checkpointing = true
	start := k.Eng.Now()
	// Open the stall-attribution epoch: from here to commit completion,
	// every cycle is charged to exactly one cause, starting with the
	// quiesce of all threads (mechanisms refine the cause as they run).
	p.attrib.Begin(persist.CauseQuiesce)
	epoch := k.Trace.Begin(p.traceTrack, "checkpoint")
	quiesce := k.Trace.Begin(p.traceTrack, "quiesce")

	// Phase 1: quiesce all threads.
	remaining := len(p.Threads)
	for _, t := range p.Threads {
		k.pauseThread(t, func() {
			remaining--
			if remaining == 0 {
				quiesce.End(telemetry.I("threads", int64(len(p.Threads))))
				k.checkpointPaused(p, start, epoch, done)
			}
		})
	}
}

// checkpointPaused runs once every thread is parked. epoch is the
// whole-checkpoint telemetry span opened at trigger time (zero when
// telemetry is disabled); phase spans for the stack, heap, and commit
// steps nest under it on the process's checkpoint lane.
func (k *Kernel) checkpointPaused(p *Process, start int64, epoch telemetry.Span, done func()) {
	// Phase 2: register + program state, then segments (thread stacks in
	// TID order — sequential by default, concurrent when configured —
	// then the heap).
	idx := 0
	var ckptBytes uint64
	var stackBytes uint64
	var nextStack func()
	// Quiesce is over; the register save and stack copies start now.
	// Mechanisms immediately refine the cause inside their Checkpoint.
	p.attrib.Switch(persist.CauseCopy)
	stacks := k.Trace.Begin(p.traceTrack, "persist-stacks")
	finish := func() {
		// Phase 4: commit the checkpoint by bumping the sequence number
		// in the header (a single NVM line write is the commit point).
		p.attrib.Switch(persist.CauseCommitFence)
		commit := k.Trace.Begin(p.traceTrack, "commit")
		p.ckptSeq++
		seqBuf := make([]byte, 8)
		putU64(seqBuf, 0, p.ckptSeq)
		k.Mach.WritePhys(p.headerAddr, seqBuf, func() {
			commit.End(telemetry.U("seq", p.ckptSeq))
			elapsed := k.Eng.Now() - start
			causes := p.attrib.End()
			p.EpochPauses = append(p.EpochPauses, EpochPause{
				Seq: p.ckptSeq, Pause: elapsed, Causes: causes,
			})
			p.PauseHist.Observe(uint64(elapsed))
			if k.Trace.Enabled() {
				for c, v := range causes {
					k.Trace.Counter(p.traceTrack, "pause."+persist.Cause(c).String(),
						"cycles", int64(v))
				}
			}
			p.CheckpointCount++
			p.CheckpointBytes += ckptBytes
			p.CheckpointTime += elapsed
			p.Counters.Add("proc.ckpt_bytes", ckptBytes)
			p.Counters.Add("proc.ckpt_cycles", uint64(elapsed))
			p.checkpointing = false
			if p.OnCommit != nil {
				// Threads are still quiesced here: architectural and
				// program state are exactly the committed epoch's.
				p.OnCommit(p.ckptSeq)
			}
			if p.CommitHook != nil {
				// Snapshot point: the machine is at its quietest (threads
				// parked, mechanisms committed), and everything that IS in
				// flight carries a stable resume identity. SaveSnap reads
				// hookProc to learn which commit it is standing in.
				k.hookProc = p
				k.hookSync = done != nil
				p.CommitHook(p)
				k.hookProc = nil
				k.hookSync = false
			}
			k.commitEpilogue(p)
			epoch.End(
				telemetry.U("bytes", ckptBytes),
				telemetry.U("pages", (ckptBytes+mem.PageSize-1)/mem.PageSize),
				telemetry.U("stack_bytes", stackBytes),
				telemetry.U("seq", p.ckptSeq),
			)
			if done != nil {
				done()
			}
		})
	}
	heapPhase := func() {
		stacks.End(
			telemetry.U("bytes", stackBytes),
			telemetry.U("pages", (stackBytes+mem.PageSize-1)/mem.PageSize),
		)
		if p.heapMech == nil {
			finish()
			return
		}
		hs := k.Eng.Now()
		heap := k.Trace.Begin(p.traceTrack, "persist-heap")
		p.heapMech.Checkpoint(func(r persist.Result) {
			ckptBytes += r.BytesCopied
			p.Counters.Add("proc.heap_ckpt_bytes", r.BytesCopied)
			p.Counters.Add("proc.heap_ckpt_cycles", uint64(k.Eng.Now()-hs))
			heap.End(telemetry.U("bytes", r.BytesCopied))
			finish()
		})
	}
	// persistThread checkpoints one thread's registers and stack; the two
	// overlap (the paper overlaps OS prep work with the hardware's
	// flush/quiesce step). next fires when both complete.
	persistThread := func(t *Thread, next func()) {
		ss := k.Eng.Now()
		pendingParts := 2
		partDone := func() {
			pendingParts--
			if pendingParts == 0 {
				t.ckptEpoch++
				next()
			}
		}
		k.saveRegisters(t, partDone)
		t.mech.Checkpoint(func(r persist.Result) {
			ckptBytes += r.BytesCopied
			stackBytes += r.BytesCopied
			p.StackCkptTime += k.Eng.Now() - ss
			p.Counters.Add("proc.stack_ckpt_bytes", r.BytesCopied)
			p.Counters.Add("proc.stack_ckpt_cycles", uint64(k.Eng.Now()-ss))
			p.Counters.Add("proc.stack_ckpt_meta", r.MetaScanned)
			partDone()
		})
	}

	if k.Cfg.ParallelStackCheckpoint {
		// All live threads' stacks at once; their copies overlap in the
		// memory system.
		live := 0
		for _, t := range p.Threads {
			if t.state != threadDone {
				live++
			}
		}
		if live == 0 {
			heapPhase()
			return
		}
		remaining := live
		for _, t := range p.Threads {
			if t.state == threadDone {
				continue
			}
			persistThread(t, func() {
				remaining--
				if remaining == 0 {
					p.StackCkptBytes += stackBytes
					heapPhase()
				}
			})
		}
		return
	}

	nextStack = func() {
		if idx >= len(p.Threads) {
			p.StackCkptBytes += stackBytes
			heapPhase()
			return
		}
		t := p.Threads[idx]
		idx++
		if t.state == threadDone {
			nextStack()
			return
		}
		persistThread(t, nextStack)
	}
	nextStack()
}

// commitEpilogue is checkpoint phase 5: open the new interval and resume
// everything. The resume order rotates across checkpoints so no thread
// monopolizes its core when the checkpoint interval is shorter than the
// quantum. It is shared between the live commit path and snapshot resume
// (a snapshot is taken between commit and epilogue, so a resumed kernel
// runs exactly this to continue the interrupted commit).
func (k *Kernel) commitEpilogue(p *Process) {
	n := len(p.Threads)
	first := int(p.ckptSeq) % n
	for i := 0; i < n; i++ {
		t := p.Threads[(first+i)%n]
		t.mech.BeginInterval()
		k.resumeThread(t)
	}
	if p.heapMech != nil {
		p.heapMech.BeginInterval()
	}
}

// saveRegisters persists the thread's architectural state and, for
// checkpointable programs, the execution position snapshot, into the
// register slot for the epoch being checkpointed. Double-buffering keeps
// the previous committed epoch's registers intact until the new epoch
// commits, and the embedded epoch stamp lets recovery pair registers
// with the matching durable stack image.
//
// Slot layout: sp(8) storeSeq(8) epoch(8) snapLen(8) snapshot bytes.
func (k *Kernel) saveRegisters(t *Thread, done func()) {
	var snap []byte
	if c, ok := t.Prog.(workload.Checkpointable); ok {
		snap = c.Snapshot()
	}
	epoch := t.ckptEpoch + 1
	buf := make([]byte, 32+len(snap))
	putU64(buf, 0, t.sp)
	putU64(buf, 8, t.storeSeq)
	putU64(buf, 16, epoch)
	putU64(buf, 24, uint64(len(snap)))
	copy(buf[32:], snap)
	if len(buf) > mem.PageSize {
		panic("kernel: register snapshot exceeds a page")
	}
	k.Mach.WritePhys(t.regArea+(epoch%2)*mem.PageSize, buf, done)
}

// Checkpoint triggers one synchronous checkpoint of the process; done
// fires when it commits (useful for examples and tests in addition to the
// periodic ticker).
func (p *Process) Checkpoint(done func()) { p.kern.checkpointProcess(p, done) }
