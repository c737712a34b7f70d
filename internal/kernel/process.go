package kernel

import (
	"fmt"
	"sort"

	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/stats"
	"prosper/internal/telemetry"
	"prosper/internal/vm"
	"prosper/internal/workload"
)

// Virtual address-space layout for every process.
const (
	heapBase     = uint64(0x1000_0000)
	stackTopBase = uint64(0x7f00_0000_0000)
	stackSpacing = uint64(64 << 20) // gap between thread stacks
)

// ProcessConfig describes a process to spawn.
type ProcessConfig struct {
	Name string

	// StackMech builds the per-thread stack persistence mechanism
	// (nil: no stack persistence).
	StackMech persist.Factory
	// HeapMech builds the process-wide heap persistence mechanism
	// (nil: no heap persistence).
	HeapMech persist.Factory

	StackReserve uint64 // per-thread stack reserve (default 1 MiB)
	HeapSize     uint64 // heap arena size (default 64 MiB)

	// CheckpointInterval enables periodic process checkpoints (0: none).
	CheckpointInterval sim.Time

	// PremapHeap maps the whole heap arena at spawn instead of demand
	// paging it, modelling the warmed-up steady state the paper measures
	// (its benchmarks run for a minute before measurement starts).
	PremapHeap bool

	Seed uint64
}

func (c ProcessConfig) withDefaults() ProcessConfig {
	if c.StackReserve == 0 {
		c.StackReserve = 1 << 20
	}
	if c.HeapSize == 0 {
		c.HeapSize = 64 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

type threadState int

const (
	threadReady threadState = iota
	threadRunning
	threadPaused
	threadDone
)

// Thread is one schedulable execution context.
type Thread struct {
	TID  int
	Proc *Process
	Prog workload.Program

	Ctx      workload.Context
	StackSeg persist.Segment
	mech     persist.Mechanism
	regArea  uint64 // NVM register-save area (two page-sized slots)

	// ckptEpoch counts this thread's completed register+stack persists.
	// It advances in lockstep with the stack mechanism's durable commit
	// sequence and selects which register slot the next save targets;
	// threads that finish early stop persisting, so it can lag the
	// process-wide commit sequence.
	ckptEpoch uint64

	home  *coreState
	state threadState

	needYield      bool
	pauseRequested bool
	pauseWaiter    func()

	// User-mode accounting (Fig 12's user-space IPC).
	UserOps    uint64
	UserCycles uint64

	storeSeq uint64
	sp       uint64

	// opsConsumed counts Prog.Next calls. Programs are deterministic
	// functions of their Context, so snapshot resume rebuilds a thread's
	// execution position by starting a fresh program and discarding this
	// many ops — no generator state ever needs to be serialized.
	opsConsumed uint64

	// Run-loop continuations, bound once at thread creation so the
	// per-op step/finish cycle allocates nothing: cs is the core the
	// thread currently occupies (set by scheduleNext), opStart the issue
	// cycle of the op in flight, storeBuf the reused store payload.
	cs          *coreState
	opStart     sim.Time
	stepFn      func()
	loadDoneFn  func([]byte)
	storeDoneFn func()
	storeBuf    []byte
}

// Mech exposes the thread's stack persistence mechanism.
func (t *Thread) Mech() persist.Mechanism { return t.mech }

// CkptEpoch returns the thread's completed checkpoint epoch. On a
// recovered process it is the epoch recovery restored the thread to,
// which the crash-sweep harness checks against the durable commit
// sequence.
func (t *Thread) CkptEpoch() uint64 { return t.ckptEpoch }

// SP returns the thread's last architectural stack pointer (tracing and
// the SP-awareness analyses read it).
func (t *Thread) SP() uint64 { return t.sp }

// EpochPause is one checkpoint epoch's pause decomposition: the measured
// stop-the-world pause and its per-cause cycle attribution. The causes
// sum exactly to Pause — the attribution register charges every cycle
// between quiesce start and commit completion to exactly one cause.
type EpochPause struct {
	Seq    uint64
	Pause  sim.Time
	Causes [persist.NumCauses]uint64
}

// Process is a persistent-capable process.
type Process struct {
	PID  int
	Name string
	Cfg  ProcessConfig

	AS      *vm.AddressSpace
	Threads []*Thread

	HeapSeg  persist.Segment
	heapMech persist.Mechanism

	kern       *Kernel
	headerAddr uint64
	ckptSeq    uint64
	ckptTicker *sim.Ticker

	checkpointing bool
	traceTrack    telemetry.Track // checkpoint-epoch lane (zero when disabled)

	// OnCommit, when set, fires inside every checkpoint's commit callback
	// with the just-committed sequence number, while all threads are
	// still quiesced — the crash-sweep harness snapshots golden state
	// here. It must not block or mutate the process.
	OnCommit func(seq uint64)

	// CommitHook, when set, fires right after OnCommit and before the
	// threads resume — the one point in a run where a simulator snapshot
	// can be taken (Kernel.SaveSnap records the committing process while
	// the hook runs). Like OnCommit it must not mutate simulation state.
	CommitHook func(p *Process)

	// Checkpoints completed and cumulative checkpoint statistics.
	CheckpointCount uint64
	CheckpointBytes uint64
	CheckpointTime  sim.Time
	StackCkptBytes  uint64
	StackCkptTime   sim.Time

	// attrib is the stall-attribution register charged by the kernel's
	// checkpoint engine and the persistence mechanisms between epoch
	// quiesce and commit; EpochPauses records one entry per completed
	// checkpoint and PauseHist the pause distribution.
	attrib      *persist.Attrib
	EpochPauses []EpochPause
	PauseHist   *stats.Histogram

	Counters *stats.Counters
}

// Spawn creates a process with one thread per program and makes its
// threads runnable.
func (k *Kernel) Spawn(cfg ProcessConfig, progs ...workload.Program) *Process {
	cfg = cfg.withDefaults()
	if len(progs) == 0 {
		panic("kernel: Spawn needs at least one program")
	}
	p := &Process{
		PID:       k.nextPID,
		Name:      cfg.Name,
		Cfg:       cfg,
		AS:        vm.NewAddressSpace(k.Mach.DRAMFrames, k.Mach.NVMFrames),
		kern:      k,
		attrib:    persist.NewAttrib(k.Eng),
		PauseHist: stats.NewHistogram(),
		Counters:  stats.NewCounters(),
	}
	k.nextPID++
	if p.Name == "" {
		p.Name = "proc"
	}

	// Heap area + mechanism.
	heapInNVM := false
	if cfg.HeapMech != nil {
		p.heapMech = cfg.HeapMech()
		heapInNVM = p.heapMech.PlaceInNVM()
	}
	check(p.AS.AddVMA(&vm.VMA{
		Lo: heapBase, Hi: heapBase + cfg.HeapSize, Kind: vm.KindHeap,
		Writable: true, InNVM: heapInNVM, ThreadID: -1,
	}))
	if cfg.PremapHeap {
		p.AS.EnsureRange(heapBase, heapBase+cfg.HeapSize)
	}

	// NVM checkpoint areas: header page + heap areas + per-thread areas.
	p.headerAddr = k.super.allocNVM(mem.PageSize)
	if p.heapMech != nil {
		p.HeapSeg = persist.Segment{
			Lo: heapBase, Hi: heapBase + cfg.HeapSize, Kind: vm.KindHeap,
			ImageBase: k.super.allocNVM(cfg.HeapSize),
			MetaBase:  k.super.allocNVM(cfg.HeapSize + (1 << 20)),
			MetaSize:  cfg.HeapSize + (1 << 20),
		}
		p.heapMech.Attach(k.env(p), p.HeapSeg)
		if s, ok := p.heapMech.(persist.Snapshotter); ok {
			s.SetSnapshotID(p.PID, 0) // heap is snapshot segment 0
		}
	}

	for i, prog := range progs {
		t := p.newThread(i, prog)
		p.Threads = append(p.Threads, t)
	}
	p.writeHeader()
	k.super.addProc(p.Name, p.headerAddr)
	k.procs = append(k.procs, p)
	p.traceTrack = k.Trace.Track("ckpt:" + p.Name)
	k.registerProcMetrics(p)

	for _, t := range p.Threads {
		t.Prog.Start(t.Ctx)
		k.enqueue(t)
	}
	if cfg.CheckpointInterval > 0 {
		p.ckptTicker = k.Eng.NewTicker(sim.CompKernel, cfg.CheckpointInterval, func() { k.checkpointProcess(p, nil) })
	}
	return p
}

// newThread lays out one thread's stack, NVM areas, and mechanism.
func (p *Process) newThread(i int, prog workload.Program) *Thread {
	k := p.kern
	cfg := p.Cfg
	stackHi := stackTopBase - uint64(p.PID)*16*stackSpacing - uint64(i)*stackSpacing
	stackLo := stackHi - cfg.StackReserve
	t := &Thread{
		TID:  i,
		Proc: p,
		Prog: prog,
		sp:   stackHi,
		home: k.leastLoadedCore(),
	}
	t.Ctx = workload.Context{
		StackHi:      stackHi,
		StackReserve: cfg.StackReserve,
		HeapLo:       heapBase,
		HeapSize:     cfg.HeapSize,
		Seed:         cfg.Seed + uint64(i)*7919,
	}
	t.bindOps(k)
	if cfg.StackMech != nil {
		t.mech = cfg.StackMech()
	} else {
		t.mech = persist.NewNone()()
	}
	check(p.AS.AddVMA(&vm.VMA{
		Lo: stackLo, Hi: stackHi, Kind: vm.KindStack,
		Writable: true, InNVM: t.mech.PlaceInNVM(), ThreadID: i,
	}))
	t.StackSeg = persist.Segment{
		Lo: stackLo, Hi: stackHi, Kind: vm.KindStack,
		ImageBase: k.super.allocNVM(cfg.StackReserve),
		MetaBase:  k.super.allocNVM(cfg.StackReserve + (1 << 18)),
		MetaSize:  cfg.StackReserve + (1 << 18),
	}
	// Two register slots, alternated by checkpoint epoch: the save for
	// epoch E+1 must not overwrite the last committed epoch's registers
	// before E+1 commits (power can fail in between).
	t.regArea = k.super.allocNVM(2 * mem.PageSize)
	t.mech.Attach(k.env(p), t.StackSeg)
	if s, ok := t.mech.(persist.Snapshotter); ok {
		s.SetSnapshotID(p.PID, i+1) // stacks are snapshot segments 1..n
	}
	return t
}

// registerProcMetrics adopts the process's counters and scalar
// checkpoint/thread statistics into the kernel's metrics registry under
// "proc.<name>", in the order DumpStats prints them: sorted counter
// names, then the checkpoint scalars, then per-thread user accounting,
// then the pause distribution and its per-cause stall attribution.
func (k *Kernel) registerProcMetrics(p *Process) {
	k.Metrics.RegisterFunc("proc."+p.Name, func(emit func(name string, v uint64)) {
		names := p.Counters.Names()
		sort.Strings(names)
		for _, n := range names {
			emit(n, p.Counters.Get(n))
		}
		emit("checkpoints", p.CheckpointCount)
		emit("checkpoint_bytes", p.CheckpointBytes)
		emit("checkpoint_cycles", uint64(p.CheckpointTime))
		for _, t := range p.Threads {
			emit(fmt.Sprintf("thread%d.user_ops", t.TID), t.UserOps)
			emit(fmt.Sprintf("thread%d.user_cycles", t.TID), t.UserCycles)
		}
		emit("pause.count", p.PauseHist.Count())
		emit("pause.cycles", p.PauseHist.Sum())
		emit("pause.max", p.PauseHist.Max())
		emit("pause.p50", p.PauseHist.Quantile(0.50))
		emit("pause.p95", p.PauseHist.Quantile(0.95))
		emit("pause.p99", p.PauseHist.Quantile(0.99))
		var causes [persist.NumCauses]uint64
		for _, ep := range p.EpochPauses {
			for c, v := range ep.Causes {
				causes[c] += v
			}
		}
		for c, v := range causes {
			emit("pause."+persist.Cause(c).String(), v)
		}
	})
}

// routeStore dispatches a store to the mechanism owning its segment,
// including inter-thread stack writes (a thread storing into another
// thread's stack range reaches that thread's mechanism). It returns the
// stall the owning mechanism imposes on the store pipeline.
func (p *Process) routeStore(core *machine.Core, vaddr, paddr uint64, size int) sim.Time {
	if vaddr >= heapBase && vaddr < heapBase+p.Cfg.HeapSize {
		if p.heapMech != nil {
			return p.heapMech.OnStore(core, vaddr, paddr, size)
		}
		return 0
	}
	for _, t := range p.Threads {
		if vaddr >= t.StackSeg.Lo && vaddr < t.StackSeg.Hi {
			return t.mech.OnStore(core, vaddr, paddr, size)
		}
	}
	return 0
}

func (p *Process) heapScheduleIn(core *machine.Core, done func()) {
	if p.heapMech == nil {
		done()
		return
	}
	p.heapMech.OnScheduleIn(core, done)
}

func (p *Process) heapScheduleOut(core *machine.Core, done func()) {
	if p.heapMech == nil {
		done()
		return
	}
	p.heapMech.OnScheduleOut(core, done)
}

// Header layout (one NVM page per process):
//
//	0    ckpt seq (committed)
//	8    thread count
//	16   stack reserve
//	24   heap size
//	32   heap image base | 0
//	40   heap meta base
//	48   heap meta size
//	64+  per thread (64 bytes): stack image, stack meta, meta size, reg area
func (p *Process) writeHeader() {
	st := p.kern.Mach.Storage
	buf := make([]byte, mem.PageSize)
	putU64(buf, 0, p.ckptSeq)
	putU64(buf, 8, uint64(len(p.Threads)))
	putU64(buf, 16, p.Cfg.StackReserve)
	putU64(buf, 24, p.Cfg.HeapSize)
	putU64(buf, 32, p.HeapSeg.ImageBase)
	putU64(buf, 40, p.HeapSeg.MetaBase)
	putU64(buf, 48, p.HeapSeg.MetaSize)
	for i, t := range p.Threads {
		off := 64 + i*64
		putU64(buf, off, t.StackSeg.ImageBase)
		putU64(buf, off+8, t.StackSeg.MetaBase)
		putU64(buf, off+16, t.StackSeg.MetaSize)
		putU64(buf, off+24, t.regArea)
	}
	st.Write(p.headerAddr, buf)
	p.kern.Mach.PersistNVM(p.headerAddr, mem.PageSize)
}

// Done reports whether all threads have finished.
func (p *Process) Done() bool {
	for _, t := range p.Threads {
		if t.state != threadDone {
			return false
		}
	}
	return true
}

// StackMechName returns the name of the stack persistence mechanism
// (thread 0's; all threads share a factory). Snapshot fingerprints use
// it to verify a resume boots the same mechanism the save ran.
func (p *Process) StackMechName() string {
	if len(p.Threads) == 0 {
		return ""
	}
	return p.Threads[0].mech.Name()
}

// HeapMechName returns the heap persistence mechanism's name, or "".
func (p *Process) HeapMechName() string {
	if p.heapMech == nil {
		return ""
	}
	return p.heapMech.Name()
}

// StopCheckpoints cancels the periodic checkpoint ticker.
func (p *Process) StopCheckpoints() {
	if p.ckptTicker != nil {
		p.ckptTicker.Stop()
		p.ckptTicker = nil
	}
}

// Shutdown stops tickers owned by the process (checkpoint ticker and any
// mechanism background threads), used when a run ends.
func (p *Process) Shutdown() {
	p.StopCheckpoints()
	type detacher interface{ Detach() }
	if d, ok := p.heapMech.(detacher); ok {
		d.Detach()
	}
	for _, t := range p.Threads {
		if d, ok := t.mech.(detacher); ok {
			d.Detach()
		}
		t.Prog.Close()
	}
}

// UserIPC aggregates user-mode instructions-per-cycle across threads.
func (p *Process) UserIPC() float64 {
	var ops, cycles uint64
	for _, t := range p.Threads {
		ops += t.UserOps
		cycles += t.UserCycles
	}
	if cycles == 0 {
		return 0
	}
	return float64(ops) / float64(cycles)
}
