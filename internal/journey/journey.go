// Package journey records sampled end-to-end "journeys" of individual
// memory operations through the simulated stack: core issue → address
// translation (TLB / page walk) → store-buffer admission → cache lookup
// → MSHR wait → device queue → bank service → NVM persistence-domain
// drain. Aggregate histograms (PR 4) say a latency tail exists; a
// journey says why one specific access sat in it.
//
// Sampling is deterministic: each per-run Recorder counts every access
// the cores issue (the access sequence number) and samples those whose
// seeded hash of that sequence number selects them — never wall clock,
// never map order — so the set of sampled accesses, and every recorded
// cycle, is byte-identical for any host parallelism.
//
// A sampled access accumulates stage spans (enter/exit cycle plus a
// cause tag) as it traverses the components; the identity rides the
// sim.Done completion token (a packed uint32 slot), so the plumbing
// costs one predictable branch and zero allocations when tracing is off.
// When the journey finishes, the recorder computes a critical-path
// attribution: the interval [Start, End) is partitioned among stages by
// an innermost-span-wins sweep, so the per-stage cycle vector sums
// EXACTLY to the measured end-to-end latency — the same "every cycle is
// charged to exactly one cause" invariant persist.Attrib pins for
// checkpoint pauses (DESIGN.md §15).
package journey

import (
	"slices"

	"prosper/internal/sim"
)

// Stage identifies one architectural station an access can spend cycles
// in. Stage numbering is depth-ordered: deeper stages (closer to the
// memory device) have larger values, which is what breaks ties in the
// attribution sweep when two spans begin on the same cycle.
type Stage uint8

const (
	// StageIssue is the core-side residue: issue bookkeeping, segment
	// scheduling gaps, and any cycle no deeper span claims.
	StageIssue Stage = iota
	// StageTLB covers address translation beyond a TLB hit: hardware
	// page walks, dirty-bit-setting walks, and page-fault handling.
	StageTLB
	// StageStoreBuf is time a store waits for a store-buffer credit.
	StageStoreBuf
	// StageHook is a persistence store-hook stall (tracker update, SSP
	// shadow remap) charged to the store before it may issue.
	StageHook
	// StageL1, StageL2, StageL3 are the cache levels: hit latency, or
	// the level's residual share of a miss (fetch issue + fill).
	StageL1
	StageL2
	StageL3
	// StageMSHR is time blocked on MSHR exhaustion before a level could
	// even start the miss.
	StageMSHR
	// StageDevQueue is device-side queueing: admission-buffer wait plus
	// bank-conflict and channel-bus wait before service begins.
	StageDevQueue
	// StageDevService is bank service time at the device (DRAM, or NVM
	// reads, which do not cross the persistence domain).
	StageDevService
	// StageDrain is NVM write service: the cycles between the write
	// being admitted to the device and the persistence domain marking
	// its line durable.
	StageDrain

	NumStages int = iota
)

var stageNames = [NumStages]string{
	"issue", "tlb", "store_buffer", "store_hook",
	"l1", "l2", "l3", "mshr", "dev_queue", "dev_service", "nvm_drain",
}

// String returns the stable journal name of the stage.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageFromName returns the stage with the given journal name.
func StageFromName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Cause tags why a span happened (or why it was slow).
type Cause uint8

const (
	CauseNone Cause = iota
	CauseHit
	CauseMiss
	CauseCoalesced // rode an in-flight fetch of the same line
	CauseMSHRFull
	CauseBufferStall // device admission buffer full
	CauseBankConflict
	CauseBusWait
	CauseWalk     // TLB-miss page walk
	CauseDirtySet // dirty-bit-setting walk on first store to a clean page
	CauseFault    // page fault through the kernel handler
	CauseStoreHook
	CauseSBFull // store buffer full
	CauseDRAM
	CauseNVM
	CauseNVMDrain

	NumCauses int = iota
)

var causeNames = [NumCauses]string{
	"", "hit", "miss", "coalesced", "mshr_full", "buffer_stall",
	"bank_conflict", "bus_wait", "walk", "dirty_set", "fault",
	"store_hook", "sb_full", "dram", "nvm", "nvm_drain",
}

// String returns the stable journal name of the cause ("" for none).
func (c Cause) String() string {
	if int(c) < NumCauses {
		return causeNames[c]
	}
	return "unknown"
}

// CauseFromName returns the cause with the given journal name.
func CauseFromName(name string) (Cause, bool) {
	for i, n := range causeNames {
		if n == name {
			return Cause(i), true
		}
	}
	return 0, false
}

// Span is one recorded stage interval of a journey, in engine cycles.
type Span struct {
	Stage Stage
	Cause Cause
	Enter sim.Time
	Exit  sim.Time
}

// Journey is one sampled access's full record. Spans appear in
// recording order (the deterministic order components observed the
// access); Vec is the critical-path attribution computed at finish.
type Journey struct {
	JID   uint32
	Seq   uint64 // access sequence number within the run (sampling key)
	Write bool
	VAddr uint64
	Size  int

	Start sim.Time
	End   sim.Time
	Spans []Span

	// Vec charges every cycle of [Start, End) to exactly one stage:
	// sum(Vec) == End-Start, always (see attribute).
	Vec [NumStages]sim.Time

	pending  int // line segments still outstanding
	finished bool
}

// Latency returns the measured end-to-end cycles of the journey.
func (j *Journey) Latency() sim.Time { return j.End - j.Start }

// Finished reports whether every segment of the access completed before
// the run ended.
func (j *Journey) Finished() bool { return j.finished }

// attribute partitions [Start, End) among the recorded spans with an
// innermost-span-wins sweep: for every elementary interval between span
// boundaries, the covering span that entered last claims it (ties break
// to the deeper stage, then to the later-recorded span); intervals no
// span covers are charged to StageIssue. The partition is exhaustive
// and disjoint by construction, so sum(Vec) == End-Start exactly.
func (j *Journey) attribute() {
	for i := range j.Vec {
		j.Vec[i] = 0
	}
	if j.End <= j.Start {
		return
	}
	cuts := make([]sim.Time, 0, 2*len(j.Spans)+2) //prosperlint:ignore hotalloc sampled path: attribute runs once per sampled journey at finish, not per access
	cuts = append(cuts, j.Start, j.End)           //prosperlint:ignore hotalloc sampled path: attribute runs once per sampled journey at finish, not per access
	for _, sp := range j.Spans {
		if sp.Enter > j.Start && sp.Enter < j.End {
			cuts = append(cuts, sp.Enter) //prosperlint:ignore hotalloc sampled path: attribute runs once per sampled journey at finish, not per access
		}
		if sp.Exit > j.Start && sp.Exit < j.End {
			cuts = append(cuts, sp.Exit) //prosperlint:ignore hotalloc sampled path: attribute runs once per sampled journey at finish, not per access
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	for ci := 0; ci+1 < len(cuts); ci++ {
		a, b := cuts[ci], cuts[ci+1]
		stage := StageIssue
		var bestEnter sim.Time = -1
		var bestStage Stage
		found := false
		for si := range j.Spans {
			sp := &j.Spans[si]
			if sp.Enter > a || sp.Exit < b {
				continue
			}
			if !found || sp.Enter > bestEnter ||
				(sp.Enter == bestEnter && sp.Stage >= bestStage) {
				found = true
				bestEnter = sp.Enter
				bestStage = sp.Stage
			}
		}
		if found {
			stage = bestStage
		}
		j.Vec[stage] += b - a
	}
}

// Recorder samples and records one run's journeys. It is single-run
// local, touched only from that run's single-threaded event engine —
// exactly the telemetry.Tracer contract — which is what keeps the
// journal byte-identical at any worker count. All methods are nil-safe:
// a nil *Recorder is "tracing off" and costs one branch per call site.
type Recorder struct {
	name string
	rate uint64 // sample 1-in-rate accesses; 0 disables
	seed uint64

	seq      uint64 // accesses observed (loads + stores across all cores)
	journeys []*Journey
	open     int // journeys started but not yet finished
}

// NewRecorder builds a standalone recorder (tests and single runs). A
// rate of 0 returns nil: tracing disabled.
func NewRecorder(name string, rate, seed uint64) *Recorder {
	if rate == 0 {
		return nil
	}
	return &Recorder{name: name, rate: rate, seed: seed}
}

// splitmix64 is the SplitMix64 finalizer: a seeded, stateless hash of
// the access sequence number. Sampling with it spreads samples evenly
// without any periodic-aliasing risk a plain modulo would have.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Start observes one core-issued access at cycle now and returns its
// journey ID: 0 for the (vastly common) unsampled case, or a fresh
// nonzero ID whose journey will collect segs segment completions.
func (r *Recorder) Start(now sim.Time, write bool, vaddr uint64, size, segs int) uint32 {
	if r == nil {
		return 0
	}
	r.seq++
	if splitmix64(r.seq^r.seed)%r.rate != 0 {
		return 0
	}
	j := &Journey{ //prosperlint:ignore hotalloc sampled path: the unsampled fast path returns before this (pinned by AllocsPerRun)
		JID:     uint32(len(r.journeys) + 1),
		Seq:     r.seq,
		Write:   write,
		VAddr:   vaddr,
		Size:    size,
		Start:   now,
		End:     now,
		pending: segs,
	}
	r.journeys = append(r.journeys, j) //prosperlint:ignore hotalloc sampled path: the unsampled fast path returns before this (pinned by AllocsPerRun)
	r.open++
	return j.JID
}

// get returns the journey for jid, or nil when jid is 0, unknown, or
// already finished (late spans from decoupled completions are dropped).
func (r *Recorder) get(jid uint32) *Journey {
	if r == nil || jid == 0 || int(jid) > len(r.journeys) {
		return nil
	}
	j := r.journeys[jid-1]
	if j.finished {
		return nil
	}
	return j
}

// Span records one stage interval for the journey. Components may
// record spans whose exit lies in the (deterministic) future — a hit
// completing after its level's latency — and overlapping spans are
// expected: the attribution sweep resolves them at finish.
func (r *Recorder) Span(jid uint32, stage Stage, cause Cause, enter, exit sim.Time) {
	j := r.get(jid)
	if j == nil {
		return
	}
	if exit < enter {
		exit = enter
	}
	j.Spans = append(j.Spans, Span{Stage: stage, Cause: cause, Enter: enter, Exit: exit}) //prosperlint:ignore hotalloc sampled path: get() returns nil for unsampled accesses before this append
}

// SegDone retires one line segment of the journey at cycle now; the
// last segment finishes the journey and computes its attribution.
func (r *Recorder) SegDone(jid uint32, now sim.Time) {
	j := r.get(jid)
	if j == nil {
		return
	}
	j.pending--
	if j.pending > 0 {
		return
	}
	j.End = now
	for i := range j.Spans {
		sp := &j.Spans[i]
		if sp.Exit > j.End {
			j.End = sp.Exit
		}
		if sp.Enter < j.Start {
			// Defensive clamp: no component should record before issue.
			sp.Enter = j.Start
		}
	}
	j.finished = true
	r.open--
	j.attribute()
}

// Journeys returns every journey started so far, in JID order,
// including unfinished ones (callers filter with Finished).
func (r *Recorder) Journeys() []*Journey {
	if r == nil {
		return nil
	}
	return r.journeys
}

// Counts returns (accesses observed, journeys sampled, finished).
func (r *Recorder) Counts() (accesses, sampled, finished uint64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.seq, uint64(len(r.journeys)), uint64(len(r.journeys) - r.open)
}
