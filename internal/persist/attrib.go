package persist

import (
	"prosper/internal/sim"
)

// Cause names one contributor to a checkpoint pause. The kernel begins
// an attribution epoch when it starts pausing a process; mechanisms
// switch the active cause as the critical path moves through their
// phases; the kernel ends the epoch at the commit point.
type Cause int

const (
	// CauseQuiesce is the wait for threads to reach an op boundary,
	// drain their store buffers, and park off-core.
	CauseQuiesce Cause = iota
	// CauseTrackerFlush is the Prosper lookup-table flush and the poll
	// for bitmap-traffic quiescence.
	CauseTrackerFlush
	// CauseInspectClear is dirty-metadata inspection and clearing:
	// bitmap scan (Prosper) or PTE walk (Dirtybit/WriteProtect).
	CauseInspectClear
	// CauseCopy is payload movement: register/stack gathers into the
	// temp buffer, or log replay (Romulus).
	CauseCopy
	// CauseNVMDrain is waiting on NVM write traffic to complete (temp
	// blob burst, SSP clwb sweep).
	CauseNVMDrain
	// CauseCommitFence is the final ordered commit-record write.
	CauseCommitFence
	// NumCauses bounds per-cause arrays.
	NumCauses
)

// String returns the stable snake_case name used in metrics and tables.
func (c Cause) String() string {
	switch c {
	case CauseQuiesce:
		return "quiesce"
	case CauseTrackerFlush:
		return "tracker_flush"
	case CauseInspectClear:
		return "inspect_clear"
	case CauseCopy:
		return "copy"
	case CauseNVMDrain:
		return "nvm_drain"
	case CauseCommitFence:
		return "commit_fence"
	default:
		return "unknown"
	}
}

// CauseNames returns every cause name in Cause order.
func CauseNames() []string {
	out := make([]string, NumCauses)
	for c := Cause(0); c < NumCauses; c++ {
		out[c] = c.String()
	}
	return out
}

// Attrib is a per-process cause register for checkpoint-stall
// attribution. Between Begin and End exactly one cause is active at any
// sim time, and every elapsed cycle is charged to the cause that was
// active — so the per-cause cycles sum *exactly* to the measured pause,
// by construction. This is critical-path attribution: phases that
// overlap in the memory system (e.g. register saves racing the stack
// copy) are charged to whichever cause the checkpoint sequencer was
// waiting on.
//
// All methods are nil-safe, and Switch is a no-op outside an epoch, so
// mechanism code can call it unconditionally (ordinary context-switch
// flushes happen outside Begin/End and record nothing).
type Attrib struct {
	eng    *sim.Engine
	active bool
	cur    Cause
	since  sim.Time
	cycles [NumCauses]uint64
}

// NewAttrib returns an attribution register on the given engine.
func NewAttrib(eng *sim.Engine) *Attrib { return &Attrib{eng: eng} }

// Begin opens an attribution epoch with the given initial cause,
// discarding any per-cause state from the previous epoch.
func (a *Attrib) Begin(c Cause) {
	if a == nil {
		return
	}
	a.cycles = [NumCauses]uint64{}
	a.active = true
	a.cur = c
	a.since = a.eng.Now()
}

// Switch charges the cycles since the last transition to the outgoing
// cause and makes c the active cause. No-op outside an epoch.
func (a *Attrib) Switch(c Cause) {
	if a == nil || !a.active {
		return
	}
	now := a.eng.Now()
	a.cycles[a.cur] += uint64(now - a.since)
	a.cur = c
	a.since = now
}

// End closes the epoch, charging the tail to the active cause, and
// returns the per-cause cycle totals.
func (a *Attrib) End() [NumCauses]uint64 {
	if a == nil {
		return [NumCauses]uint64{}
	}
	if a.active {
		a.cycles[a.cur] += uint64(a.eng.Now() - a.since)
		a.active = false
	}
	return a.cycles
}
