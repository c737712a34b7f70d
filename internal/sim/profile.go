package sim

// Host-side event-owner profiling. When enabled, the dispatch loop counts
// how many dispatched events each component owned. This is pure integer
// bookkeeping on the deterministic event stream, so the counts are
// exactly reproducible (and exact-checked by prosper-bench, like
// sim_cycles). Host time per component is measured from outside the
// engine, with real clocks per layer, not apportioned by event count.
//
// Profiling is disabled by default. The off path is a single nil check
// in Step — zero allocations, and (when, seq) dispatch order is
// identical either way (pinned by TestProfilingPreservesOrder and the
// engine allocation tests).

// Profile accumulates per-component dispatch counts for one Engine. It
// is owned by exactly one engine and is not safe for concurrent use (the
// engine is single-threaded; read results after the run or between Step
// calls).
type Profile struct {
	counts [NumComponents]uint64
}

// ProfileSnapshot is a copy of a Profile's per-component event counts,
// deterministic for a given binary, suite, and seed.
type ProfileSnapshot struct {
	Counts [NumComponents]uint64
}

// EnableProfiling attaches a fresh Profile to the engine and returns it.
// Enable before the first Step so the per-component counts sum to
// Fired(). The clock argument is ignored: the profile records event
// counts only. It stays in the signature because existing callers pass
// nil.
func (e *Engine) EnableProfiling(clock func() int64) *Profile {
	p := &Profile{}
	e.prof = p
	return p
}

// record attributes one dispatched event to its owning component.
func (p *Profile) record(c Component) { p.counts[c]++ }

// Snapshot returns a copy of the per-component event counts.
func (p *Profile) Snapshot() ProfileSnapshot {
	return ProfileSnapshot{Counts: p.counts}
}
