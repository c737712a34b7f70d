package persist

// AdaptiveConfig bounds the dynamic-granularity extension. The paper
// leaves OS-driven granularity adjustment as future work ("Granularity
// setting should be dynamically adjusted (from the OS layer) to reduce
// the overhead for workloads like Stream"); this implements the obvious
// scheme: escalate the tracking granularity when intervals are dense
// (most of the touched window is dirty, so fine bits only add metadata
// cost) and refine it when they are sparse.
type AdaptiveConfig struct {
	Prosper ProsperConfig
	// MinGran..MaxGran bound the granularity (defaults 8..4096; 4096
	// makes dense phases behave like the page-level Dirtybit scheme).
	MinGran uint64
	MaxGran uint64
	// DenseFrac and SparseFrac are the dirty-density thresholds that
	// trigger escalation and refinement (defaults 0.5 and 0.125).
	DenseFrac  float64
	SparseFrac float64
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	c.Prosper = c.Prosper.withDefaults()
	if c.MinGran == 0 {
		c.MinGran = 8
	}
	if c.MaxGran == 0 {
		c.MaxGran = 4096
	}
	if c.DenseFrac == 0 {
		c.DenseFrac = 0.5
	}
	if c.SparseFrac == 0 {
		c.SparseFrac = 0.125
	}
	return c
}

// AdaptiveProsper wraps Prosper with per-interval granularity feedback.
// The granularity change takes effect at the interval boundary, where the
// bitmap is clear, so intervals remain independent.
type AdaptiveProsper struct {
	Prosper
	acfg AdaptiveConfig
}

// NewAdaptiveProsper returns a factory for the adaptive mechanism.
func NewAdaptiveProsper(cfg AdaptiveConfig) Factory {
	cfg = cfg.withDefaults()
	return func() Mechanism {
		a := &AdaptiveProsper{acfg: cfg}
		a.cfg = cfg.Prosper
		// The bitmap must be sized for the finest granularity it may
		// ever use.
		a.cfg.Granularity = cfg.MinGran
		a.curCore = -1
		return a
	}
}

// Name implements Mechanism.
func (a *AdaptiveProsper) Name() string { return "prosper-adaptive" }

// Checkpoint implements Mechanism: run the normal Prosper checkpoint,
// then adjust granularity from the interval's dirty density.
func (a *AdaptiveProsper) Checkpoint(done func(Result)) {
	winLo, winHi, any := a.state.TouchedLo, a.state.TouchedHi, a.state.AnyTouched
	a.Prosper.Checkpoint(func(r Result) {
		a.adjust(r, winLo, winHi, any)
		done(r)
	})
}

func (a *AdaptiveProsper) adjust(r Result, winLo, winHi uint64, any bool) {
	if !any || winHi <= winLo {
		return
	}
	density := float64(r.BytesCopied) / float64(winHi-winLo)
	gran := a.state.MSRs.Gran
	switch {
	case density > a.acfg.DenseFrac && gran < a.acfg.MaxGran:
		gran *= 2
		a.Counters.Inc("adaptive.escalations")
	case density < a.acfg.SparseFrac && gran > a.acfg.MinGran:
		gran /= 2
		a.Counters.Inc("adaptive.refinements")
	default:
		return
	}
	// Reprogram the MSR state at the interval boundary (the bitmap is
	// clear here, so past and future intervals do not mix granularities).
	a.state.MSRs.Gran = gran
	if a.cur != nil {
		a.cur.SetGranularity(gran)
	}
}

var _ Mechanism = (*AdaptiveProsper)(nil)
