package stats

// Add increments the counter by delta. No-op on the zero handle.
func (h Counter) Add(delta uint64) {
	if h.v != nil {
		*h.v += delta
	}
}

// Get returns the current value (zero for the zero handle).
func (h Counter) Get() uint64 {
	if h.v == nil {
		return 0
	}
	return *h.v
}

// Reset zeroes all counters but keeps their registration order.
func (c *Counters) Reset() {
	for _, p := range c.values {
		*p = 0
	}
}

// Snapshot returns a copy of the current values.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.values))
	for k, p := range c.values {
		out[k] = *p
	}
	return out
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	*h = Histogram{}
}

// Reset clears every histogram but keeps registrations.
func (hs *Histograms) Reset() {
	if hs == nil {
		return
	}
	for _, h := range hs.byName {
		h.Reset()
	}
}
