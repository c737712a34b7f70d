package stats

import (
	"fmt"
	"math/bits"
	"strings"
)

// Histogram accumulates non-negative integer samples (cycle latencies,
// byte counts, occupancies) into power-of-two buckets. Bucket i holds
// samples v with bits.Len64(v) == i, i.e. bucket 0 holds exactly v=0 and
// bucket i>0 holds [2^(i-1), 2^i - 1]. All state is integral, so
// serialized output is deterministic across platforms, and recording is
// a couple of integer ops — cheap enough for per-access hot paths.
//
// All methods are safe on a nil receiver: Observe is a no-op and the
// queries return zeros, mirroring the nil-tracer fast path in telemetry.
type Histogram struct {
	buckets [65]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample. No-op on a nil histogram.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest sample, or zero when empty.
func (h *Histogram) Min() uint64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or zero when empty.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// BucketUpper returns the inclusive upper edge of bucket i: 0 for
// bucket 0, 2^i - 1 otherwise.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Quantile returns the upper edge of the bucket holding the q-th
// quantile (q in [0,1]) by nearest rank, clamped to the observed max,
// or zero when empty. Because edges quantize to 2^i - 1, the result is
// an upper bound on the true sample quantile that is exact for
// power-of-two-minus-one values; the clamp keeps every quantile within
// [min, max] (without it, a p50 landing in the max's bucket could
// report above the max itself).
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank: the smallest rank r (1-based) with r >= q*count.
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			if v := BucketUpper(i); v < h.max {
				return v
			}
			return h.max
		}
	}
	return h.max
}

// String renders the non-empty buckets one per line, for debugging.
func (h *Histogram) String() string {
	if h == nil || h.count == 0 {
		return "(empty)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d sum=%d min=%d max=%d\n", h.count, h.sum, h.min, h.max)
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo := uint64(0)
		if i > 0 {
			lo = BucketUpper(i-1) + 1
		}
		fmt.Fprintf(&b, "  [%d..%d] %d\n", lo, BucketUpper(i), n)
	}
	return b.String()
}

// Histograms is a named, ordered set of histograms, the distribution
// counterpart of Counters: components own one set, and the metrics
// registry serializes it deterministically in registration order.
type Histograms struct {
	byName map[string]*Histogram
	order  []string
}

// NewHistograms returns an empty histogram set.
func NewHistograms() *Histograms {
	return &Histograms{byName: make(map[string]*Histogram)}
}

// New registers (or returns the existing) histogram under name.
func (hs *Histograms) New(name string) *Histogram {
	if hs == nil {
		return nil
	}
	if h, ok := hs.byName[name]; ok {
		return h
	}
	h := NewHistogram()
	hs.byName[name] = h
	hs.order = append(hs.order, name)
	return h
}

// Get returns the named histogram, or nil if absent.
func (hs *Histograms) Get(name string) *Histogram {
	if hs == nil {
		return nil
	}
	return hs.byName[name]
}

// Names returns histogram names in registration order.
func (hs *Histograms) Names() []string {
	if hs == nil {
		return nil
	}
	out := make([]string, len(hs.order))
	copy(out, hs.order)
	return out
}
