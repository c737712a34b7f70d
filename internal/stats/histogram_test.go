package stats

import (
	"testing"
)

// TestHistogramBucketEdges pins the log2 bucketing rule: bucket 0 holds
// exactly v=0, bucket i>0 holds [2^(i-1), 2^i - 1].
func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21}, {1<<21 - 1, 21},
		{^uint64(0), 64},
	}
	for _, tc := range cases {
		h := NewHistogram()
		h.Observe(tc.v)
		if got := h.buckets[tc.bucket]; got != 1 {
			t.Errorf("Observe(%d): bucket %d = %d, want 1", tc.v, tc.bucket, got)
		}
		// The quantile of a single sample is its bucket's upper edge
		// clamped to the observed max, i.e. the sample itself.
		if got := h.Quantile(0.5); got != tc.v {
			t.Errorf("Observe(%d): Quantile(0.5) = %d, want %d", tc.v, got, tc.v)
		}
		if h.Min() != tc.v || h.Max() != tc.v || h.Sum() != tc.v || h.Count() != 1 {
			t.Errorf("Observe(%d): min/max/sum/count = %d/%d/%d/%d",
				tc.v, h.Min(), h.Max(), h.Sum(), h.Count())
		}
	}
}

func TestBucketUpper(t *testing.T) {
	if BucketUpper(0) != 0 || BucketUpper(-1) != 0 {
		t.Fatalf("BucketUpper(<=0) must be 0")
	}
	if BucketUpper(1) != 1 || BucketUpper(3) != 7 || BucketUpper(10) != 1023 {
		t.Fatalf("BucketUpper small edges wrong: %d %d %d",
			BucketUpper(1), BucketUpper(3), BucketUpper(10))
	}
	if BucketUpper(64) != ^uint64(0) || BucketUpper(99) != ^uint64(0) {
		t.Fatalf("BucketUpper(>=64) must saturate")
	}
}

// TestHistogramZeroSamples: every query on an empty (or nil) histogram
// returns zero rather than panicking or yielding NaN.
func TestHistogramZeroSamples(t *testing.T) {
	for _, h := range []*Histogram{NewHistogram(), nil} {
		if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
			t.Errorf("empty histogram scalars non-zero")
		}
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
			}
		}
	}
	// Observing on nil is a no-op, not a crash.
	var nilH *Histogram
	nilH.Observe(42)
	nilH.Reset()
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 100 samples of value 10 (bucket 4, upper edge 15) and one of 1000
	// (bucket 10, upper edge 1023).
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	h.Observe(1000)
	if got := h.Quantile(0.5); got != 15 {
		t.Errorf("p50 = %d, want 15", got)
	}
	if got := h.Quantile(0.95); got != 15 {
		t.Errorf("p95 = %d, want 15", got)
	}
	// The max's bucket edge (1023) exceeds the max itself; the clamp
	// keeps the reported quantile at the observed max.
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("p100 = %d, want 1000", got)
	}
	if got := h.Quantile(0); got != 15 {
		t.Errorf("p0 (rank 1) = %d, want 15", got)
	}
	if h.Min() != 10 || h.Max() != 1000 {
		t.Errorf("min/max = %d/%d, want 10/1000", h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got > h.Max() {
			t.Errorf("Quantile(%v) = %d exceeds Max %d", q, got, h.Max())
		}
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(7)
	h.Observe(9)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("Reset left state behind: %v", h)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	if h.String() != "(empty)\n" {
		t.Fatalf("empty String = %q", h.String())
	}
	h.Observe(0)
	h.Observe(5)
	s := h.String()
	if s == "" || s == "(empty)\n" {
		t.Fatalf("String after samples = %q", s)
	}
}

func TestHistogramsSet(t *testing.T) {
	hs := NewHistograms()
	a := hs.New("b_second") // registration order, not lexical order
	b := hs.New("a_first")
	if hs.New("b_second") != a {
		t.Fatalf("New must return the existing histogram")
	}
	a.Observe(4)
	b.Observe(8)
	names := hs.Names()
	if len(names) != 2 || names[0] != "b_second" || names[1] != "a_first" {
		t.Fatalf("Names = %v, want registration order", names)
	}
	if hs.Get("b_second").Count() != 1 || hs.Get("missing") != nil {
		t.Fatalf("Get misbehaved")
	}
	hs.Reset()
	if a.Count() != 0 || b.Count() != 0 {
		t.Fatalf("Reset did not clear members")
	}
	// Nil set: every method is a safe no-op.
	var nilHS *Histograms
	if nilHS.New("x") != nil || nilHS.Get("x") != nil || nilHS.Names() != nil {
		t.Fatalf("nil Histograms must act empty")
	}
	nilHS.Reset()
}

func TestCounterHandles(t *testing.T) {
	c := NewCounters()
	h := c.Handle("hits")
	h.Inc()
	h.Add(4)
	if got := c.Get("hits"); got != 5 {
		t.Fatalf("handle writes: Get = %d, want 5", got)
	}
	if h.Get() != 5 {
		t.Fatalf("Counter.Get = %d, want 5", h.Get())
	}
	// Handles survive later registrations growing the set.
	for i := 0; i < 100; i++ {
		c.Inc("other" + string(rune('a'+i%26)))
	}
	h.Inc()
	if got := c.Get("hits"); got != 6 {
		t.Fatalf("handle stale after growth: Get = %d, want 6", got)
	}
	// Mixed access: name-based ops see handle writes and vice versa.
	c.Add("hits", 10)
	if h.Get() != 16 {
		t.Fatalf("mixed access: handle Get = %d, want 16", h.Get())
	}
	c.Reset()
	if h.Get() != 0 {
		t.Fatalf("Reset must zero handle slots")
	}
	// Zero handle and nil set are safe no-ops.
	var zero Counter
	zero.Inc()
	zero.Add(3)
	if zero.Get() != 0 {
		t.Fatalf("zero handle must read 0")
	}
	var nilC *Counters
	nh := nilC.Handle("x")
	nh.Inc()
	if nh.Get() != 0 {
		t.Fatalf("nil Counters handle must be a no-op sink")
	}
}

// BenchmarkHistogramObserve measures the live hot path: a couple of
// integer ops, no allocation.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & 0xfff)
	}
}

// BenchmarkHistogramObserveNil measures the disabled fast path.
func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & 0xfff)
	}
}

// BenchmarkCounterHandle measures the precomputed-handle hot path that
// replaces per-access name concatenation.
func BenchmarkCounterHandle(b *testing.B) {
	c := NewCounters()
	h := c.Handle("cache.hits")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Inc()
	}
}

// BenchmarkCounterNameConcat measures the old pattern the handles
// replace: composing the key on every increment.
func BenchmarkCounterNameConcat(b *testing.B) {
	c := NewCounters()
	name := "cache"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc(name + ".hits")
	}
}
