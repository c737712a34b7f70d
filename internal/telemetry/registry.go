package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"prosper/internal/stats"
)

// Registry is a hierarchical metrics namespace: it adopts existing
// per-component stats.Counters (and computed gauges via RegisterFunc)
// under stable dotted prefixes, preserving registration order between
// groups and sorting names inside each counter group — exactly the
// ordering contract kernel.DumpStats has always printed.
//
// A Registry is built once at kernel boot and only read afterwards; it
// is not safe for concurrent mutation.
type Registry struct {
	groups []group
}

type group struct {
	prefix string
	c      *stats.Counters
	h      *stats.Histograms
	fn     func(emit func(name string, v uint64))
}

// histoScalars are the summary statistics expanded from every histogram,
// in the fixed order they are emitted under "<name>.<scalar>". All of
// them are integers so the serialized output stays byte-deterministic.
var histoScalars = []struct {
	suffix string
	value  func(h *stats.Histogram) uint64
}{
	{"count", (*stats.Histogram).Count},
	{"sum", (*stats.Histogram).Sum},
	{"min", (*stats.Histogram).Min},
	{"max", (*stats.Histogram).Max},
	{"p50", func(h *stats.Histogram) uint64 { return h.Quantile(0.50) }},
	{"p95", func(h *stats.Histogram) uint64 { return h.Quantile(0.95) }},
	{"p99", func(h *stats.Histogram) uint64 { return h.Quantile(0.99) }},
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adopts a counter set under the prefix; its counters appear as
// "prefix.<name>" in sorted name order. An empty prefix adopts the
// counters under their own (already-qualified) names. A nil counter set
// is ignored.
func (r *Registry) Register(prefix string, c *stats.Counters) {
	if c == nil {
		return
	}
	r.groups = append(r.groups, group{prefix: prefix, c: c})
}

// RegisterHistograms adopts a histogram set under the prefix. Each
// histogram expands to fixed integer summary scalars —
// "prefix.<name>.count/sum/min/max/p50/p95/p99" — in sorted histogram
// name order, so DumpStats stays byte-deterministic.
// A nil set is ignored.
func (r *Registry) RegisterHistograms(prefix string, h *stats.Histograms) {
	if h == nil {
		return
	}
	r.groups = append(r.groups, group{prefix: prefix, h: h})
}

// RegisterFunc adopts a computed group: fn is invoked at read time and
// emits (name, value) pairs in its own (stable) order, each prefixed
// with "prefix.". Used for per-process scalar stats that are not
// Counters (checkpoint counts, per-thread user cycles).
func (r *Registry) RegisterFunc(prefix string, fn func(emit func(name string, v uint64))) {
	if fn == nil {
		return
	}
	r.groups = append(r.groups, group{prefix: prefix, fn: fn})
}

// Each visits every metric as a fully-qualified dotted name, in the
// registry's stable order.
func (r *Registry) Each(emit func(name string, v uint64)) {
	for _, g := range r.groups {
		prefix := ""
		if g.prefix != "" {
			prefix = g.prefix + "."
		}
		switch {
		case g.c != nil:
			names := g.c.Names()
			sort.Strings(names)
			for _, n := range names {
				emit(prefix+n, g.c.Get(n))
			}
		case g.h != nil:
			names := g.h.Names()
			sort.Strings(names)
			for _, n := range names {
				h := g.h.Get(n)
				for _, s := range histoScalars {
					emit(prefix+n+"."+s.suffix, s.value(h))
				}
			}
		default:
			g.fn(func(n string, v uint64) { emit(prefix+n, v) })
		}
	}
}

// Snapshot captures every metric's current name and value, in Each
// order.
func (r *Registry) Snapshot() (names []string, values []uint64) {
	r.Each(func(n string, v uint64) {
		names = append(names, n)
		values = append(values, v)
	})
	return names, values
}

// WriteText renders "name value" lines in Each order — the DumpStats
// text format.
func (r *Registry) WriteText(w io.Writer) {
	bw := bufio.NewWriter(w)
	r.Each(func(n string, v uint64) {
		fmt.Fprintf(bw, "%s %d\n", n, v)
	})
	bw.Flush()
}
