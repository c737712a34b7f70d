// Package stats provides the counters, distributions, and table rendering
// used by every simulated component and by the experiment harnesses.
package stats

import (
	"fmt"
	"strings"
)

// Counters is a named set of monotonically increasing counters. The zero
// value is not ready; use NewCounters.
//
// Each counter lives in its own heap slot, so a Counter handle obtained
// with Handle stays valid as the set grows. Hot paths should hold a
// handle instead of calling Add/Inc with a composed name: the handle
// variants are a single pointer dereference with no map lookup and no
// string concatenation.
type Counters struct {
	values map[string]*uint64
	order  []string
}

// Counter is a cheap handle to one counter slot inside a Counters set.
// The zero value is a valid no-op sink, which lets components keep
// unconditional Inc/Add calls even when metrics are disabled.
type Counter struct {
	v *uint64
}

// Inc increments the counter by one. No-op on the zero handle.
func (h Counter) Inc() {
	if h.v != nil {
		*h.v++
	}
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{values: make(map[string]*uint64)}
}

// slot returns the value cell for name, creating it on first use.
func (c *Counters) slot(name string) *uint64 {
	p, ok := c.values[name]
	if !ok {
		p = new(uint64) //prosperlint:ignore hotalloc first-use only: counter cells allocate once per distinct key
		c.values[name] = p
		c.order = append(c.order, name) //prosperlint:ignore hotalloc first-use only: counter cells allocate once per distinct key
	}
	return p
}

// Handle registers name (if new) and returns a stable handle to its
// slot. Handles remain valid for the lifetime of the set.
func (c *Counters) Handle(name string) Counter {
	if c == nil {
		return Counter{}
	}
	return Counter{v: c.slot(name)}
}

// Add increments the named counter by delta, creating it on first use.
func (c *Counters) Add(name string, delta uint64) { *c.slot(name) += delta }

// Inc increments the named counter by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Get returns the value of the named counter (zero if never touched).
func (c *Counters) Get(name string) uint64 {
	if p, ok := c.values[name]; ok {
		return *p
	}
	return 0
}

// Names returns counter names in first-use order.
func (c *Counters) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// String renders the counters one per line in registration order.
func (c *Counters) String() string {
	var b strings.Builder
	for _, name := range c.order {
		fmt.Fprintf(&b, "%-40s %d\n", name, *c.values[name])
	}
	return b.String()
}
