package stats

import (
	"strings"
	"testing"
)

func TestCountersBasic(t *testing.T) {
	c := NewCounters()
	c.Inc("a")
	c.Add("b", 10)
	c.Inc("a")
	if c.Get("a") != 2 {
		t.Fatalf("a = %d, want 2", c.Get("a"))
	}
	if c.Get("b") != 10 {
		t.Fatalf("b = %d, want 10", c.Get("b"))
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter should read zero")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestCountersResetKeepsOrder(t *testing.T) {
	c := NewCounters()
	c.Inc("x")
	c.Inc("y")
	c.Reset()
	if c.Get("x") != 0 || c.Get("y") != 0 {
		t.Fatal("reset did not zero counters")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "x" {
		t.Fatalf("order lost after reset: %v", names)
	}
}

func TestCountersSnapshotIsCopy(t *testing.T) {
	c := NewCounters()
	c.Add("a", 5)
	snap := c.Snapshot()
	c.Add("a", 5)
	if snap["a"] != 5 {
		t.Fatal("snapshot mutated by later Add")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 12345.0)
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	if !strings.Contains(out, "1.5000") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	if len(tb.rows) != 2 {
		t.Fatalf("NumRows = %d", len(tb.rows))
	}
}
