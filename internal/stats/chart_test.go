package stats

import (
	"strings"
	"testing"
)

func TestChartRendersBarsProportionally(t *testing.T) {
	c := NewChart("Demo", "x")
	c.width = 10
	c.Add("big", 10)
	c.Add("half", 5)
	c.Add("zero", 0)
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + 3 bars
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], strings.Repeat("#", 10)) {
		t.Fatalf("big bar wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "#####") || strings.Contains(lines[2], "######") {
		t.Fatalf("half bar wrong: %q", lines[2])
	}
	if strings.Contains(lines[3], "#") {
		t.Fatalf("zero bar drawn: %q", lines[3])
	}
}

func TestChartTinyValueVisible(t *testing.T) {
	c := NewChart("", "")
	c.width = 20
	c.Add("huge", 1000)
	c.Add("tiny", 0.01)
	out := c.String()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "tiny") && !strings.Contains(line, "#") {
			t.Fatal("tiny non-zero value rendered invisible")
		}
	}
}

func TestChartNegativeClamped(t *testing.T) {
	c := NewChart("", "")
	c.Add("neg", -5)
	if len(c.rows) != 1 || strings.Contains(c.String(), "#") {
		t.Fatal("negative value not clamped")
	}
}

func TestChartFromTable(t *testing.T) {
	tb := NewTable("fig", "bench", "mech", "norm")
	tb.AddRow("a", "prosper", 1.5)
	tb.AddRow("a", "ssp", 3.0)
	tb.AddRow("a", "romulus", "n/a") // unparsable: skipped
	ch := ChartFromTable(tb, "Fig", "x", "norm", "bench", "mech")
	if len(ch.rows) != 2 {
		t.Fatalf("rows = %d", len(ch.rows))
	}
	out := ch.String()
	if !strings.Contains(out, "a/prosper") || !strings.Contains(out, "a/ssp") {
		t.Fatalf("labels missing:\n%s", out)
	}
}

func TestChartFromTableMissingColumn(t *testing.T) {
	tb := NewTable("fig", "x")
	tb.AddRow("v")
	ch := ChartFromTable(tb, "t", "", "nope", "x")
	if len(ch.rows) != 0 {
		t.Fatal("chart built from missing column")
	}
}
