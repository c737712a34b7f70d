package stats

import (
	"fmt"
	"strings"
)

// Chart renders a labelled series of values as a horizontal ASCII bar
// chart — the textual stand-in for the paper's figures when a table of
// numbers is hard to eyeball.
type Chart struct {
	Title string
	Unit  string
	rows  []chartRow
	width int
}

type chartRow struct {
	label string
	value float64
}

// NewChart builds a chart with the given title and value unit.
func NewChart(title, unit string) *Chart {
	return &Chart{Title: title, Unit: unit, width: 48}
}

// Add appends one bar. Negative values are clamped to zero.
func (c *Chart) Add(label string, value float64) {
	if value < 0 {
		value = 0
	}
	c.rows = append(c.rows, chartRow{label: label, value: value})
}

// NumRows returns the number of bars added.
func (c *Chart) NumRows() int { return len(c.rows) }

// String renders the chart. Bars scale to the maximum value; each row
// shows the label, the bar, and the numeric value.
func (c *Chart) String() string {
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	labelW, maxV := 0, 0.0
	for _, r := range c.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
		if r.value > maxV {
			maxV = r.value
		}
	}
	for _, r := range c.rows {
		bar := 0
		if maxV > 0 {
			bar = int(r.value / maxV * float64(c.width))
		}
		if r.value > 0 && bar == 0 {
			bar = 1 // visible sliver for tiny non-zero values
		}
		fmt.Fprintf(&b, "%-*s |%s%s %s %s\n",
			labelW, r.label,
			strings.Repeat("#", bar),
			strings.Repeat(" ", c.width-bar),
			formatFloat(r.value), c.Unit)
	}
	return b.String()
}

// ChartFromTable builds a chart from two columns of a Table: labelCols
// are joined with "/" to form each bar's label; valueCol supplies the
// value (rows whose cell does not parse as a number are skipped).
func ChartFromTable(t *Table, title, unit string, valueCol string, labelCols ...string) *Chart {
	ch := NewChart(title, unit)
	colIdx := map[string]int{}
	for i, h := range t.Headers {
		colIdx[h] = i
	}
	vi, ok := colIdx[valueCol]
	if !ok {
		return ch
	}
	for _, row := range t.rows {
		if vi >= len(row) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(row[vi], "%g", &v); err != nil {
			continue
		}
		parts := make([]string, 0, len(labelCols))
		for _, lc := range labelCols {
			if li, ok := colIdx[lc]; ok && li < len(row) {
				parts = append(parts, row[li])
			}
		}
		ch.Add(strings.Join(parts, "/"), v)
	}
	return ch
}
