package kernel

import (
	"fmt"
	"io"
)

// DumpStats writes every counter the simulated system maintains — kernel,
// cores, cache levels, memory devices, trackers, and per-process
// checkpoint statistics — in a stable order, the equivalent of gem5's
// stats.txt dump that the paper's artifact parses. The body is the
// metrics registry (telemetry.Registry) the kernel builds at boot; the
// trailing sim.* lines are the engine's own clock and event count.
func (k *Kernel) DumpStats(w io.Writer) {
	k.Metrics.WriteText(w)
	fmt.Fprintf(w, "sim.cycles %d\n", k.Eng.Now())
	fmt.Fprintf(w, "sim.events %d\n", k.Eng.Fired())
}
