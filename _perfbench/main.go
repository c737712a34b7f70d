// Command perfbench is the repository benchmark: it runs one named
// workload closed-loop for a fixed host time and prints host-time
// end-to-end metrics (--trace 0) or per-layer metrics from a separately
// traced run (--trace 1), checking the simulated outputs as it goes. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root; README.md describes the
// workloads, the metrics and the load model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"prosper/internal/crash"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome; the last stdout line is its JSON form.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"app-steady", "ckpt-dense", "crash-sweep"}

func main() {
	name := flag.String("workload", "", "workload: app-steady, ckpt-dense, crash-sweep, or all to run the three in turn")
	seed := flag.Uint64("seed", pinnedSeed, "workload seed (1 is also checked against pinned.json)")
	seconds := flag.Int("seconds", 20, "host seconds to measure for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	steady := flag.Int("steady", 0, "steadiness mode: run the workload this many times, one seed each from --seed, and print each metric's spread")
	pin := flag.String("pin", "", "write the pinned-seed outputs of every workload to this file and exit")
	flag.Parse()
	// One simulation runs at a time, and the collector shares its core:
	// on a small shared host a second busy core adds more noise than
	// speed.
	runtime.GOMAXPROCS(1)

	if *pin != "" {
		if err := writePinned(*pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := loadPinned(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	known := slices.Contains(workloads, *name) || (*name == "all" && *steady == 0)
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v (or all, without --steady), --seconds >= 1, --trace 0|1 and a non-zero --seed\n", workloads)
		os.Exit(2)
	}
	if *steady > 0 {
		if err := runSteady(*name, *seed, *seconds, *traced, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	names := []string{*name}
	if *name == "all" {
		names = workloads
	}
	for _, n := range names {
		if len(names) > 1 {
			fmt.Println("== " + n)
		}
		if err := runOne(n, *seed, *seconds, *traced); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// runOne measures one workload and prints its metrics as text, then as
// the JSON result line.
func runOne(name string, seed uint64, seconds, traced int) error {
	var rep report
	var t tally
	budget := time.Duration(seconds) * time.Second
	if traced == 1 {
		rep.Metrics = runTraced(name, seed, budget, &t)
	} else {
		rep.Metrics = runWorkload(name, seed, budget, &t)
	}
	rep.Attempted, rep.Failed, rep.Correct = t.attempted, t.failed, t.failed == 0
	for _, n := range t.notes {
		fmt.Println("FAILED:", n)
	}
	fmt.Printf("%-28s %14.6f %s\n", "failed_frac", float64(t.failed)/float64(t.attempted), "ratio")
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-28s %14.6f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// inputsPerRun is how many input seeds one simulation run cycles
// through: a workload's host cost depends on its inputs, so a single
// input per run would make the run's figures depend on the seed more
// than on the host.
const inputsPerRun = 8

// runWorkload measures one workload untraced: a pinned-seed pass that
// warms the host and checks pinned.json, then passes until the budget is
// spent. Simulation pass k simulates the input seed
// seed·2^16 + k mod inputsPerRun and must reproduce the outputs of the
// first pass with that input. Crash pass k samples its crash points with
// seed·2^16 + k: where the points land sets a sweep's cost, so every pass
// draws new ones, and every point must recover without a violation.
func runWorkload(name string, seed uint64, budget time.Duration, t *tally) map[string]metric {
	var passes []pass
	start := time.Now()
	if name == "crash-sweep" {
		_, warm := crashPass(crashConfigs(pinnedSeed, crash.Mechanisms()), t)
		checkSweeps(t, warm, pinned.Crash)
		for k := 0; k == 0 || time.Since(start) < budget; k++ {
			p, _ := crashPass(crashConfigs(int64(seed<<16)+int64(k), crash.Mechanisms()), t)
			passes = append(passes, p)
		}
		return endToEnd(name, passes)
	}
	input := func(k int) uint64 { return seed<<16 + uint64(k%inputsPerRun) }
	specs := simSpecs(name)
	_, warm := simPass(specs, pinnedSeed, t)
	checkSims(t, "pinned", specs, warm, pinned.Sim[name])
	refs := map[uint64]map[string]simOut{}
	for k := 0; k == 0 || time.Since(start) < budget; k++ {
		p, runs := simPass(specs, input(k), t)
		if refs[input(k)] == nil {
			refs[input(k)] = outMap(specs, runs)
		}
		checkSims(t, "pass", specs, runs, refs[input(k)])
		passes = append(passes, p)
	}
	return endToEnd(name, passes)
}

func simSpecs(name string) []simSpec {
	if name == "app-steady" {
		return appSteady()
	}
	return ckptDense()
}

func outMap(specs []simSpec, runs []*simRun) map[string]simOut {
	m := make(map[string]simOut)
	for i, r := range runs {
		if r != nil {
			m[specs[i].label] = r.out
		}
	}
	return m
}

// checkSims counts one attempt per completed run, failed when its
// outputs differ from want's entry for the spec.
func checkSims(t *tally, what string, specs []simSpec, runs []*simRun, want map[string]simOut) {
	for i, r := range runs {
		if r == nil {
			continue // already counted as failed
		}
		w, ok := want[specs[i].label]
		t.check(ok && w == r.out, "%s %s: outputs %+v, want %+v", what, specs[i].label, r.out, w)
	}
}

// checkSweeps counts one attempt per mechanism, failed when its verdicts
// differ from the pinned ones.
func checkSweeps(t *tally, got, want map[string]sweepOut) {
	for _, m := range crash.Mechanisms() {
		g, ok := got[m]
		if !ok {
			continue // the sweep errored: already counted
		}
		w, ok := want[m]
		t.check(ok && w == g, "pinned sweep %s: verdicts %+v, want %+v", m, g, w)
	}
}

// endToEnd reduces the passes to the end-to-end metrics: medians over
// passes, and percentiles over the closed-loop units of every pass. The
// rates divide by the sum of each piece's median over passes, which a
// burst of host noise shorter than a pass cannot move.
func endToEnd(name string, passes []pass) map[string]metric {
	var cycles, points, setup, wall, alloc, peak []float64
	var units []int64
	for _, p := range passes {
		cycles = append(cycles, float64(p.cycles))
		points = append(points, float64(p.points))
		setup = append(setup, float64(p.setupNS)/1e9)
		wall = append(wall, float64(p.wallNS)/1e9)
		alloc = append(alloc, float64(p.allocBytes)/1e6)
		peak = append(peak, float64(p.peakHeap)/1e6)
		for _, ns := range p.workNS {
			units = append(units, ns/p.perPiece)
		}
	}
	var workNS float64
	for i := range passes[0].workNS {
		var piece []float64
		for _, p := range passes {
			if len(p.workNS) == len(passes[0].workNS) {
				piece = append(piece, float64(p.workNS[i]))
			}
		}
		workNS += median(piece)
	}
	perNS := 0.0 // stays 0 when every piece failed
	if workNS > 0 {
		perNS = 1 / workNS
	}
	fmt.Printf("%-28s %14d %s\n", "passes", len(passes), "count")
	fmt.Printf("%-28s %14d %s (%d beyond p90)\n", "interval_samples", len(units), "count", len(units)-int(math.Ceil(0.9*float64(len(units)))))
	if name == "crash-sweep" {
		fmt.Printf("%-28s %14.6f %s\n", "crash_points_per_s", median(points)*perNS*1e9, "points/s")
	}
	return map[string]metric{
		"sim_mcycles_per_s": {median(cycles) * perNS * 1e3, "Mcycles/s"},
		"interval_ms_p50":   {percentile(units, 0.50) / 1e6, "ms"},
		"interval_ms_p90":   {percentile(units, 0.90) / 1e6, "ms"},
		"setup_s":           {median(setup), "s"},
		"wall_s":            {median(wall), "s"},
		"alloc_mb":          {median(alloc), "MB"},
		"peak_heap_mb":      {median(peak), "MB"},
	}
}
