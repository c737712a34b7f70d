package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prosper/internal/crash"
	"prosper/internal/sim"
)

// runTraced measures the per-layer metrics. Each round runs every spec
// (or sweep) untraced and then traced on the same seed, until the budget
// is spent; the traced run must reproduce the untraced outputs exactly.
// Times are per round, counts are per round, and the tracing overhead is
// traced over untraced host time.
func runTraced(name string, seed uint64, budget time.Duration, t *tally) map[string]metric {
	tr := &tracer{}
	var untracedNS, tracedNS int64
	var gc []pass
	rounds := 0
	start := time.Now()
	for rounds == 0 || time.Since(start) < budget {
		rounds++
		if name == "crash-sweep" {
			for _, c := range crashConfigs(int64(seed), crash.Mechanisms()) {
				want, err := crash.Sweep(c)
				if err != nil {
					t.check(false, "sweep %s: %v", c.Mechanism, err)
					continue
				}
				var u sweepOut
				rp := &replay{}
				gc = append(gc, measurePass(func(*pass) { u, err = runSweep(c, rp) }))
				untracedNS += gc[len(gc)-1].wallNS
				if err != nil {
					t.check(false, "%v", err)
					continue
				}
				s := nanotime()
				got, err := runSweep(c, &replay{tr: tr, fired: rp.fired})
				tracedNS += nanotime() - s
				if err != nil {
					t.check(false, "traced %v", err)
					continue
				}
				w := summarize(want)
				t.check(u == w && got == w, "sweep %s: untraced replica %+v, traced %+v, crash.Sweep %+v", c.Mechanism, u, got, w)
			}
			continue
		}
		for _, sp := range simSpecs(name) {
			var u simRun
			var err error
			rp := &replay{}
			gc = append(gc, measurePass(func(*pass) { u, err = runSim(sp, seed, rp) }))
			untracedNS += gc[len(gc)-1].wallNS
			if err != nil {
				t.check(false, "%v", err)
				continue
			}
			s := nanotime()
			got, err := runSim(sp, seed, &replay{tr: tr, fired: rp.fired})
			tracedNS += nanotime() - s
			if err != nil {
				t.check(false, "traced %v", err)
				continue
			}
			want, pinnedOK := pinned.Sim[name][sp.label]
			if seed != pinnedSeed {
				want, pinnedOK = u.out, true
			}
			t.check(pinnedOK && got.out == u.out && u.out == want, "%s: traced %+v, untraced %+v, want %+v", sp.label, got.out, u.out, want)
		}
	}
	if err := writeSpans(name, seed, tr.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	out := perLayer(tr, rounds, tracedNS)
	var gcCycles, gcPause float64
	for _, p := range gc {
		gcCycles += float64(p.gcCycles)
		gcPause += float64(p.gcPauseNS) / 1e6
	}
	n := float64(rounds)
	out["runtime.gc_cycles"] = metric{gcCycles / n, "count"}
	out["runtime.gc_pause_ms"] = metric{gcPause / n, "ms"}
	out["trace.overhead_ratio"] = metric{float64(tracedNS) / float64(untracedNS), "ratio"}
	probeLayers(tr.stream, out)
	return out
}

// perLayer turns the tracer's accounting into per-round metrics.
func perLayer(tr *tracer, rounds int, tracedNS int64) map[string]metric {
	n := float64(rounds)
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	meanNS := func(c callStat) float64 {
		if c.calls == 0 {
			return 0
		}
		return float64(c.ns) / float64(c.calls)
	}
	perRound := func(v int64) float64 { return float64(v) / n }
	ms := func(c callStat) metric { return metric{float64(c.ns) / 1e6 / n, "ms"} }
	m := tr.model
	out := map[string]metric{
		"workload.next_calls":        {perRound(tr.next.calls), "count"},
		"workload.next_ns":           {meanNS(tr.next), "ns/op"},
		"workload.next_share":        {float64(tr.next.ns) / float64(tracedNS), "ratio"},
		"sim.events":                 {perRound(tr.steps.calls), "count"},
		"sim.step_ns":                {meanNS(tr.steps), "ns/op"},
		"cache.l1d_hit_ratio":        {ratio(m[mL1Hit], m[mL1Miss]), "ratio"},
		"cache.l2_hit_ratio":         {ratio(m[mL2Hit], m[mL2Miss]), "ratio"},
		"cache.l3_hit_ratio":         {ratio(m[mL3Hit], m[mL3Miss]), "ratio"},
		"cache.mshr_coalesced":       {float64(m[mCoalesced]) / n, "count"},
		"vm.tlb_hit_ratio":           {ratio(m[mTLBHit], m[mTLBMiss]), "ratio"},
		"vm.page_walks":              {float64(m[mPageWalks]) / n, "count"},
		"mem.dram_accesses":          {float64(m[mDRAM]) / n, "count"},
		"mem.nvm_writes":             {float64(m[mNVMWrites]) / n, "count"},
		"mem.buffer_stalls":          {float64(m[mBufferStalls]) / n, "count"},
		"prosper.sois":               {float64(m[mSOIs]) / n, "count"},
		"prosper.bitmap_stores":      {float64(m[mBitmapStores]) / n, "count"},
		"prosper.writebacks":         {float64(m[mWritebacks]) / n, "count"},
		"persist.on_store_calls":     {perRound(tr.onStore.calls), "count"},
		"persist.on_store_ns":        {meanNS(tr.onStore), "ns/op"},
		"persist.checkpoint_calls":   {perRound(tr.ckpt.calls), "count"},
		"persist.checkpoint_call_ns": {meanNS(tr.ckpt), "ns/op"},
		"kernel.boot_ms":             ms(tr.calls[callBoot]),
		"kernel.spawn_ms":            ms(tr.calls[callSpawn]),
		"snapshot.save_ms":           ms(tr.calls[callSave]),
		"snapshot.resume_ms":         ms(tr.calls[callResume]),
		"snapshot.bytes":             {perRound(tr.snapBytes), "bytes"},
		"crash.inject_ms":            ms(tr.calls[callInject]),
		"kernel.fsck_ms":             ms(tr.calls[callFsck]),
		"crash.forked_ratio":         {ratio(uint64(tr.calls[callResume].calls), uint64(tr.calls[callInject].calls-tr.calls[callResume].calls)), "ratio"},
	}
	if tr.cycles > 0 {
		out["sim.events_per_mcycle"] = metric{float64(tr.steps.calls) / float64(tr.cycles) * 1e6, "events/Mcycle"}
	}
	for _, c := range []struct {
		name string
		comp sim.Component
	}{
		{"kernel", sim.CompKernel}, {"machine", sim.CompWorkload}, {"vm", sim.CompVM},
		{"cache", sim.CompCache}, {"mem", sim.CompMem}, {"prosper", sim.CompProsper}, {"persist", sim.CompPersist},
	} {
		out[c.name+".event_ms"] = metric{float64(tr.eventNS[c.comp]) / 1e6 / n, "ms"}
		out[c.name+".events"] = metric{float64(tr.eventN[c.comp]) / n, "count"}
	}
	return out
}

// spansDir is where the traced run writes its spans, relative to the
// repository root the benchmark runs from.
const spansDir = ".bench_build/spans"

// writeSpans writes the traced run's spans, one JSON object a line, once
// the run has ended.
func writeSpans(name string, seed uint64, spans []span) error {
	dir := spansDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
