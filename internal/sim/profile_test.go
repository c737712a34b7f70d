package sim

import (
	"testing"
	"testing/quick"
)

func TestComponentNames(t *testing.T) {
	want := []string{"sim", "mem", "cache", "vm", "kernel", "prosper", "persist", "workload", "other"}
	comps := Components()
	if len(comps) != len(want) {
		t.Fatalf("NumComponents = %d, want %d", len(comps), len(want))
	}
	for i, c := range comps {
		if c.String() != want[i] {
			t.Fatalf("component %d = %q, want %q", i, c.String(), want[i])
		}
	}
	if Component(200).String() != "other" {
		t.Fatalf("out-of-range component should stringify as other")
	}
}

func TestProfileCountsSumToFired(t *testing.T) {
	e := NewEngine()
	p := e.EnableProfiling(nil)
	if e.prof != p {
		t.Fatal("Profiling() did not return the attached profile")
	}
	for i := 0; i < 500; i++ {
		c := Component(i % NumComponents)
		e.Schedule(c, Time(i%13), func() {})
	}
	e.ScheduleDone(5, Thunk(CompMem, func() {}))
	e.ScheduleDone(5, Bind(CompCache, func(uint64) {}, 7))
	e.Run()
	snap := p.Snapshot()
	if snap.TotalEvents() != e.Fired() {
		t.Fatalf("counts sum to %d, want Fired() = %d", snap.TotalEvents(), e.Fired())
	}
	if snap.Counts[CompMem] != 500/uint64(NumComponents)+1+1 {
		// 500 events round-robined over 9 components: comps 0..4 get 56,
		// comps 5..8 get 55; CompMem (index 1) gets 56, plus one Thunk.
		t.Fatalf("CompMem count = %d", snap.Counts[CompMem])
	}
	if snap.Counts[CompCache] != 500/uint64(NumComponents)+1+1 {
		t.Fatalf("CompCache count = %d", snap.Counts[CompCache])
	}
}

// TestProfilingPreservesOrder proves the profiled dispatch fires events in
// exactly the same (when, seq) order as the unprofiled dispatch: profiling
// observes the stream, never reorders it.
func TestProfilingPreservesOrder(t *testing.T) {
	run := func(delays []uint16, profile bool) []int {
		e := NewEngine()
		if profile {
			e.EnableProfiling(nil)
		}
		var got []int
		for i, d := range delays {
			id := i
			e.Schedule(Component(i%NumComponents), Time(d), func() { got = append(got, id) })
		}
		e.Run()
		return got
	}
	f := func(delays []uint16) bool {
		if len(delays) > 128 {
			delays = delays[:128]
		}
		plain := run(delays, false)
		profiled := run(delays, true)
		if len(plain) != len(profiled) {
			return false
		}
		for i := range plain {
			if plain[i] != profiled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestProfilingOnSteadyStateAllocs pins the profiled dispatch loop at zero
// allocations too: per-component accounting is plain array arithmetic.
func TestProfilingOnSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	e.EnableProfiling(nil)
	fn := func() {}
	tok := Thunk(CompMem, fn)
	allocs := testing.AllocsPerRun(500, func() {
		for i := 0; i < 32; i++ {
			e.Schedule(CompCache, Time(i%7), fn)
			e.ScheduleDone(Time(i%5), tok)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("profiled scheduler allocates %.1f objects per batch, want 0", allocs)
	}
}

// TotalEvents returns the sum of per-component event counts — by
// construction equal to the number of events dispatched while profiling
// was enabled (Engine.Fired when enabled from birth).
func (s ProfileSnapshot) TotalEvents() uint64 {
	var total uint64
	for _, n := range s.Counts {
		total += n
	}
	return total
}
