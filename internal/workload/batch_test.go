package workload

import (
	"runtime"
	"testing"
	"time"

	"prosper/internal/sim"
)

// scriptedOp draws the next op of a test script from rng. A body that
// replays the script through G's emit primitives must produce exactly
// the ops a direct, unbatched walk of the same script collects.
func scriptedOp(rng *sim.Rand, ctx Context) Op {
	switch rng.Intn(3) {
	case 0:
		return Op{Kind: Store, Addr: ctx.HeapLo + rng.Uint64n(1024)*8, Size: 8, SP: ctx.StackHi}
	case 1:
		return Op{Kind: Load, Addr: ctx.HeapLo + rng.Uint64n(1024)*8, Size: 4, SP: ctx.StackHi}
	default:
		return Op{Kind: Compute, Cycles: sim.Time(1 + rng.Intn(100)), SP: ctx.StackHi}
	}
}

// scriptedProgram emits n scripted ops and returns.
func scriptedProgram(n int) Program {
	return NewProgram(func(g *G) {
		for i := 0; i < n; i++ {
			op := scriptedOp(g.Rng, g.Ctx)
			switch op.Kind {
			case Store:
				g.Store(op.Addr, op.Size)
			case Load:
				g.Load(op.Addr, op.Size)
			default:
				g.Compute(op.Cycles)
			}
		}
	})
}

// within fails the test if f does not return in time. A batch handoff
// that recycles a buffer wrongly deadlocks instead of failing.
func within(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out: op handoff deadlocked")
	}
}

func TestBatchedStreamMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, batchOps - 1, batchOps, batchOps + 1, 2*batchOps + 1} {
		ctx := testCtx()
		rng := sim.NewRand(ctx.Seed)
		want := make([]Op, n)
		for i := range want {
			want[i] = scriptedOp(rng, ctx)
		}
		var got []Op
		within(t, func() {
			p := scriptedProgram(n)
			p.Start(ctx)
			defer p.Close()
			for op := p.Next(); op.Kind != End; op = p.Next() {
				got = append(got, op)
			}
			for i := 0; i < 3; i++ {
				if op := p.Next(); op.Kind != End {
					t.Errorf("n=%d: Next after End = %+v", n, op)
				}
			}
		})
		if len(got) != n {
			t.Fatalf("n=%d: got %d ops", n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: op %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

func TestCloseAtAnyPoint(t *testing.T) {
	cases := []struct {
		name  string
		steps int // Next calls before Close
	}{
		{"before first Next", 0},
		{"mid batch", batchOps / 2},
		{"at batch boundary", batchOps},
		{"several batches in", 3*batchOps + 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			within(t, func() {
				p := NewRandom(MicroParams{})
				p.Start(testCtx())
				for i := 0; i < tc.steps; i++ {
					if op := p.Next(); op.Kind == End {
						t.Errorf("steady program ended after %d ops", i)
						return
					}
				}
				p.Close()
				p.Close()
				if op := p.Next(); op.Kind != End {
					t.Errorf("Next after Close = %+v", op)
				}
			})
		})
	}
}

func TestCloseAfterEnd(t *testing.T) {
	within(t, func() {
		p := scriptedProgram(batchOps + 1)
		p.Start(testCtx())
		for p.Next().Kind != End {
		}
		p.Close()
		p.Close()
		if op := p.Next(); op.Kind != End {
			t.Errorf("Next after Close = %+v", op)
		}
	})
}

func TestCloseReleasesProducers(t *testing.T) {
	base := runtime.NumGoroutine()
	within(t, func() {
		var progs []Program
		for i := 0; i < 8; i++ {
			p := NewApp(GapbsPR())
			p.Start(testCtx())
			for j := 0; j < i*batchOps/3; j++ {
				p.Next()
			}
			progs = append(progs, p)
		}
		for _, p := range progs {
			p.Close()
		}
	})
	// A producer exits just after closing its channel, so give the last
	// ones a moment to be reaped.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, baseline %d", n, base)
	}
}
