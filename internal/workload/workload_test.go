package workload

import (
	"testing"
)

func testCtx() Context {
	return Context{
		StackHi:      0x7fff_f000,
		StackReserve: 8 << 20,
		HeapLo:       0x1000_0000,
		HeapSize:     256 << 20,
		Seed:         42,
	}
}

// runOps pulls n ops from a fresh instance of the program.
func runOps(t *testing.T, p Program, n int) []Op {
	t.Helper()
	p.Start(testCtx())
	defer p.Close()
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := p.Next()
		if op.Kind == End {
			break
		}
		ops = append(ops, op)
	}
	return ops
}

// validateOps checks universal invariants: stack ops lie in the stack
// reserve, SP stays within bounds, sizes are positive for memory ops.
func validateOps(t *testing.T, ops []Op) (stackOps, heapOps, stores int) {
	t.Helper()
	ctx := testCtx()
	stackLo := ctx.StackHi - ctx.StackReserve
	for i, op := range ops {
		switch op.Kind {
		case Load, Store:
			if op.Size <= 0 {
				t.Fatalf("op %d: non-positive size", i)
			}
			if op.SP != 0 && (op.SP > ctx.StackHi || op.SP < stackLo) {
				t.Fatalf("op %d: SP %#x out of bounds", i, op.SP)
			}
			inStack := op.Addr >= stackLo && op.Addr < ctx.StackHi
			inHeap := op.Addr >= ctx.HeapLo && op.Addr < ctx.HeapLo+ctx.HeapSize
			if !inStack && !inHeap {
				t.Fatalf("op %d: address %#x in neither stack nor heap", i, op.Addr)
			}
			if inStack {
				stackOps++
			} else {
				heapOps++
			}
			if op.Kind == Store {
				stores++
			}
		case Compute:
			if op.Cycles <= 0 {
				t.Fatalf("op %d: non-positive compute", i)
			}
		}
	}
	return
}

func TestMicroBenchmarksProduceValidOps(t *testing.T) {
	progs := []struct {
		name string
		p    Program
	}{
		{"random", NewRandom(MicroParams{})},
		{"stream", NewStream(MicroParams{})},
		{"sparse", NewSparse(MicroParams{})},
		{"quicksort", NewQuicksort(256)},
		{"recursive", NewRecursive(8)},
		{"normal", NewNormal()},
		{"poisson", NewPoisson()},
	}
	for _, tc := range progs {
		p := tc.p
		t.Run(tc.name, func(t *testing.T) {
			ops := runOps(t, p, 20000)
			if len(ops) < 1000 {
				t.Fatalf("only %d ops generated", len(ops))
			}
			stackOps, _, stores := validateOps(t, ops)
			if stackOps == 0 {
				t.Fatal("no stack operations")
			}
			if stores == 0 {
				t.Fatal("no stores")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	ops1 := runOps(t, NewApp(GapbsPR()), 5000)
	ops2 := runOps(t, NewApp(GapbsPR()), 5000)
	if len(ops1) != len(ops2) {
		t.Fatalf("lengths differ: %d vs %d", len(ops1), len(ops2))
	}
	for i := range ops1 {
		if ops1[i] != ops2[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, ops1[i], ops2[i])
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	p1, p2 := NewApp(YcsbMem()), NewApp(YcsbMem())
	ctx1, ctx2 := testCtx(), testCtx()
	ctx2.Seed = 43
	p1.Start(ctx1)
	p2.Start(ctx2)
	defer p1.Close()
	defer p2.Close()
	same := true
	for i := 0; i < 2000; i++ {
		if p1.Next() != p2.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestAppStackFractionCalibration(t *testing.T) {
	cases := []struct {
		params   AppParams
		min, max float64
	}{
		{GapbsPR(), 0.60, 0.80},  // paper: ~70%
		{G500SSSP(), 0.35, 0.55}, // ~45%
		{YcsbMem(), 0.08, 0.25},  // ~15%
	}
	for _, c := range cases {
		c := c
		t.Run(c.params.Name, func(t *testing.T) {
			p := NewApp(c.params)
			ops := runOps(t, p, 60000)
			stackOps, heapOps, _ := validateOps(t, ops)
			frac := float64(stackOps) / float64(stackOps+heapOps)
			if frac < c.min || frac > c.max {
				t.Fatalf("stack fraction = %.3f, want [%.2f, %.2f]", frac, c.min, c.max)
			}
		})
	}
}

func TestRecursiveDepthBoundsSP(t *testing.T) {
	for _, depth := range []int{4, 8, 16} {
		p := NewRecursive(depth)
		ops := runOps(t, p, 20000)
		ctx := testCtx()
		minSP := ctx.StackHi
		for _, op := range ops {
			if op.SP != 0 && op.SP < minSP {
				minSP = op.SP
			}
		}
		depthBytes := ctx.StackHi - minSP
		want := uint64(depth) * 256
		if depthBytes < want || depthBytes > want+4096 {
			t.Fatalf("depth %d: stack extent %d, want ~%d", depth, depthBytes, want)
		}
	}
}

func TestSparseTouchesDistinctPages(t *testing.T) {
	p := NewSparse(MicroParams{ArrayBytes: 16 * 4096})
	ops := runOps(t, p, 5000)
	pages := map[uint64]bool{}
	for _, op := range ops {
		if op.Kind == Store && op.Size == 4 {
			pages[op.Addr>>12] = true
		}
	}
	if len(pages) < 8 {
		t.Fatalf("sparse touched only %d pages", len(pages))
	}
}

func TestStreamCoversArray(t *testing.T) {
	p := NewStream(MicroParams{ArrayBytes: 4096})
	ops := runOps(t, p, 3000)
	words := map[uint64]bool{}
	for _, op := range ops {
		if op.Kind == Store && op.Size == 8 {
			words[op.Addr] = true
		}
	}
	if len(words) < 4096/8 {
		t.Fatalf("stream wrote %d distinct words, want >= 512", len(words))
	}
}

func TestQuicksortActuallySorts(t *testing.T) {
	// The generator sorts an internal array; here we verify the call
	// depth varies (recursion) and ops keep flowing across re-sorts.
	p := NewQuicksort(128)
	ops := runOps(t, p, 30000)
	depths := map[uint64]bool{}
	for _, op := range ops {
		if op.SP != 0 {
			depths[op.SP] = true
		}
	}
	if len(depths) < 5 {
		t.Fatalf("quicksort used %d distinct SPs, want recursion", len(depths))
	}
}

func TestCloseTerminatesGenerator(t *testing.T) {
	p := NewStream(MicroParams{})
	p.Start(testCtx())
	p.Next()
	p.Close() // must not hang
	// Double close is safe.
	p.Close()
}

func TestCounterProgram(t *testing.T) {
	c := NewCounter(10)
	c.Start(testCtx())
	n := 0
	for {
		op := c.Next()
		if op.Kind == End {
			break
		}
		n++
		if n > 1000 {
			t.Fatal("counter never ended")
		}
	}
	if c.Progress() != 10 {
		t.Fatalf("progress = %d", c.Progress())
	}
	if got := c.Next(); got.Kind != End {
		t.Fatal("Next after End must return End")
	}
}

func TestCounterSnapshotRestore(t *testing.T) {
	c := NewCounter(100)
	c.Start(testCtx())
	for i := 0; i < 42; i++ {
		c.Next()
	}
	snap := c.Snapshot()
	want := []Op{}
	probe := NewCounter(100)
	probe.Start(testCtx())
	probe.Restore(snap)
	for i := 0; i < 20; i++ {
		want = append(want, probe.Next())
	}
	// Continue the original; streams must match.
	for i := 0; i < 20; i++ {
		got := c.Next()
		if got != want[i] {
			t.Fatalf("op %d after restore differs: %+v vs %+v", i, got, want[i])
		}
	}
}

func TestEndAfterBodyReturns(t *testing.T) {
	p := NewProgram(func(g *G) {
		g.Store(g.Ctx.HeapLo, 8)
	})
	p.Start(testCtx())
	if op := p.Next(); op.Kind != Store {
		t.Fatalf("first op = %+v", op)
	}
	if op := p.Next(); op.Kind != End {
		t.Fatalf("second op = %+v", op)
	}
	if op := p.Next(); op.Kind != End {
		t.Fatal("End not sticky")
	}
}

func TestCallRetBalance(t *testing.T) {
	p := NewProgram(func(g *G) {
		start := g.sp
		g.Call(128)
		g.StoreLocal(8, 8)
		g.Ret(128)
		if g.sp != start {
			panic("unbalanced")
		}
		g.Compute(1)
	})
	p.Start(testCtx())
	defer p.Close()
	ops := []Op{}
	for {
		op := p.Next()
		if op.Kind == End {
			break
		}
		ops = append(ops, op)
	}
	// Call emits the return-address push; Ret emits its load.
	if len(ops) != 4 {
		t.Fatalf("ops = %+v", ops)
	}
	if ops[0].Kind != Store || ops[2].Kind != Load {
		t.Fatalf("call/ret shape wrong: %+v", ops)
	}
}

func TestStartTwicePanics(t *testing.T) {
	p := NewStream(MicroParams{})
	p.Start(testCtx())
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Start(testCtx())
}
