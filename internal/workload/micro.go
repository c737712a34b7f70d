package workload

import "prosper/internal/sim"

// Table III micro-benchmarks. Each operates on an array allocated in
// function scope (i.e., on the stack) and loops forever; experiment runs
// bound them by simulated time.

// MicroParams sizes the micro-benchmarks.
type MicroParams struct {
	ArrayBytes   uint64   // stack array the access-pattern benches operate on
	WritesPerRun int      // stores per iteration for Random
	ComputeBlock sim.Time // compute cycles between bursts
}

// DefaultMicroParams returns sizes that exercise multiple stack pages but
// remain small enough for dense simulation.
func DefaultMicroParams() MicroParams {
	return MicroParams{ArrayBytes: 64 << 10, WritesPerRun: 1024, ComputeBlock: 1000}
}

func (p MicroParams) withDefaults() MicroParams {
	d := DefaultMicroParams()
	if p.ArrayBytes == 0 {
		p.ArrayBytes = d.ArrayBytes
	}
	if p.WritesPerRun == 0 {
		p.WritesPerRun = d.WritesPerRun
	}
	if p.ComputeBlock == 0 {
		p.ComputeBlock = d.ComputeBlock
	}
	return p
}

// NewRandom writes to random 8-byte elements of a stack-allocated array
// ("Random" in Table III — the average case for Prosper).
func NewRandom(p MicroParams) Program {
	p = p.withDefaults()
	return NewProgram(func(g *G) {
		frame := p.ArrayBytes + 64
		base := g.Call(frame)
		for {
			for i := 0; i < p.WritesPerRun; i++ {
				off := g.Rng.Uint64n(p.ArrayBytes/8) * 8
				g.Store(base+off, 8)
			}
			g.Compute(p.ComputeBlock)
		}
	})
}

// NewStream writes every element of a stack-allocated array sequentially
// ("Stream" — the worst case: everything is dirty, so fine-grained
// tracking cannot shrink the checkpoint).
func NewStream(p MicroParams) Program {
	p = p.withDefaults()
	return NewProgram(func(g *G) {
		frame := p.ArrayBytes + 64
		base := g.Call(frame)
		for {
			for off := uint64(0); off < p.ArrayBytes; off += 8 {
				g.Store(base+off, 8)
			}
			g.Compute(p.ComputeBlock)
		}
	})
}

// NewSparse dirties four bytes of each 4 KiB page of a stack array across
// recursive invocations ("Sparse" — the best case: page-granularity
// tracking copies 1024x more than needed).
func NewSparse(p MicroParams) Program {
	p = p.withDefaults()
	return NewProgram(func(g *G) {
		pages := p.ArrayBytes / 4096
		if pages == 0 {
			pages = 1
		}
		var recurse func(depth uint64)
		recurse = func(depth uint64) {
			const frame = 4096 + 64
			base := g.Call(frame)
			g.Store(base+8, 4) // four bytes in this call's page
			if depth+1 < pages {
				recurse(depth + 1)
			}
			g.Ret(frame)
		}
		for {
			recurse(0)
			g.Compute(p.ComputeBlock)
		}
	})
}

// NewQuicksort sorts an array allocated in the heap using real recursion;
// the stack sees the call frames ("Quicksort" in Table III). The sort
// operates on a deterministic pseudo-random key array held inside the
// generator; loads/stores are emitted for every key comparison and swap.
func NewQuicksort(elems int) Program {
	if elems <= 0 {
		elems = 4096
	}
	return NewProgram(func(g *G) {
		keys := make([]uint64, elems)
		addr := func(i int) uint64 { return g.Ctx.HeapLo + uint64(i)*8 }
		reset := func() {
			for i := range keys {
				keys[i] = g.Rng.Uint64()
				g.Store(addr(i), 8)
			}
		}
		var sort func(lo, hi int)
		sort = func(lo, hi int) {
			const frame = 96 // lo, hi, pivot, saved regs, return address
			base := g.Call(frame)
			g.StoreLocal(8, 8)  // spill lo
			g.StoreLocal(16, 8) // spill hi
			_ = base
			if hi-lo > 1 {
				pivot := keys[hi-1]
				g.Load(addr(hi-1), 8)
				store := lo
				for i := lo; i < hi-1; i++ {
					g.Load(addr(i), 8)
					if keys[i] < pivot {
						keys[i], keys[store] = keys[store], keys[i]
						g.Store(addr(i), 8)
						g.Store(addr(store), 8)
						store++
					}
				}
				keys[store], keys[hi-1] = keys[hi-1], keys[store]
				g.Store(addr(store), 8)
				g.Store(addr(hi-1), 8)
				g.Compute(sim.Time(hi - lo)) // comparison ALU work
				sort(lo, store)
				sort(store+1, hi)
			}
			g.Ret(frame)
		}
		for {
			reset()
			sort(0, elems)
			g.Compute(1000)
		}
	})
}

// NewRecursive performs recursive invocations with a parameterized call
// depth ("Recursive" / Rec-4 / Rec-8 / Rec-16). Each call writes its
// frame's locals, recurses, and returns.
func NewRecursive(depth int) Program {
	if depth <= 0 {
		depth = 8
	}
	return NewProgram(func(g *G) {
		var rec func(d int)
		rec = func(d int) {
			const frame = 256
			g.Call(frame)
			for off := uint64(8); off < 64; off += 8 {
				g.StoreLocal(off, 8)
			}
			if d > 1 {
				rec(d - 1)
			}
			g.LoadLocal(8, 8)
			g.Ret(frame)
		}
		for {
			rec(depth)
			g.Compute(200)
		}
	})
}

// NewNormal emits stack writes whose per-block count is drawn from a
// normal distribution with mean 63 and stddev 20, between compute blocks
// of one thousand register increments ("Normal" in Table III).
func NewNormal() Program {
	return newDistributed(func(g *G) int {
		n := int(g.Rng.Normal(63, 20) + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	})
}

// NewPoisson is NewNormal with a Poisson(63) count ("Poisson").
func NewPoisson() Program {
	return newDistributed(func(g *G) int { return g.Rng.Poisson(63) })
}

func newDistributed(draw func(*G) int) Program {
	return NewProgram(func(g *G) {
		const arrayBytes = 32 << 10
		base := g.Call(arrayBytes + 64)
		for {
			n := draw(g)
			for i := 0; i < n; i++ {
				off := g.Rng.Uint64n(arrayBytes/8) * 8
				g.Store(base+off, 8)
			}
			// One thousand register increments: one cycle each.
			g.Compute(1000)
		}
	})
}
