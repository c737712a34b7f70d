package workload

import "prosper/internal/sim"

// AppParams parameterize the synthetic application models. The presets
// below are calibrated so that the statistics the paper reports for each
// benchmark — fraction of memory operations hitting the stack (Fig 1),
// fraction of stack writes landing beyond the final SP of an interval
// (Fig 2), and the page-vs-byte checkpoint-size ratio (Fig 4) — emerge
// from the generated stream. The evaluated persistence mechanisms only
// observe the memory-access stream, so matching these statistics is what
// preserves each experiment's behaviour (see DESIGN.md §4).
type AppParams struct {
	Name string

	// StackOpFrac is the fraction of memory operations that target the
	// stack; StoreFrac is the fraction of those that are writes.
	StackOpFrac float64
	StoreFrac   float64

	// HotLocals is the number of distinct hot 8-byte slots in the current
	// frame that absorb most stack writes (loop variables, spilled
	// registers): more hot locals -> more coalescing.
	HotLocals int

	// ScatterRegions/ScatterSlots, when non-zero, replace the hot-local
	// pattern with a poor-spatial-locality one: writes pick a random
	// region (256 B, one bitmap word at 8 B granularity) and one of a few
	// fixed 32 B-spaced slots in it. With more regions than lookup-table
	// entries this produces the eviction-churned bitmap traffic real
	// pointer-chasing code (mcf) exhibits in Figure 13.
	ScatterRegions int
	ScatterSlots   int

	// SparsePages and WordsPerPage shape a large stack-resident buffer
	// that is touched sparsely each burst (e.g., per-vertex temporaries):
	// they control the page-vs-byte checkpoint-size ratio.
	SparsePages  int
	WordsPerPage int

	// ExcursionEvery and ExcursionDepth drive call-chain excursions that
	// grow the stack and fully return, producing writes beyond the
	// interval-final SP (SP-unawareness waste).
	ExcursionEvery int
	ExcursionDepth int
	FrameBytes     uint64

	// HeapBytes is the heap working set touched uniformly at random.
	HeapBytes uint64

	// ComputePerOp approximates non-memory work per memory operation.
	ComputePerOp sim.Time

	// BurstOps is the number of memory operations between compute blocks.
	BurstOps int
}

// GapbsPR models PageRank from GAPBS: ~70% of operations hit the stack,
// writes are concentrated in very few granules per touched page (the
// paper measures a 300x page-vs-byte checkpoint ratio).
func GapbsPR() AppParams {
	// Calibration: with excursions of depth d every E burst ops, an
	// excursion contributes 7d stack ops (5d writes); the burst
	// contributes E*StackOpFrac stack ops. The parameters below solve for
	// ~70% overall stack ops and ~20% of stack writes beyond the final SP.
	return AppParams{
		Name:        "gapbs_pr",
		StackOpFrac: 0.67, StoreFrac: 0.45,
		HotLocals:   6,
		SparsePages: 48, WordsPerPage: 1,
		ExcursionEvery: 384, ExcursionDepth: 6, FrameBytes: 192,
		HeapBytes:    8 << 20,
		ComputePerOp: 2, BurstOps: 256,
	}
}

// G500SSSP models SSSP from Graph500: ~45% stack operations with spatial
// locality in its stack accesses (its bitmap traffic falls as HWM rises,
// Fig 13) and a ~56x page-vs-byte ratio.
func G500SSSP() AppParams {
	// ~45% overall stack ops, ~25% of stack writes beyond final SP.
	return AppParams{
		Name:        "g500_sssp",
		StackOpFrac: 0.40, StoreFrac: 0.50,
		HotLocals:   24,
		SparsePages: 24, WordsPerPage: 8,
		ExcursionEvery: 608, ExcursionDepth: 8, FrameBytes: 160,
		HeapBytes:    16 << 20,
		ComputePerOp: 2, BurstOps: 256,
	}
}

// YcsbMem models Memcached under YCSB: only ~15% stack operations, but
// call-heavy request handling puts ~36% of stack writes beyond the final
// SP of a 10 ms interval, and a ~33x page-vs-byte ratio.
func YcsbMem() AppParams {
	// ~15% overall stack ops, ~36% of stack writes beyond final SP
	// (Fig 2: Ycsb_mem is the most call-churned of the three).
	return AppParams{
		Name:        "ycsb_mem",
		StackOpFrac: 0.11, StoreFrac: 0.55,
		HotLocals:   48,
		SparsePages: 12, WordsPerPage: 16,
		ExcursionEvery: 2048, ExcursionDepth: 14, FrameBytes: 320,
		HeapBytes:    32 << 20,
		ComputePerOp: 3, BurstOps: 128,
	}
}

// SPEC CPU 2017-like models for the tracking-overhead study (Fig 12/13).

// SpecMCF models 605.mcf_s: pointer chasing with poor stack spatial
// locality (bitmap traffic rises with HWM in Fig 13).
func SpecMCF() AppParams {
	return AppParams{
		Name:        "mcf",
		StackOpFrac: 0.30, StoreFrac: 0.40,
		HotLocals: 4,
		// 24 scatter regions exceed the 16-entry lookup table, so entries
		// are eviction-churned; 8 slots per region keep popcounts in the
		// LWM..HWM band where the HWM/LWM policies matter.
		ScatterRegions: 24, ScatterSlots: 8,
		SparsePages: 64, WordsPerPage: 2,
		ExcursionEvery: 512, ExcursionDepth: 4, FrameBytes: 128,
		HeapBytes:    64 << 20,
		ComputePerOp: 3, BurstOps: 128,
	}
}

// SpecOmnetpp models 620.omnetpp_s: discrete-event simulation, call-heavy.
func SpecOmnetpp() AppParams {
	return AppParams{
		Name:        "omnetpp",
		StackOpFrac: 0.40, StoreFrac: 0.50,
		HotLocals:   16,
		SparsePages: 16, WordsPerPage: 6,
		ExcursionEvery: 256, ExcursionDepth: 10, FrameBytes: 256,
		HeapBytes:    32 << 20,
		ComputePerOp: 2, BurstOps: 192,
	}
}

// SpecPerlbench models 600.perlbench_s: interpreter loop, deep calls.
func SpecPerlbench() AppParams {
	return AppParams{
		Name:        "perlbench",
		StackOpFrac: 0.55, StoreFrac: 0.50,
		HotLocals:   32,
		SparsePages: 8, WordsPerPage: 12,
		ExcursionEvery: 128, ExcursionDepth: 12, FrameBytes: 224,
		HeapBytes:    16 << 20,
		ComputePerOp: 2, BurstOps: 192,
	}
}

// SpecLeela models 641.leela_s: game-tree search, recursive.
func SpecLeela() AppParams {
	return AppParams{
		Name:        "leela",
		StackOpFrac: 0.50, StoreFrac: 0.45,
		HotLocals:   12,
		SparsePages: 16, WordsPerPage: 4,
		ExcursionEvery: 192, ExcursionDepth: 16, FrameBytes: 192,
		HeapBytes:    8 << 20,
		ComputePerOp: 3, BurstOps: 160,
	}
}

// NewApp builds the generator for an application model.
func NewApp(p AppParams) Program {
	return NewProgram(func(g *G) {
		// Main function frame: hot locals + scatter regions + the sparse
		// buffer.
		sparseBytes := uint64(p.SparsePages) * 4096
		hotBytes := uint64(p.HotLocals+2) * 8
		scatterBytes := uint64(p.ScatterRegions) * 256
		mainFrame := sparseBytes + hotBytes + scatterBytes + 64
		base := g.Call(mainFrame)
		hotBase := base
		scatterBase := base + hotBytes
		sparseBase := base + hotBytes + scatterBytes

		// The model's heap working set never exceeds the heap arena the
		// process actually has.
		heapWS := p.HeapBytes
		if g.Ctx.HeapSize > 0 && heapWS > g.Ctx.HeapSize {
			heapWS = g.Ctx.HeapSize
		}
		heapAddr := func() uint64 {
			return g.Ctx.HeapLo + g.Rng.Uint64n(heapWS/8)*8
		}

		// One excursion: a call chain that grows the stack, writes its
		// frames, and fully unwinds. Writes inside it are below any SP
		// observed at burst boundaries.
		excursion := func() {
			var rec func(d int)
			rec = func(d int) {
				fb := g.Call(p.FrameBytes)
				for off := uint64(8); off < 40; off += 8 {
					g.Store(fb+off, 8)
				}
				if d > 1 {
					rec(d - 1)
				}
				g.Ret(p.FrameBytes)
			}
			rec(p.ExcursionDepth)
		}

		sinceExcursion := 0
		sparseCursor := 0
		for {
			for i := 0; i < p.BurstOps; i++ {
				sinceExcursion++
				if p.ExcursionEvery > 0 && sinceExcursion >= p.ExcursionEvery {
					sinceExcursion = 0
					excursion()
				}
				stack := g.Rng.Float64() < p.StackOpFrac
				write := g.Rng.Float64() < p.StoreFrac
				if stack {
					// Mostly hot locals; occasionally a sparse-buffer touch.
					if write && p.SparsePages > 0 && g.Rng.Intn(16) == 0 {
						page := sparseCursor % p.SparsePages
						sparseCursor++
						word := g.Rng.Intn(p.WordsPerPage)
						addr := sparseBase + uint64(page)*4096 + uint64(word)*8
						g.Store(addr, 8)
						continue
					}
					var slot uint64
					if p.ScatterRegions > 0 {
						region := uint64(g.Rng.Intn(p.ScatterRegions))
						s := uint64(g.Rng.Intn(p.ScatterSlots))
						slot = scatterBase + region*256 + s*32
					} else {
						slot = hotBase + uint64(g.Rng.Intn(p.HotLocals))*8
					}
					if write {
						g.Store(slot, 8)
					} else {
						g.Load(slot, 8)
					}
				} else {
					if write {
						g.Store(heapAddr(), 8)
					} else {
						g.Load(heapAddr(), 8)
					}
				}
			}
			g.Compute(sim.Time(p.BurstOps) * p.ComputePerOp)
		}
	})
}
