package main

import (
	"runtime"

	"prosper/internal/cache"
	"prosper/internal/mem"
	"prosper/internal/prosper"
	"prosper/internal/sim"
	"prosper/internal/vm"
	"prosper/internal/workload"
)

// The layer probes time the synchronous inner calls no boundary of a
// run exposes from outside, each in isolation on the address stream the
// traced run's program wrapper recorded. Each reports host ns per call
// and heap allocations per call.

const probeOps = 1 << 18

// opsOf cycles the recorded stream out to n memory operations.
func opsOf(stream []workload.Op, n int) []workload.Op {
	out := make([]workload.Op, n)
	for i := range out {
		out[i] = stream[i%len(stream)]
	}
	return out
}

// cost is a call's host ns and heap allocations per call.
type cost struct{ ns, allocs float64 }

// measure runs fn, which makes n calls, and returns their cost.
func measure(n int, fn func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := nanotime()
	fn()
	d := nanotime() - s
	runtime.ReadMemStats(&m1)
	return cost{float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

// instantPort completes every access one cycle later.
func instantPort(eng *sim.Engine) cache.Port {
	return cache.PortFunc(func(_ bool, _ uint64, done sim.Done) {
		if done.Valid() {
			eng.ScheduleDone(1, done)
		}
	})
}

// probeLayers times each layer call on the stream and adds
// <module>.<call>_ns and _allocs metrics to out.
func probeLayers(stream []workload.Op, out map[string]metric) {
	if len(stream) == 0 {
		return
	}
	ops := opsOf(stream, probeOps)
	put := func(name string, c cost) {
		out[name+"_ns"] = metric{c.ns, "ns/op"}
		out[name+"_allocs"] = metric{c.allocs, "allocs/op"}
	}

	// cache.Cache.Access, hit: the stream's first lines that an L1 holds
	// without conflict, accessed again once resident.
	{
		eng := sim.NewEngine()
		c := cache.New(eng, cache.L1DConfig(), instantPort(eng))
		seen := map[uint64]bool{}
		var lines []uint64
		for _, op := range ops {
			if l := mem.LineOf(op.Addr); !seen[l] && len(lines) < 128 {
				seen[l] = true
				lines = append(lines, l)
			}
		}
		for _, l := range lines {
			c.Access(false, l, sim.Done{})
			eng.Run()
		}
		put("cache.access_hit", measure(len(ops), func() {
			for i, op := range ops {
				c.Access(op.Kind == workload.Store, lines[i%len(lines)], sim.Done{})
			}
		}))
	}

	// cache.Cache.Access, miss: every access is to a line not yet seen,
	// and the fill completes before the next access.
	{
		eng := sim.NewEngine()
		c := cache.New(eng, cache.L1DConfig(), instantPort(eng))
		done := sim.Thunk(sim.CompOther, func() {})
		put("cache.access_miss", measure(len(ops), func() {
			for i, op := range ops {
				c.Access(op.Kind == workload.Store, op.Addr+uint64(i)<<32, done)
				eng.Run()
			}
		}))
	}

	// vm.TLB.Lookup over the stream, filling on a miss as the page walker
	// would, and vm.TLB.Insert alone.
	{
		tlb := vm.NewTLB("bench.tlb", 64)
		put("vm.tlb_lookup", measure(len(ops), func() {
			for _, op := range ops {
				if tlb.Lookup(op.Addr) == nil {
					tlb.Insert(op.Addr, op.Addr>>12, true, false)
				}
			}
		}))
		put("vm.tlb_insert", measure(len(ops), func() {
			for _, op := range ops {
				tlb.Insert(op.Addr, op.Addr>>12, op.Kind == workload.Store, false)
			}
		}))
	}

	// mem.Device.Access on each device, draining the engine every 16
	// accesses so the queues fill and drain as under a real cache.
	for _, dev := range []struct {
		name string
		cfg  mem.DeviceConfig
		base uint64
		size uint64
	}{
		{"mem.ddr4_access", mem.DDR4Config(), mem.DRAMBase, mem.DRAMSize},
		{"mem.pcm_access", mem.PCMConfig(), mem.NVMBase, mem.NVMSize},
	} {
		eng := sim.NewEngine()
		d := mem.NewDevice(eng, dev.cfg)
		done := sim.Thunk(sim.CompOther, func() {})
		put(dev.name, measure(len(ops), func() {
			for i, op := range ops {
				d.Access(op.Kind == workload.Store, dev.base+mem.LineOf(op.Addr%dev.size), done)
				if i%16 == 15 {
					eng.Run()
				}
			}
			eng.Run()
		}))
	}

	// prosper.Tracker.ObserveStore on the stream's stores, with the
	// tracked range spanning the stack pointers the stream saw.
	{
		lo, hi := ^uint64(0), uint64(0)
		for _, op := range ops {
			lo, hi = min(lo, op.SP), max(hi, op.SP)
		}
		if hi > 0 {
			eng := sim.NewEngine()
			t := prosper.New(eng, instantPort(eng), mem.NewStorage(), prosper.Config{})
			lo = mem.PageOf(lo) - stackReserve
			t.Configure(lo, mem.PageOf(hi)+2*mem.PageSize, mem.NVMBase, 8)
			t.Enable()
			stores := 0
			for _, op := range ops {
				if op.Kind == workload.Store {
					stores++
				}
			}
			put("prosper.observe_store", measure(max(stores, 1), func() {
				for i, op := range ops {
					if op.Kind == workload.Store {
						t.ObserveStore(op.Addr, int(op.Size))
					}
					if i%64 == 63 {
						eng.Run()
					}
				}
				eng.Run()
			}))
		}
	}

	// sim.Engine.Schedule+Step at a steady queue depth of 64, with delays
	// drawn from the stream's addresses.
	{
		eng := sim.NewEngine()
		fn := func() {}
		for i := 0; i < 64; i++ {
			eng.Schedule(sim.CompOther, sim.Time(i), fn)
		}
		put("sim.schedule_step", measure(len(ops), func() {
			for _, op := range ops {
				eng.Schedule(sim.CompOther, sim.Time(op.Addr>>6)%1024, fn)
				eng.Step()
			}
		}))
	}
}
