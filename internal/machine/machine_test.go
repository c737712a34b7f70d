package machine

import (
	"bytes"
	"testing"
	"testing/quick"

	"prosper/internal/mem"
	"prosper/internal/sim"
	"prosper/internal/vm"
)

// testEnv wires a machine with one user address space bound to core 0 and
// a kernel-style demand-paging fault handler.
func testEnv(t *testing.T) (*Machine, *Core, *vm.AddressSpace) {
	if t != nil {
		t.Helper()
	}
	m := New(Config{Cores: 2})
	as := vm.NewAddressSpace(m.DRAMFrames, m.NVMFrames)
	if err := as.AddVMA(&vm.VMA{Lo: 0x10000, Hi: 0x100000, Kind: vm.KindHeap, Writable: true, ThreadID: -1}); err != nil {
		panic(err)
	}
	if err := as.AddVMA(&vm.VMA{Lo: 0x7000_0000, Hi: 0x7010_0000, Kind: vm.KindStack, Writable: true, GrowsDown: true, ThreadID: 0}); err != nil {
		panic(err)
	}
	core := m.Cores[0]
	core.AS = as
	core.OnFault = func(vaddr uint64, write bool) error {
		_, err := as.HandleFault(vaddr, write)
		return err
	}
	return m, core, as
}

func TestCoreWriteReadRoundTrip(t *testing.T) {
	m, core, _ := testEnv(t)
	var got []byte
	core.Write(0x10040, []byte("prosper"), func() {
		core.Read(0x10040, 7, func(b []byte) { got = b })
	})
	m.Eng.Run()
	if !bytes.Equal(got, []byte("prosper")) {
		t.Fatalf("round trip = %q", got)
	}
}

func TestCoreDemandFaultCharged(t *testing.T) {
	m, core, as := testEnv(t)
	doneAt := sim.Time(-1)
	core.Write(0x20000, []byte{1}, nil)
	m.Eng.Run()
	if as.DemandFaults() != 1 {
		t.Fatalf("demand faults = %d", as.DemandFaults())
	}
	// A second access to the same page must not fault.
	start := m.Eng.Now()
	core.Write(0x20008, []byte{2}, func() { doneAt = m.Eng.Now() - start })
	m.Eng.Run()
	if as.DemandFaults() != 1 {
		t.Fatal("second access faulted")
	}
	if doneAt < 0 {
		t.Fatal("write never accepted")
	}
	if doneAt > int64(m.Cfg.PageFaultCycles) {
		t.Fatalf("warm write took %d cycles (looks like a fault)", doneAt)
	}
}

func TestCoreReadBlocksForMemory(t *testing.T) {
	m, core, _ := testEnv(t)
	var coldT sim.Time
	start := m.Eng.Now()
	core.Read(0x10000, 8, func([]byte) { coldT = m.Eng.Now() - start })
	m.Eng.Run()
	// Cold read: fault (3000) + walks + caches + DRAM; must exceed DRAM latency.
	if coldT < 135 {
		t.Fatalf("cold read too fast: %d", coldT)
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	m, core, _ := testEnv(t)
	// Prime the page so stores don't fault.
	core.Write(0x10000, []byte{0}, nil)
	m.Eng.Run()
	accepted := 0
	// Burst of stores to distinct lines in one page: more than the buffer.
	for i := 0; i < 200; i++ {
		addr := 0x10000 + uint64(i%60)*mem.LineSize
		core.Write(addr, []byte{byte(i)}, func() { accepted++ })
	}
	if core.Counters.Get("core.store_buffer_stalls") == 0 {
		t.Fatal("expected store buffer stalls")
	}
	m.Eng.Run()
	if accepted != 200 {
		t.Fatalf("accepted = %d", accepted)
	}
}

func TestDirtySetWalkOnCleanPage(t *testing.T) {
	m, core, as := testEnv(t)
	core.Write(0x10000, []byte{1}, nil)
	m.Eng.Run()
	// Clear the dirty bit (tracking interval start) and the TLB's cached
	// dirty state.
	as.PT.ClearFlagsRange(0x10000, 0x20000, vm.FlagDirty)
	core.TLB.Flush()
	walksBefore := core.Counters.Get("core.page_walks")
	core.Write(0x10000, []byte{2}, nil)
	m.Eng.Run()
	if !as.PT.Lookup(0x10000).Dirty() {
		t.Fatal("dirty bit not re-set by walker")
	}
	if core.Counters.Get("core.page_walks") == walksBefore {
		t.Fatal("no walk charged for dirty-bit update")
	}
	// Subsequent stores to the same page: no more walks.
	walksAfter := core.Counters.Get("core.page_walks")
	core.Write(0x10008, []byte{3}, nil)
	m.Eng.Run()
	if core.Counters.Get("core.page_walks") != walksAfter {
		t.Fatal("store to already-dirty page charged a walk")
	}
}

func TestStackGrowthThroughCore(t *testing.T) {
	m, core, as := testEnv(t)
	sp := uint64(0x7000_0000) - 64
	core.Write(sp, []byte{42}, nil)
	m.Eng.Run()
	stack := as.FindVMA(sp)
	if stack == nil || stack.Kind != vm.KindStack || stack.Lo > sp {
		t.Fatalf("stack did not grow to cover sp=%#x: %+v", sp, stack)
	}
}

func TestObserverSeesVirtualAddresses(t *testing.T) {
	m, core, _ := testEnv(t)
	var seen []uint64
	core.Observer = observerFunc(func(vaddr uint64, size int) { seen = append(seen, vaddr) })
	core.Write(0x10010, []byte{1, 2}, nil)
	core.Write(0x7000_0000-8, make([]byte, 8), nil)
	m.Eng.Run()
	if len(seen) != 2 || seen[0] != 0x10010 || seen[1] != 0x7000_0000-8 {
		t.Fatalf("observer saw %#v", seen)
	}
}

type observerFunc func(uint64, int)

func (f observerFunc) ObserveStore(vaddr uint64, size int) { f(vaddr, size) }

func TestStoreHookReceivesPhysical(t *testing.T) {
	m, core, as := testEnv(t)
	var gotV, gotP uint64
	core.StoreHook = func(vaddr, paddr uint64, size int) sim.Time { gotV, gotP = vaddr, paddr; return 0 }
	core.Write(0x10020, []byte{9}, nil)
	m.Eng.Run()
	paddr, _, _ := as.PT.Translate(0x10020)
	if gotV != 0x10020 || gotP != paddr {
		t.Fatalf("hook got %#x/%#x want %#x/%#x", gotV, gotP, 0x10020, paddr)
	}
}

func TestCrossLineWriteSplits(t *testing.T) {
	m, core, _ := testEnv(t)
	addr := uint64(0x10000 + mem.LineSize - 4)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	done := false
	core.Write(addr, data, func() { done = true })
	m.Eng.Run()
	if !done {
		t.Fatal("cross-line write never completed")
	}
	var got []byte
	core.Read(addr, 8, func(b []byte) { got = b })
	m.Eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-line data = %v", got)
	}
}

func TestSegmentationAtLineBoundaries(t *testing.T) {
	m, core, _ := testEnv(t)
	type seg struct {
		va uint64
		n  int
	}
	var segs []seg

	// Pre-touch the page so the segments below translate via TLB hits;
	// a cold first touch faults on the leading segment and reorders it
	// behind the trailing one (fault retry costs PageFaultCycles).
	core.Write(0x10000, []byte{0}, nil)
	m.Eng.Run()

	core.StoreHook = func(va, _ uint64, n int) sim.Time {
		segs = append(segs, seg{va, n})
		return 0
	}

	core.Write(0x10000+60, make([]byte, 10), nil)
	m.Eng.Run()
	if len(segs) != 2 || segs[0].n != 4 || segs[1].n != 6 || segs[1].va != 0x10000+64 {
		t.Fatalf("segs = %+v", segs)
	}

	segs = nil
	core.Write(0x10000+64, make([]byte, 64), nil)
	m.Eng.Run()
	if len(segs) != 1 || segs[0].n != 64 {
		t.Fatalf("aligned full line segs = %+v", segs)
	}

	segs = nil
	core.Write(0x10000, nil, nil)
	m.Eng.Run()
	if segs != nil {
		t.Fatalf("empty write produced segs = %+v", segs)
	}
}

func TestDrainStores(t *testing.T) {
	m, core, _ := testEnv(t)
	core.Write(0x10000, []byte{1}, nil)
	drained := false
	m.Eng.Schedule(sim.CompOther, 1, func() { core.DrainStores(func() { drained = true }) })
	m.Eng.Run()
	if !drained {
		t.Fatal("drain never completed")
	}
	if core.storeCredits != m.Cfg.StoreBuffer {
		t.Fatalf("credits = %d after drain", core.storeCredits)
	}
}

func TestCopyPhysMovesDataAndTakesTime(t *testing.T) {
	m, _, _ := testEnv(t)
	src, dst := uint64(0x4000), mem.NVMBase+0x4000
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	m.Storage.Write(src, payload)
	var doneAt sim.Time
	m.CopyPhys(dst, src, len(payload), func() { doneAt = m.Eng.Now() })
	m.Eng.Run()
	got := make([]byte, len(payload))
	m.Storage.Read(dst, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("copy corrupted data")
	}
	// 64 lines to NVM: must cost at least one NVM write latency and more
	// than a single DRAM access.
	if doneAt < 1500 {
		t.Fatalf("4 KiB copy to NVM finished in %d cycles", doneAt)
	}
}

func TestCopyPhysZeroBytes(t *testing.T) {
	m, _, _ := testEnv(t)
	called := false
	m.CopyPhys(0x100, 0x200, 0, func() { called = true })
	m.Eng.Run()
	if !called {
		t.Fatal("done not called for empty copy")
	}
}

func TestWriteReadPhys(t *testing.T) {
	m, _, _ := testEnv(t)
	var got []byte
	m.WritePhys(mem.NVMBase+128, []byte("persist me"), func() {
		m.ReadPhys(mem.NVMBase+128, 10, func(b []byte) { got = b })
	})
	m.Eng.Run()
	if string(got) != "persist me" {
		t.Fatalf("phys round trip = %q", got)
	}
}

func TestCrashDropsDRAMKeepsNVM(t *testing.T) {
	m, core, _ := testEnv(t)
	core.Write(0x10000, []byte{7}, nil)
	m.Eng.Run()
	// A write whose timed device access completed is inside the
	// persistence domain and survives.
	m.WritePhys(mem.NVMBase+0x100, []byte{0xed, 0xfe}, nil)
	m.Eng.Run()
	// A functional-only NVM update never went through the device: it is
	// still on the volatile side of the domain and must NOT survive.
	m.Storage.WriteU64(mem.NVMBase+0x200, 0xdead)
	m.Crash()
	buf := make([]byte, 1)
	// All DRAM pages are zero after crash.
	m.Storage.Read(0x10000, buf)
	if buf[0] != 0 {
		t.Fatal("DRAM survived crash")
	}
	if got := m.Storage.ReadU64(mem.NVMBase + 0x100); got&0xffff != 0xfeed {
		t.Fatalf("durable NVM lost at crash: %#x", got)
	}
	if m.Storage.ReadU64(mem.NVMBase+0x200) != 0 {
		t.Fatal("volatile NVM write survived crash")
	}
}

// Property: arbitrary write/read sequences through the core behave like a
// flat memory (reads observe the most recent write per byte).
func TestCoreMemoryConsistencyProperty(t *testing.T) {
	f := func(ops []struct {
		Off  uint16
		Val  byte
		Load bool
	}) bool {
		m, core, _ := testEnv(nil)
		ref := make(map[uint64]byte)
		okAll := true
		base := uint64(0x10000)
		var step func(i int)
		step = func(i int) {
			if i >= len(ops) {
				return
			}
			op := ops[i]
			addr := base + uint64(op.Off)%0x8000
			if op.Load {
				core.Read(addr, 1, func(b []byte) {
					want := ref[addr]
					if b[0] != want {
						okAll = false
					}
					step(i + 1)
				})
			} else {
				ref[addr] = op.Val
				core.Write(addr, []byte{op.Val}, func() { step(i + 1) })
			}
		}
		step(0)
		m.Eng.Run()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
