package prosper

import (
	"testing"
	"testing/quick"

	"prosper/internal/mem"
	"prosper/internal/sim"
)

const (
	tStackLo = uint64(0x7000_0000)
	tStackHi = uint64(0x7010_0000) // 1 MiB tracked range
	tBitmap  = uint64(0x10_0000)   // physical DRAM bitmap base
)

// countPort counts accesses and completes them after a fixed latency.
type countPort struct {
	eng     *sim.Engine
	reads   int
	writes  int
	latency sim.Time
}

func (p *countPort) Access(write bool, addr uint64, done sim.Done) {
	if write {
		p.writes++
	} else {
		p.reads++
	}
	if done.Valid() {
		p.eng.ScheduleDone(p.latency, done)
	}
}

func newTestTracker(cfg Config) (*Tracker, *countPort, *mem.Storage, *sim.Engine) {
	eng := sim.NewEngine()
	port := &countPort{eng: eng, latency: 50}
	storage := mem.NewStorage()
	tr := New(eng, port, storage, cfg)
	tr.Configure(tStackLo, tStackHi, tBitmap, 8)
	tr.Enable()
	return tr, port, storage, eng
}

// dirtyGranules returns the set of granule indices with bits set in the
// functional bitmap.
func dirtyGranules(storage *mem.Storage, gran uint64) map[uint64]bool {
	out := map[uint64]bool{}
	words := BitmapBytes(tStackHi-tStackLo, gran) / 4
	for w := uint64(0); w < words; w++ {
		v := storage.ReadU32(tBitmap + w*4)
		for b := uint64(0); b < 32; b++ {
			if v&(1<<b) != 0 {
				out[w*32+b] = true
			}
		}
	}
	return out
}

func TestTrackerFiltersSOIs(t *testing.T) {
	tr, _, _, eng := newTestTracker(Config{})
	tr.ObserveStore(0x1000, 8)     // heap: ignored
	tr.ObserveStore(tStackHi, 8)   // one past range: ignored
	tr.ObserveStore(tStackLo-8, 8) // just below: ignored
	tr.ObserveStore(tStackLo, 8)   // first granule
	tr.ObserveStore(tStackHi-8, 8) // last granule
	eng.Run()
	if got := tr.Counters.Get("prosper.sois"); got != 2 {
		t.Fatalf("sois = %d, want 2", got)
	}
}

func TestTrackerDisabled(t *testing.T) {
	tr, _, _, _ := newTestTracker(Config{})
	tr.Disable()
	tr.ObserveStore(tStackLo, 8)
	if tr.Counters.Get("prosper.sois") != 0 {
		t.Fatal("disabled tracker observed a store")
	}
}

func TestTrackerBitmapAfterFlush(t *testing.T) {
	tr, _, storage, eng := newTestTracker(Config{})
	tr.ObserveStore(tStackLo+0, 8)     // granule 0
	tr.ObserveStore(tStackLo+16, 8)    // granule 2
	tr.ObserveStore(tStackLo+257*8, 8) // granule 257 (second word region)
	done := false
	tr.FlushAndWait(func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("flush never quiesced")
	}
	got := dirtyGranules(storage, 8)
	want := map[uint64]bool{0: true, 2: true, 257: true}
	if len(got) != len(want) {
		t.Fatalf("granules = %v, want %v", got, want)
	}
	for g := range want {
		if !got[g] {
			t.Fatalf("missing granule %d", g)
		}
	}
}

func TestTrackerUnalignedStoreSpansGranules(t *testing.T) {
	tr, _, storage, eng := newTestTracker(Config{})
	// 8-byte store at offset 4 touches granules 0 and 1.
	tr.ObserveStore(tStackLo+4, 8)
	tr.FlushAndWait(func() {})
	eng.Run()
	got := dirtyGranules(storage, 8)
	if !got[0] || !got[1] || len(got) != 2 {
		t.Fatalf("granules = %v", got)
	}
}

func TestTrackerCoalescingInTable(t *testing.T) {
	tr, port, _, eng := newTestTracker(Config{HWM: 32}) // HWM off effectively
	// 20 stores within one bitmap word's coverage (32 granules * 8 B = 256 B).
	for i := 0; i < 20; i++ {
		tr.ObserveStore(tStackLo+uint64(i*8), 8)
	}
	if port.writes != 0 || port.reads != 0 {
		t.Fatal("traffic issued before flush despite coalescing")
	}
	tr.FlushAndWait(func() {})
	eng.Run()
	// One writeback: one load (accumulate-apply) + one store.
	if got := tr.Counters.Get("prosper.bitmap_stores"); got != 1 {
		t.Fatalf("bitmap stores = %d, want 1", got)
	}
	if got := tr.Counters.Get("prosper.bitmap_loads"); got != 1 {
		t.Fatalf("bitmap loads = %d, want 1", got)
	}
}

func TestTrackerHWMTriggersWriteback(t *testing.T) {
	tr, _, _, eng := newTestTracker(Config{HWM: 4})
	for i := 0; i < 4; i++ {
		tr.ObserveStore(tStackLo+uint64(i*8), 8)
	}
	eng.Run()
	if tr.Counters.Get("prosper.hwm_writebacks") != 1 {
		t.Fatalf("hwm writebacks = %d", tr.Counters.Get("prosper.hwm_writebacks"))
	}
	if tr.LiveEntries() != 0 {
		t.Fatal("entry not freed after HWM writeback")
	}
}

func TestTrackerLWMEviction(t *testing.T) {
	tr, _, _, eng := newTestTracker(Config{TableSize: 2, HWM: 32, LWM: 8})
	// Fill two entries with single bits each (popcount 1 < LWM).
	tr.ObserveStore(tStackLo+0*256, 8)
	tr.ObserveStore(tStackLo+1*256, 8)
	// Third distinct word forces an eviction of an LWM victim.
	tr.ObserveStore(tStackLo+2*256, 8)
	eng.Run()
	if tr.Counters.Get("prosper.evictions") != 1 {
		t.Fatalf("evictions = %d", tr.Counters.Get("prosper.evictions"))
	}
	if tr.Counters.Get("prosper.lwm_evictions") != 1 {
		t.Fatalf("lwm evictions = %d", tr.Counters.Get("prosper.lwm_evictions"))
	}
}

func TestTrackerRandomEvictionWhenAllHot(t *testing.T) {
	tr, _, _, eng := newTestTracker(Config{TableSize: 2, HWM: 32, LWM: 2})
	// Make both entries hot (popcount >= LWM=2).
	for w := 0; w < 2; w++ {
		for b := 0; b < 3; b++ {
			tr.ObserveStore(tStackLo+uint64(w*256+b*8), 8)
		}
	}
	tr.ObserveStore(tStackLo+2*256, 8)
	eng.Run()
	if tr.Counters.Get("prosper.random_evictions") != 1 {
		t.Fatalf("random evictions = %d", tr.Counters.Get("prosper.random_evictions"))
	}
}

func TestTrackerRedundantStoreSkipped(t *testing.T) {
	tr, _, _, eng := newTestTracker(Config{})
	tr.ObserveStore(tStackLo, 8)
	tr.FlushAndWait(func() {})
	eng.Run()
	stores := tr.Counters.Get("prosper.bitmap_stores")
	// Same granule again: merge produces no change, store suppressed,
	// load still issued (accumulate-apply must read to merge).
	tr.ObserveStore(tStackLo, 8)
	tr.FlushAndWait(func() {})
	eng.Run()
	if tr.Counters.Get("prosper.bitmap_stores") != stores {
		t.Fatal("redundant bitmap store not suppressed")
	}
	if tr.Counters.Get("prosper.bitmap_loads") != 2 {
		t.Fatalf("loads = %d, want 2", tr.Counters.Get("prosper.bitmap_loads"))
	}
}

func TestLoadUpdatePolicyTrafficShape(t *testing.T) {
	tr, _, _, eng := newTestTracker(Config{Policy: LoadUpdate, HWM: 32})
	tr.ObserveStore(tStackLo, 8)
	tr.ObserveStore(tStackLo+8, 8)
	tr.FlushAndWait(func() {})
	eng.Run()
	// One allocation load, one writeback store, no writeback load.
	if got := tr.Counters.Get("prosper.bitmap_loads"); got != 1 {
		t.Fatalf("loads = %d, want 1", got)
	}
	if got := tr.Counters.Get("prosper.bitmap_stores"); got != 1 {
		t.Fatalf("stores = %d, want 1", got)
	}
}

func TestTouchedRange(t *testing.T) {
	tr, _, _, _ := newTestTracker(Config{})
	if _, _, any := tr.TouchedRange(); any {
		t.Fatal("touched before any store")
	}
	tr.ObserveStore(tStackLo+0x800, 8)
	tr.ObserveStore(tStackLo+0x100, 16)
	lo, hi, any := tr.TouchedRange()
	if !any || lo != tStackLo+0x100 || hi != tStackLo+0x808 {
		t.Fatalf("touched = [%#x,%#x) any=%v", lo, hi, any)
	}
	tr.ResetInterval()
	if _, _, any := tr.TouchedRange(); any {
		t.Fatal("touched survives reset")
	}
}

func TestSaveRestoreState(t *testing.T) {
	tr, _, _, eng := newTestTracker(Config{})
	tr.ObserveStore(tStackLo+64, 8)
	tr.FlushAndWait(func() {})
	eng.Run()
	st := tr.SaveState()
	tr.Configure(0x1000, 0x2000, 0x99, 8) // clobber
	tr.RestoreState(st)
	if got := tr.MSRState(); got.StackLo != tStackLo || got.BitmapBase != tBitmap || !got.Enabled {
		t.Fatalf("restored MSRs = %+v", got)
	}
	lo, _, any := tr.TouchedRange()
	if !any || lo != tStackLo+64 {
		t.Fatal("touched range not restored")
	}
}

func TestSaveStateBeforeFlushPanics(t *testing.T) {
	tr, _, _, _ := newTestTracker(Config{})
	tr.ObserveStore(tStackLo, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with live entries")
		}
	}()
	tr.SaveState()
}

func TestBadGranularityPanics(t *testing.T) {
	tr, _, _, _ := newTestTracker(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for granularity 12")
		}
	}()
	tr.Configure(0, 0x1000, 0, 12)
}

func TestBitmapBytes(t *testing.T) {
	if got := BitmapBytes(1<<20, 8); got != (1<<20)/8/32*4 {
		t.Fatalf("BitmapBytes(1MiB,8) = %d", got)
	}
	if got := BitmapBytes(100, 8); got != 4 {
		t.Fatalf("BitmapBytes(100,8) = %d (13 granules -> 1 word)", got)
	}
	if got := BitmapBytes(4096, 128); got != 4 {
		t.Fatalf("BitmapBytes(4096,128) = %d", got)
	}
}

// The central correctness property of the whole mechanism: for any store
// sequence, after flush+quiesce the set of dirty granules in the bitmap
// equals exactly the set of granules touched by in-range stores.
func TestTrackerExactnessProperty(t *testing.T) {
	f := func(offsets []uint32, sizes []uint8, cfgPick uint8) bool {
		cfgs := []Config{
			{},                              // paper defaults
			{TableSize: 2, HWM: 3, LWM: 2},  // tiny, eviction-heavy
			{Policy: LoadUpdate},            // alternative policy
			{TableSize: 4, HWM: 30, LWM: 1}, // random evictions likely
		}
		cfg := cfgs[int(cfgPick)%len(cfgs)]
		tr, _, storage, eng := newTestTracker(cfg)
		want := map[uint64]bool{}
		for i, off := range offsets {
			size := 1
			if i < len(sizes) {
				size = int(sizes[i]%16) + 1
			}
			addr := tStackLo + uint64(off)%(tStackHi-tStackLo-16)
			tr.ObserveStore(addr, size)
			for g := (addr - tStackLo) / 8; g <= (addr+uint64(size)-1-tStackLo)/8; g++ {
				want[g] = true
			}
		}
		quiet := false
		tr.FlushAndWait(func() { quiet = true })
		eng.Run()
		if !quiet {
			return false
		}
		got := dirtyGranules(storage, 8)
		if len(got) != len(want) {
			return false
		}
		for g := range want {
			if !got[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Inspect's coalesced ranges exactly cover the dirty granules.
func TestInspectRoundTripProperty(t *testing.T) {
	f := func(offsets []uint32) bool {
		tr, _, storage, eng := newTestTracker(Config{})
		want := map[uint64]bool{}
		for _, off := range offsets {
			addr := tStackLo + uint64(off)%(tStackHi-tStackLo-8)
			tr.ObserveStore(addr, 8)
			for g := (addr - tStackLo) / 8; g <= (addr+7-tStackLo)/8; g++ {
				want[g] = true
			}
		}
		tr.FlushAndWait(func() {})
		eng.Run()
		lo, hi, any := tr.TouchedRange()
		res := Inspect(storage, tr.MSRState(), lo, hi, any)
		covered := map[uint64]bool{}
		for _, r := range res.Ranges {
			if r.Size == 0 || r.Addr%8 != 0 {
				return false
			}
			for g := (r.Addr - tStackLo) / 8; g < (r.Addr+r.Size-tStackLo)/8; g++ {
				if covered[g] {
					return false // overlapping ranges
				}
				covered[g] = true
			}
		}
		if len(covered) != len(want) {
			return false
		}
		for g := range want {
			if !covered[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInspectCoalescesAdjacent(t *testing.T) {
	tr, _, storage, eng := newTestTracker(Config{})
	// Three adjacent granules + one distant: expect exactly 2 ranges.
	for i := 0; i < 3; i++ {
		tr.ObserveStore(tStackLo+uint64(i*8), 8)
	}
	tr.ObserveStore(tStackLo+0x1000, 8)
	tr.FlushAndWait(func() {})
	eng.Run()
	lo, hi, any := tr.TouchedRange()
	res := Inspect(storage, tr.MSRState(), lo, hi, any)
	if len(res.Ranges) != 2 {
		t.Fatalf("ranges = %+v", res.Ranges)
	}
	if res.Ranges[0].Size != 24 {
		t.Fatalf("first range size = %d, want 24", res.Ranges[0].Size)
	}
	if res.DirtyBytes != 32 {
		t.Fatalf("dirty bytes = %d, want 32", res.DirtyBytes)
	}
}

func TestInspectCrossWordRun(t *testing.T) {
	tr, _, storage, eng := newTestTracker(Config{})
	// Granules 30..33 span the word boundary; must coalesce to one range.
	for g := 30; g <= 33; g++ {
		tr.ObserveStore(tStackLo+uint64(g*8), 8)
	}
	tr.FlushAndWait(func() {})
	eng.Run()
	lo, hi, any := tr.TouchedRange()
	res := Inspect(storage, tr.MSRState(), lo, hi, any)
	if len(res.Ranges) != 1 || res.Ranges[0].Size != 32 {
		t.Fatalf("ranges = %+v", res.Ranges)
	}
}

func TestClearBitmap(t *testing.T) {
	tr, _, storage, eng := newTestTracker(Config{})
	tr.ObserveStore(tStackLo, 8)
	tr.ObserveStore(tStackLo+0x2000, 8)
	tr.FlushAndWait(func() {})
	eng.Run()
	lo, hi, any := tr.TouchedRange()
	n := Clear(storage, tr.MSRState(), lo, hi, any)
	if n != 2 {
		t.Fatalf("cleared words = %d, want 2", n)
	}
	if len(dirtyGranules(storage, 8)) != 0 {
		t.Fatal("bits survived clear")
	}
}

func TestInspectEmptyWindow(t *testing.T) {
	_, _, storage, _ := newTestTracker(Config{})
	res := Inspect(storage, MSRs{StackLo: tStackLo, StackHi: tStackHi, BitmapBase: tBitmap, Gran: 8}, 0, 0, false)
	if len(res.Ranges) != 0 || res.DirtyBytes != 0 {
		t.Fatal("empty window produced ranges")
	}
}

func TestTrackerGranularity128(t *testing.T) {
	eng := sim.NewEngine()
	port := &countPort{eng: eng, latency: 10}
	storage := mem.NewStorage()
	tr := New(eng, port, storage, Config{})
	tr.Configure(tStackLo, tStackHi, tBitmap, 128)
	tr.Enable()
	tr.ObserveStore(tStackLo+5, 8)   // granule 0
	tr.ObserveStore(tStackLo+130, 8) // granule 1
	tr.ObserveStore(tStackLo+127, 2) // spans granules 0,1
	tr.FlushAndWait(func() {})
	eng.Run()
	lo, hi, any := tr.TouchedRange()
	res := Inspect(storage, tr.MSRState(), lo, hi, any)
	if res.DirtyBytes != 256 {
		t.Fatalf("dirty bytes = %d, want 256 (2 granules x 128B)", res.DirtyBytes)
	}
}

// Benchmark used by the ablation study: alloc policies under a
// call-return-heavy pattern.
func BenchmarkObserveStore(b *testing.B) {
	tr, _, _, eng := newTestTracker(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.ObserveStore(tStackLo+uint64(i%4096)*8, 8)
		if i%1024 == 0 {
			eng.RunUntil(eng.Now() + 100)
		}
	}
	eng.Run()
}

// TouchedRange returns the lowest and highest tracked byte touched during
// the interval — the "maximum active stack region" the hardware shares
// with the OS so bitmap inspection and clearing can be bounded.
func (t *Tracker) TouchedRange() (lo, hi uint64, any bool) {
	return t.touchedLo, t.touchedHi, t.anyTouched
}
