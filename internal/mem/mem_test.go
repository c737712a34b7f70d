package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"prosper/internal/sim"
)

func TestStorageReadWriteRoundTrip(t *testing.T) {
	s := NewStorage()
	data := []byte("hello hybrid memory")
	s.Write(0x1234, data)
	got := make([]byte, len(data))
	s.Read(0x1234, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestStorageCrossPageWrite(t *testing.T) {
	s := NewStorage()
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := uint64(PageSize - 100)
	s.Write(addr, data)
	got := make([]byte, len(data))
	s.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}
}

func TestStorageZeroFill(t *testing.T) {
	s := NewStorage()
	buf := make([]byte, 128)
	for i := range buf {
		buf[i] = 0xff
	}
	s.Read(0xdeadbeef, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d not zero: %#x", i, b)
		}
	}
}

func TestStorageU64U32(t *testing.T) {
	s := NewStorage()
	s.WriteU64(0x100, 0x0123456789abcdef)
	if got := s.ReadU64(0x100); got != 0x0123456789abcdef {
		t.Fatalf("u64 = %#x", got)
	}
	if got := s.ReadU32(0x100); got != 0x89abcdef {
		t.Fatalf("little-endian low word = %#x", got)
	}
	s.WriteU32(0x104, 0xcafebabe)
	if got := s.ReadU64(0x100); got != 0xcafebabe89abcdef {
		t.Fatalf("mixed = %#x", got)
	}
}

func TestStorageCopy(t *testing.T) {
	s := NewStorage()
	src := []byte("checkpointed stack bytes")
	s.Write(0x5000, src)
	s.Copy(NVMBase+0x80, 0x5000, len(src))
	got := make([]byte, len(src))
	s.Read(NVMBase+0x80, got)
	if !bytes.Equal(got, src) {
		t.Fatal("copy mismatch")
	}
}

func TestStorageDropRange(t *testing.T) {
	s := NewStorage()
	s.WriteU64(0x2000, 1)           // DRAM
	s.WriteU64(NVMBase+0x2000, 2)   // NVM
	s.DropRange(DRAMBase, DRAMSize) // power failure: DRAM vanishes
	if got := s.ReadU64(0x2000); got != 0 {
		t.Fatalf("DRAM survived drop: %d", got)
	}
	if got := s.ReadU64(NVMBase + 0x2000); got != 2 {
		t.Fatalf("NVM lost after DRAM drop: %d", got)
	}
}

// Property: any sequence of writes followed by reads behaves like a flat
// byte array (last writer wins).
func TestStorageMatchesFlatArrayProperty(t *testing.T) {
	const window = 1 << 16
	f := func(ops []struct {
		Addr uint32
		Val  byte
	}) bool {
		s := NewStorage()
		ref := make([]byte, window)
		for _, op := range ops {
			a := uint64(op.Addr % window)
			s.Write(a, []byte{op.Val})
			ref[a] = op.Val
		}
		got := make([]byte, window)
		s.Read(0, got)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutHelpers(t *testing.T) {
	if IsNVM(0) || !IsDRAM(0) {
		t.Fatal("address 0 should be DRAM")
	}
	if !IsNVM(NVMBase) || IsDRAM(NVMBase) {
		t.Fatal("NVMBase should be NVM")
	}
	if PageOf(0x1fff) != 0x1000 {
		t.Fatalf("PageOf = %#x", PageOf(0x1fff))
	}
	if LineOf(0x1c5) != 0x1c0 {
		t.Fatalf("LineOf = %#x", LineOf(0x1c5))
	}
	if n := LinesSpanned(0x3f, 2); n != 2 {
		t.Fatalf("LinesSpanned crossing = %d", n)
	}
	if n := LinesSpanned(0x40, 64); n != 1 {
		t.Fatalf("LinesSpanned aligned = %d", n)
	}
	if n := LinesSpanned(0, 0); n != 0 {
		t.Fatalf("LinesSpanned empty = %d", n)
	}
	if n := PagesSpanned(PageSize-1, 2); n != 2 {
		t.Fatalf("PagesSpanned crossing = %d", n)
	}
}

func TestDeviceLatencyOrdering(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, DDR4Config())
	var readDone, writeDone sim.Time
	d.Access(false, 0x1000, sim.Thunk(sim.CompMem, func() { readDone = eng.Now() }))
	d.Access(true, NVMBase, sim.Thunk(sim.CompMem, func() { writeDone = eng.Now() }))
	eng.Run()
	if readDone < 135 {
		t.Fatalf("read completed too early: %d", readDone)
	}
	_ = writeDone
}

func TestNVMWriteSlowerThanDRAM(t *testing.T) {
	eng := sim.NewEngine()
	c := NewController(eng)
	var dramT, nvmT sim.Time
	c.Access(true, 0x1000, sim.Thunk(sim.CompMem, func() { dramT = eng.Now() }))
	c.Access(true, NVMBase+0x1000, sim.Thunk(sim.CompMem, func() { nvmT = eng.Now() }))
	eng.Run()
	if nvmT <= dramT*2 {
		t.Fatalf("NVM write (%d) should be much slower than DRAM write (%d)", nvmT, dramT)
	}
}

func TestDeviceBandwidthBacklog(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, DDR4Config())
	const n = 1000
	var last sim.Time
	for i := 0; i < n; i++ {
		addr := uint64(i) * LineSize
		d.Access(false, addr, sim.Thunk(sim.CompMem, func() {
			if eng.Now() > last {
				last = eng.Now()
			}
		}))
	}
	eng.Run()
	// 1000 line reads at 10 cycles bus occupancy each cannot finish faster
	// than ~10k cycles; and bank parallelism must keep it well under the
	// fully serialized 135k cycles.
	if last < 9000 {
		t.Fatalf("bandwidth too high: finished at %d", last)
	}
	if last > 135*n {
		t.Fatalf("no parallelism: finished at %d", last)
	}
}

func TestNVMWriteBufferBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, PCMConfig())
	const n = 200 // far more than the 48-entry write buffer
	completed := 0
	for i := 0; i < n; i++ {
		d.Access(true, uint64(i)*LineSize, sim.Thunk(sim.CompMem, func() { completed++ }))
	}
	if got := d.Counters.Get("nvm.buffer_stalls"); got == 0 {
		t.Fatal("expected write-buffer stalls")
	}
	eng.Run()
	if completed != n {
		t.Fatalf("completed = %d, want %d", completed, n)
	}
}

func TestDeviceCounters(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, DDR4Config())
	for i := 0; i < 5; i++ {
		d.Access(false, 0, sim.Done{})
	}
	for i := 0; i < 3; i++ {
		d.Access(true, 0, sim.Done{})
	}
	eng.Run()
	if d.Counters.Get("dram.reads") != 5 || d.Counters.Get("dram.writes") != 3 {
		t.Fatalf("counters:\n%v", d.Counters)
	}
}

func TestFrameAllocator(t *testing.T) {
	a := NewFrameAllocator(DRAMBase, 16*PageSize)
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		f, err := a.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if f%PageSize != 0 || seen[f] {
			t.Fatalf("bad frame %#x", f)
		}
		seen[f] = true
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("expected out-of-frames error")
	}
}
