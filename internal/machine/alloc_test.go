package machine

import (
	"testing"
)

// These tests pin the allocation cost of the simulator's hot access
// paths after the flat-event-core refactor: steady-state loads must not
// allocate on the Go heap, whichever level of the memory system they
// resolve in. testing.AllocsPerRun runs each body once to warm pools and
// lazily-grown queues before measuring, so the bounds here are true
// steady-state figures, not cold-start ones.

// allocEnv builds a machine, pre-faults the page under test so the TLB
// and page tables are warm, and returns a reusable read-completion
// callback (bound once, like the kernel's per-thread callbacks).
func allocEnv(t *testing.T) (m *Machine, core *Core, readDone func([]byte)) {
	t.Helper()
	m, core, _ = testEnv(t)
	core.Write(addrUnderTest, []byte{1}, nil)
	m.Eng.Run()
	return m, core, func([]byte) {}
}

const addrUnderTest = uint64(0x10000)

func TestAllocsL1Hit(t *testing.T) {
	m, core, readDone := allocEnv(t)
	core.Read(addrUnderTest, 8, readDone) // populate L1
	m.Eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		core.Read(addrUnderTest, 8, readDone)
		m.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("L1 hit load allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsL1MissL2Hit(t *testing.T) {
	m, core, readDone := allocEnv(t)
	core.Read(addrUnderTest, 8, readDone) // populate L1+L2+L3
	m.Eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		core.l1.Flush() // line is read-only clean: invalidate, no writeback
		m.Eng.Run()
		core.Read(addrUnderTest, 8, readDone)
		m.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("TLB hit + L1 miss -> L2 hit allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAllocsFullMissDeviceRoundTrip(t *testing.T) {
	m, core, readDone := allocEnv(t)
	core.Read(addrUnderTest, 8, readDone)
	m.Eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		core.l1.Flush()
		core.L2().Flush()
		m.Hier.L3.Flush()
		m.Eng.Run()
		core.Read(addrUnderTest, 8, readDone) // full miss: L1->L2->L3->DRAM
		m.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("full miss -> device round trip allocates %.1f objects/op, want 0", allocs)
	}
}
