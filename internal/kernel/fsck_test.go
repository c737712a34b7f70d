package kernel

import (
	"testing"

	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// buildCheckpointedState runs a process through a few checkpoints and
// returns the kernel for inspection/corruption.
func buildCheckpointedState(t *testing.T) *Kernel {
	t.Helper()
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{
		Name:               "fscked",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		HeapMech:           persist.NewDirtybit(persist.DirtybitConfig{}),
		HeapSize:           1 << 20,
		CheckpointInterval: 200 * sim.Microsecond,
	}, workload.NewCounter(10_000_000))
	k.RunFor(900 * sim.Microsecond)
	if p.CheckpointCount == 0 {
		t.Fatal("no checkpoints to fsck")
	}
	p.Shutdown()
	return k
}

func TestFsckCleanImage(t *testing.T) {
	k := buildCheckpointedState(t)
	rep := Fsck(k.Mach.Storage)
	if !rep.OK() {
		t.Fatalf("clean image reported problems: %v", rep.Problems)
	}
	if rep.Processes != 1 {
		t.Fatalf("processes = %d", rep.Processes)
	}
	if rep.Segments != 2 { // one stack + one heap
		t.Fatalf("segments = %d", rep.Segments)
	}
}

func TestFsckCleanAfterCrash(t *testing.T) {
	k := buildCheckpointedState(t)
	k.Mach.Crash()
	rep := Fsck(k.Mach.Storage)
	if !rep.OK() {
		t.Fatalf("post-crash NVM reported problems: %v", rep.Problems)
	}
}

func TestFsckDetectsBadMagic(t *testing.T) {
	k := buildCheckpointedState(t)
	k.Mach.Storage.WriteU64(superBase, 0xdeadbeef)
	rep := Fsck(k.Mach.Storage)
	if rep.OK() {
		t.Fatal("bad magic undetected")
	}
}

func TestFsckDetectsCorruptPhase(t *testing.T) {
	k := buildCheckpointedState(t)
	p := k.procs[0]
	k.Mach.Storage.WriteU64(p.Threads[0].StackSeg.MetaBase, 7)
	rep := Fsck(k.Mach.Storage)
	if rep.OK() {
		t.Fatal("invalid phase undetected")
	}
}

func TestFsckDetectsEntryBeyondSegment(t *testing.T) {
	k := buildCheckpointedState(t)
	p := k.procs[0]
	meta := p.Threads[0].StackSeg.MetaBase
	// Force phase TempValid with one absurd entry.
	st := k.Mach.Storage
	st.WriteU64(meta, 1)        // phase
	st.WriteU64(meta+16, 1)     // count
	st.WriteU64(meta+24, 64)    // total
	st.WriteU64(meta+64, 1<<40) // offset way beyond segment
	st.WriteU64(meta+64+8, 64)  // size
	rep := Fsck(st)
	if rep.OK() {
		t.Fatal("out-of-segment entry undetected")
	}
}

func TestFsckDetectsSizeMismatch(t *testing.T) {
	k := buildCheckpointedState(t)
	p := k.procs[0]
	meta := p.Threads[0].StackSeg.MetaBase
	st := k.Mach.Storage
	st.WriteU64(meta, 1)       // temp-valid: the only phase whose table is fenced
	st.WriteU64(meta+16, 1)    // one entry
	st.WriteU64(meta+24, 999)  // header total inconsistent with entry
	st.WriteU64(meta+64, 0)    // off
	st.WriteU64(meta+64+8, 64) // size 64 != 999
	rep := Fsck(st)
	if rep.OK() {
		t.Fatal("size mismatch undetected")
	}
}

func TestFsckDetectsImplausibleThreadCount(t *testing.T) {
	k := buildCheckpointedState(t)
	hdr, _ := k.super.findProc("fscked")
	k.Mach.Storage.WriteU64(hdr+8, 1000)
	rep := Fsck(k.Mach.Storage)
	if rep.OK() {
		t.Fatal("implausible thread count undetected")
	}
}

func TestFsckEmptyNVM(t *testing.T) {
	k := testKernel(1) // superblock initialized, no processes
	rep := Fsck(k.Mach.Storage)
	if !rep.OK() || rep.Processes != 0 {
		t.Fatalf("empty NVM: %+v", rep)
	}
}
