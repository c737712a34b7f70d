package kernel

import (
	"strings"
	"testing"

	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/snapbuf"
	"prosper/internal/workload"
)

// snapBoot builds the fixed two-process kernel the kernel-level snapshot
// tests use: one checkpointing process under prosper and one plain
// counter that finishes before the first commit (so its ticker-less,
// mechanism-less encoding is exercised too). run captures the kernel
// payload at the first commit hook.
func snapBoot() (*Kernel, *Process) {
	k := testKernel(1)
	p := k.Spawn(ProcessConfig{
		Name:               "app",
		StackMech:          persist.NewProsper(persist.ProsperConfig{}),
		CheckpointInterval: 500 * sim.Microsecond,
		StackReserve:       16 << 10,
		HeapSize:           64 << 10,
	}, workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 32}))
	k.Spawn(ProcessConfig{Name: "bg", StackReserve: 16 << 10, HeapSize: 64 << 10},
		workload.NewCounter(50))
	return k, p
}

func captureKernelSnap(t *testing.T) (*Kernel, []byte) {
	t.Helper()
	k, p := snapBoot()
	var saved []byte
	p.CommitHook = func(proc *Process) {
		if saved != nil {
			return
		}
		if hp, sync := k.hookProc, k.hookSync; hp != proc || sync {
			t.Errorf("SnapshotPoint inside hook = (%v, %v)", hp, sync)
		}
		w := snapbuf.NewWriter()
		var claims sim.EventClaims
		if err := k.SaveSnap(w, &claims); err != nil {
			t.Fatalf("SaveSnap at commit hook: %v", err)
		}
		saved = w.Bytes()
	}
	k.RunFor(2 * sim.Millisecond)
	if saved == nil {
		t.Fatal("no commit hook fired")
	}
	return k, saved
}

func TestKernelSnapRoundTripAndTruncation(t *testing.T) {
	_, data := captureKernelSnap(t)

	fresh, _ := snapBoot()
	if err := fresh.LoadSnap(snapbuf.NewReader(data), nil); err != nil {
		t.Fatalf("full payload LoadSnap: %v", err)
	}
	if hp, _ := fresh.hookProc, fresh.hookSync; hp == nil {
		t.Fatal("LoadSnap did not re-enter the commit hook")
	}
	// Every truncation length must be rejected, but booting a kernel per
	// prefix is expensive: sweep the structured head densely and sample
	// the long page-table/mechanism tail (sparser still under -short,
	// where the race detector multiplies every boot).
	dense, stride := 384, 37
	if testing.Short() {
		dense, stride = 96, 211
	}
	lengths := make([]int, 0, 640)
	for n := 0; n < len(data) && n < dense; n++ {
		lengths = append(lengths, n)
	}
	for n := dense; n < len(data); n += stride {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		victim, _ := snapBoot()
		if err := victim.LoadSnap(snapbuf.NewReader(data[:n]), nil); err == nil {
			t.Fatalf("LoadSnap accepted a %d/%d-byte prefix", n, len(data))
		}
	}
}

func TestKernelSnapRejectsMismatchedBoot(t *testing.T) {
	_, data := captureKernelSnap(t)
	load := func(k *Kernel) error { return k.LoadSnap(snapbuf.NewReader(data), nil) }

	t.Run("core count", func(t *testing.T) {
		k := testKernel(2)
		if err := load(k); err == nil || !strings.Contains(err.Error(), "cores in snapshot") {
			t.Fatalf("err = %v, want core-count rejection", err)
		}
	})
	t.Run("process count", func(t *testing.T) {
		k := testKernel(1)
		if err := load(k); err == nil || !strings.Contains(err.Error(), "processes in snapshot") {
			t.Fatalf("err = %v, want process-count rejection", err)
		}
	})
	t.Run("process identity", func(t *testing.T) {
		k := testKernel(1)
		k.Spawn(ProcessConfig{Name: "other", StackMech: persist.NewProsper(persist.ProsperConfig{}),
			CheckpointInterval: 500 * sim.Microsecond, StackReserve: 16 << 10, HeapSize: 64 << 10},
			workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 32}))
		k.Spawn(ProcessConfig{Name: "bg", StackReserve: 16 << 10, HeapSize: 64 << 10},
			workload.NewCounter(50))
		if err := load(k); err == nil || !strings.Contains(err.Error(), "process mismatch") {
			t.Fatalf("err = %v, want process-identity rejection", err)
		}
	})
	t.Run("thread count", func(t *testing.T) {
		// A second thread adds a stack VMA, so the address space refuses
		// before the kernel's own thread-count check is reached.
		k := testKernel(1)
		k.Spawn(ProcessConfig{Name: "app", StackMech: persist.NewProsper(persist.ProsperConfig{}),
			CheckpointInterval: 500 * sim.Microsecond, StackReserve: 16 << 10, HeapSize: 64 << 10},
			workload.NewRandom(workload.MicroParams{ArrayBytes: 8 << 10, WritesPerRun: 32}),
			workload.NewCounter(10))
		k.Spawn(ProcessConfig{Name: "bg", StackReserve: 16 << 10, HeapSize: 64 << 10},
			workload.NewCounter(50))
		if err := load(k); err == nil || !strings.Contains(err.Error(), "VMA count mismatch") {
			t.Fatalf("err = %v, want shape rejection", err)
		}
	})
	t.Run("stale ticker", func(t *testing.T) {
		// Loading into a kernel whose clock has advanced past the saved
		// ticker fire times must refuse: a resumed event may never land in
		// the engine's past.
		k, _ := snapBoot()
		k.RunFor(10 * sim.Millisecond)
		if err := load(k); err == nil || !strings.Contains(err.Error(), "in the past") {
			t.Fatalf("err = %v, want past-event rejection", err)
		}
	})
}

func TestKernelSnapRequiresQuiescence(t *testing.T) {
	k, p := snapBoot()
	k.RunFor(200 * sim.Microsecond)

	// Outside any commit hook.
	if hp, _ := k.hookProc, k.hookSync; hp != nil {
		t.Fatal("SnapshotPoint non-nil outside a commit hook")
	}
	w := snapbuf.NewWriter()
	var claims sim.EventClaims
	if err := k.SaveSnap(w, &claims); err == nil ||
		!strings.Contains(err.Error(), "commit hooks only") {
		t.Fatalf("err = %v, want outside-hook rejection", err)
	}

	// Inside the hook of a synchronous checkpoint: its host-side done
	// closure cannot cross a snapshot.
	var hookErr error
	hooked := false
	p.CommitHook = func(*Process) {
		hooked = true
		w := snapbuf.NewWriter()
		var claims sim.EventClaims
		hookErr = k.SaveSnap(w, &claims)
	}
	done := false
	p.Checkpoint(func() { done = true })
	k.Eng.RunWhile(func() bool { return !done })
	if !hooked {
		t.Fatal("synchronous checkpoint never reached its commit hook")
	}
	if hookErr == nil || !strings.Contains(hookErr.Error(), "synchronous checkpoint") {
		t.Fatalf("err = %v, want synchronous-checkpoint rejection", hookErr)
	}
}

func TestFinishResumeWithoutHook(t *testing.T) {
	k := testKernel(1)
	if err := k.FinishResume(); err == nil {
		t.Fatal("FinishResume succeeded with no resumed commit hook")
	}
}

func TestFindThread(t *testing.T) {
	k, p := snapBoot()
	if got := k.findThread(p.PID, 0); got != p.Threads[0] {
		t.Fatalf("findThread(%d, 0) = %v", p.PID, got)
	}
	if got := k.findThread(p.PID, 99); got != nil {
		t.Fatalf("findThread unknown tid = %v", got)
	}
	if got := k.findThread(999, 0); got != nil {
		t.Fatalf("findThread unknown pid = %v", got)
	}
}
