package hostprof

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed prosper-prof profile fixture")

// prosperProfFixture is cmd/prosper-prof's committed test profile.
const prosperProfFixture = "../../cmd/prosper-prof/testdata/cpu.pb.gz"

// fixtureBuilder builds the prosper-prof fixture: a small synthetic CPU
// profile with realistic simulator stacks, so its bytes depend only on
// this build sequence.
func fixtureBuilder() *Builder {
	b := NewBuilder(
		ValueType{Type: "samples", Unit: "count"},
		ValueType{Type: "cpu", Unit: "nanoseconds"},
	)
	b.SetPeriod(ValueType{Type: "cpu", Unit: "nanoseconds"}, 10_000_000)
	b.SetTimes(1_754_000_000_000_000_000, 3_000_000_000)

	step := "prosper/internal/sim.(*Engine).Step"
	runFor := "prosper/internal/kernel.(*Kernel).RunFor"
	specRun := "prosper/internal/runner.Spec.Run"

	// Stacks are leaf-first, mirroring what runtime/pprof records for a
	// bench run: device completions, cache fills, core pipeline steps,
	// tracker polls, checkpoint copy loops, and runtime memmove under a
	// persist copy.
	b.Sample([]string{"prosper/internal/mem.(*Device).complete", step, runFor, specRun}, 14, 140_000_000)
	b.Sample([]string{"prosper/internal/cache.(*Cache).fill", step, runFor, specRun}, 9, 90_000_000)
	b.Sample([]string{"prosper/internal/machine.(*Core).step", step, runFor, specRun}, 31, 310_000_000)
	b.Sample([]string{"prosper/internal/vm.(*PageTable).Walk", "prosper/internal/machine.(*seqWalk).step", step, runFor, specRun}, 4, 40_000_000)
	b.Sample([]string{"prosper/internal/prosper.(*Tracker).poll", step, runFor, specRun}, 6, 60_000_000)
	b.Sample([]string{"prosper/internal/persist.(*prosperMech).Checkpoint", step, runFor, specRun}, 8, 80_000_000)
	b.Sample([]string{"runtime.memmove", "prosper/internal/persist.(*prosperMech).copyRange", step, runFor, specRun}, 5, 50_000_000)
	b.Sample([]string{"prosper/internal/kernel.(*Kernel).contextSwitch", step, runFor, specRun}, 3, 30_000_000)
	b.Sample([]string{"prosper/internal/workload.(*gapbsPR).Next", "prosper/internal/machine.(*Core).step", step, runFor, specRun}, 12, 120_000_000)
	b.Sample([]string{"prosper/internal/sim.(*Engine).pop", step, runFor, specRun}, 7, 70_000_000)
	b.Sample([]string{"runtime.mallocgc", "prosper/internal/telemetry.(*Tracer).Begin", specRun}, 2, 20_000_000)
	return b
}

// TestProsperProfFixture rebuilds cmd/prosper-prof's committed profile
// and checks it still matches, comparing the gunzipped protobuf so a
// different toolchain's flate output cannot fail it. Run with -update to
// rewrite the fixture; then regenerate prosper-prof's goldens from the
// repository root with
//
//	go run ./cmd/prosper-prof cmd/prosper-prof/testdata/cpu.pb.gz > cmd/prosper-prof/testdata/golden.table.txt
//	go run ./cmd/prosper-prof -json cmd/prosper-prof/testdata/cpu.pb.gz > cmd/prosper-prof/testdata/golden.json
func TestProsperProfFixture(t *testing.T) {
	b := fixtureBuilder()
	if *update {
		if err := os.WriteFile(prosperProfFixture, b.EncodeGzip(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(prosperProfFixture)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	committed, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, b.Encode()) {
		t.Errorf("%s no longer matches fixtureBuilder (run with -update if the change is intended)", prosperProfFixture)
	}
}
