package kernel

import (
	"bytes"
	"testing"

	"prosper/internal/journey"
	"prosper/internal/machine"
	"prosper/internal/persist"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// TestJourneyAttributionInvariantPerMechanism drives sampled journeys
// through full kernel runs under every stack mechanism and checks the
// subsystem's core contract end to end: each finished journey's
// per-stage cycle vector sums EXACTLY to its measured latency — the
// same "every cycle charged to exactly one cause" invariant
// persist.Attrib pins for checkpoint pauses — and the serialized
// journal re-validates through the parser.
func TestJourneyAttributionInvariantPerMechanism(t *testing.T) {
	mechs := []struct {
		name string
		mk   func() persist.Factory
		run  sim.Time
	}{
		{"prosper", func() persist.Factory { return persist.NewProsper(persist.ProsperConfig{}) }, 800 * sim.Microsecond},
		{"dirtybit", func() persist.Factory { return persist.NewDirtybit(persist.DirtybitConfig{}) }, 800 * sim.Microsecond},
		{"ssp", func() persist.Factory { return persist.NewSSP(persist.SSPConfig{}) }, 800 * sim.Microsecond},
		{"romulus", func() persist.Factory { return persist.NewRomulus() }, 2 * sim.Millisecond},
	}
	for _, m := range mechs {
		m := m
		t.Run(m.name, func(t *testing.T) {
			jl := journey.NewJournal()
			r := jl.NewRecorder(m.name, 16, 1)
			k := New(Config{
				Machine: machine.Config{Cores: 2},
				Quantum: 200 * sim.Microsecond,
				Journey: r,
			})
			p := k.Spawn(ProcessConfig{
				Name:               "journeys",
				StackMech:          m.mk(),
				CheckpointInterval: 150 * sim.Microsecond,
				Seed:               11,
			}, workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 96}),
				workload.NewApp(workload.GapbsPR())) // loads as well as stores
			k.RunFor(m.run)
			p.Shutdown()

			accesses, sampled, finished := r.Counts()
			if accesses == 0 || sampled == 0 {
				t.Fatalf("no journeys sampled (accesses %d, sampled %d)", accesses, sampled)
			}
			if finished == 0 {
				t.Fatal("no journeys finished within the run")
			}
			var loads, stores int
			for _, j := range r.Journeys() {
				if !j.Finished() {
					continue
				}
				if j.Write {
					stores++
				} else {
					loads++
				}
				var sum int64
				for s := 0; s < journey.NumStages; s++ {
					sum += int64(j.Vec[s])
				}
				if sum != int64(j.Latency()) {
					t.Fatalf("jid %d (seq %d): vector sums to %d, latency %d\nspans: %+v\nvec: %+v",
						j.JID, j.Seq, sum, j.Latency(), j.Spans, j.Vec)
				}
				for _, sp := range j.Spans {
					if sp.Enter < j.Start || sp.Exit > j.End {
						t.Fatalf("jid %d: span %s/%s [%d,%d) escapes journey [%d,%d]",
							j.JID, sp.Stage, sp.Cause, sp.Enter, sp.Exit, j.Start, j.End)
					}
				}
			}
			if loads == 0 || stores == 0 {
				t.Fatalf("sampled only one access kind (loads %d, stores %d)", loads, stores)
			}

			// The serialized journal must round-trip the same invariants.
			var buf bytes.Buffer
			if err := jl.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			parsed, err := journey.Parse(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("journal does not re-parse: %v", err)
			}
			if err := parsed.CheckInvariants(); err != nil {
				t.Fatalf("journal fails validation: %v", err)
			}
		})
	}
}

// TestJourneyRecorderOffIsIdentical pins that attaching no recorder and
// attaching none at all produce the same simulation: the journey hooks
// must be invisible to the machine's timing when tracing is off.
func TestJourneyRecorderOffIsIdentical(t *testing.T) {
	run := func(r *journey.Recorder) (uint64, sim.Time) {
		k := New(Config{
			Machine: machine.Config{Cores: 1},
			Quantum: 200 * sim.Microsecond,
			Journey: r,
		})
		p := k.Spawn(ProcessConfig{
			Name:               "off",
			StackMech:          persist.NewProsper(persist.ProsperConfig{}),
			CheckpointInterval: 150 * sim.Microsecond,
			Seed:               5,
		}, workload.NewRandom(workload.MicroParams{ArrayBytes: 16 << 10, WritesPerRun: 96}))
		k.RunFor(600 * sim.Microsecond)
		ops := p.Threads[0].UserOps
		p.Shutdown()
		return ops, k.Eng.Now()
	}
	opsOff, nowOff := run(nil)
	opsOn, nowOn := run(journey.NewRecorder("on", 16, 1))
	if opsOff != opsOn || nowOff != nowOn {
		t.Fatalf("journey recording perturbed the run: ops %d vs %d, now %d vs %d",
			opsOff, opsOn, nowOff, nowOn)
	}
}
