package machine

import (
	"testing"

	"prosper/internal/journey"
)

// unsampledRecorder returns a live recorder whose rate is so high that
// no access in these short tests is ever selected: the "journeys on,
// this access unsampled" hot path, which must stay as cheap as tracing
// off entirely.
func unsampledRecorder() *journey.Recorder {
	return journey.NewRecorder("allocs", 1<<40, 1)
}

// TestAllocsJourneyOffUnsampled extends the PR 6 steady-state pins to
// the journey plumbing: with a recorder attached but the access not
// sampled, the L1-hit, L1-miss→L2-hit, and full-miss→device paths must
// still allocate nothing — the journey ID is a packed slot in the Done
// token and every recording site is behind a jid != 0 branch.
func TestAllocsJourneyOffUnsampled(t *testing.T) {
	shapes := []struct {
		name string
		prep func(m *Machine, core *Core)
	}{
		{"l1-hit", func(m *Machine, core *Core) {}},
		{"l1-miss-l2-hit", func(m *Machine, core *Core) {
			core.l1.Flush()
			m.Eng.Run()
		}},
		{"full-miss-device", func(m *Machine, core *Core) {
			core.l1.Flush()
			core.L2().Flush()
			m.Hier.L3.Flush()
			m.Eng.Run()
		}},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			m, core, readDone := allocEnv(t)
			r := unsampledRecorder()
			m.AttachJourneys(r)
			core.Read(addrUnderTest, 8, readDone) // populate the hierarchy
			m.Eng.Run()
			allocs := testing.AllocsPerRun(200, func() {
				sh.prep(m, core)
				core.Read(addrUnderTest, 8, readDone)
				m.Eng.Run()
			})
			if allocs != 0 {
				t.Fatalf("%s with unsampled journeys allocates %.1f objects/op, want 0", sh.name, allocs)
			}
			if _, sampled, _ := r.Counts(); sampled != 0 {
				t.Fatalf("rate 2^40 sampled %d accesses — the pin measured the wrong path", sampled)
			}
			if accesses, _, _ := r.Counts(); accesses == 0 {
				t.Fatal("recorder observed no accesses — journey plumbing not attached")
			}
		})
	}
}

// TestJourneySampledThroughMachine drives sampled loads and stores
// through the full machine and checks each finished journey's contract:
// the per-stage vector sums exactly to the measured latency, every span
// lies inside the journey window, and misses actually reach the deeper
// stages.
func TestJourneySampledThroughMachine(t *testing.T) {
	m, core, readDone := allocEnv(t)
	r := journey.NewRecorder("machine", 1, 1) // sample everything
	m.AttachJourneys(r)

	// The allocEnv pre-fault left the line cached: flush the whole
	// hierarchy so the first read is a genuine full miss.
	core.l1.Flush()
	core.L2().Flush()
	m.Hier.L3.Flush()
	m.Eng.Run()

	core.Read(addrUnderTest, 8, readDone) // full miss: L1→L2→L3→DRAM
	m.Eng.Run()
	core.Read(addrUnderTest, 8, readDone) // L1 hit
	m.Eng.Run()
	core.Write(addrUnderTest+64, []byte{1, 2, 3, 4, 5, 6, 7, 8}, nil)
	m.Eng.Run()

	js := r.Journeys()
	if len(js) != 3 {
		t.Fatalf("recorded %d journeys, want 3", len(js))
	}
	for _, j := range js {
		if !j.Finished() {
			t.Fatalf("jid %d unfinished after engine drain", j.JID)
		}
		if j.Latency() <= 0 {
			t.Fatalf("jid %d: non-positive latency %d", j.JID, j.Latency())
		}
		var sum int64
		for s := 0; s < journey.NumStages; s++ {
			sum += int64(j.Vec[s])
		}
		if sum != int64(j.Latency()) {
			t.Fatalf("jid %d: vector sums to %d, latency %d (%+v)", j.JID, sum, j.Latency(), j.Vec)
		}
		for _, sp := range j.Spans {
			if sp.Enter < j.Start || sp.Exit > j.End {
				t.Fatalf("jid %d: span %s [%d,%d) outside journey [%d,%d]",
					j.JID, sp.Stage, sp.Enter, sp.Exit, j.Start, j.End)
			}
		}
	}
	miss, hit := js[0], js[1]
	if miss.Vec[journey.StageDevService] == 0 {
		t.Fatalf("full miss charged no device-service cycles: %+v", miss.Vec)
	}
	if miss.Latency() <= hit.Latency() {
		t.Fatalf("miss latency %d not above hit latency %d", miss.Latency(), hit.Latency())
	}
	if hit.Vec[journey.StageL1] != hit.Latency() {
		t.Fatalf("L1 hit charged %d of %d cycles to L1: %+v", hit.Vec[journey.StageL1], hit.Latency(), hit.Vec)
	}
}
