package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"prosper/internal/crash"
)

// pinnedOutputs is the simulated outcome of every spec and sweep at
// pinnedSeed, keyed by workload and spec label, and by mechanism.
type pinnedOutputs struct {
	Sim   map[string]map[string]simOut `json:"sim"`
	Crash map[string]sweepOut          `json:"crash"`
}

//go:embed pinned.json
var pinnedJSON []byte

var pinned pinnedOutputs

func loadPinned() error {
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return fmt.Errorf("pinned.json: %w", err)
	}
	return nil
}

// writePinned simulates every workload at pinnedSeed and writes the
// outputs to path. Regenerate pinned.json this way only for a change
// that is meant to alter simulated results.
func writePinned(path string) error {
	var t tally
	out := pinnedOutputs{Sim: map[string]map[string]simOut{}}
	for _, name := range []string{"app-steady", "ckpt-dense"} {
		specs := simSpecs(name)
		_, runs := simPass(specs, pinnedSeed, &t)
		out.Sim[name] = outMap(specs, runs)
	}
	_, out.Crash = crashPass(crashConfigs(pinnedSeed, crash.Mechanisms()), &t)
	if t.failed > 0 {
		return fmt.Errorf("pinned-seed runs failed: %v", t.notes)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
