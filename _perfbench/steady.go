package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs the workload n times, each in its own process with its
// own seed (seed, seed+1, ...), and prints each metric's median,
// quartiles and spread: the distance between the quartiles as a share of
// the median. A metric whose spread exceeds the bound BENCHMARK.json
// gives it is flagged. The quartiles are Python's
// statistics.quantiles(values, n=4).
func runSteady(name string, seed uint64, seconds, traced, n int) error {
	bounds := readBounds("BENCHMARK.json")
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed+uint64(i), 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		var rep report
		if err := json.Unmarshal(lastLine(out), &rep); err != nil {
			return fmt.Errorf("run %d: result line: %w", i+1, err)
		}
		if !rep.Correct {
			fmt.Printf("run %d (seed %d): %d of %d failed\n", i+1, seed+uint64(i), rep.Failed, rep.Attempted)
		}
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-30s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, k := range keys {
		q := quartiles(values[k])
		spread := (q[2] - q[0]) / q[1]
		flag := ""
		b, ok := bounds[k]
		if ok && spread > b {
			flag = "  SPREAD ABOVE BOUND"
		}
		bs := "-"
		if ok {
			bs = strconv.FormatFloat(b, 'f', 2, 64)
		}
		fmt.Printf("%-30s %14.6g %14.6g %14.6g %8.4f %6s %s%s\n", k, q[0], q[1], q[2], spread, bs, units[k], flag)
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// readBounds returns the end-to-end bounds BENCHMARK.json declares, or
// none when it cannot be read.
func readBounds(path string) map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := map[string]float64{}
	data, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(data, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
