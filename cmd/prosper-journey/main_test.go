package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prosper/internal/journey"
)

// sampleJournal builds a two-journey journal on disk and returns its path.
func sampleJournal(t *testing.T) string {
	t.Helper()
	jl := journey.NewJournal()
	r := jl.NewRecorder("unit", 1, 1)
	jid := r.Start(0, false, 0x1000, 8, 1)
	r.Span(jid, journey.StageL1, journey.CauseMiss, 0, 60)
	r.Span(jid, journey.StageDevService, journey.CauseDRAM, 20, 50)
	r.SegDone(jid, 60)
	jid = r.Start(100, true, 0x2000, 8, 1)
	r.Span(jid, journey.StageL1, journey.CauseHit, 100, 103)
	r.SegDone(jid, 103)

	var buf bytes.Buffer
	if err := jl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTextReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-top", "2", sampleJournal(t)}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"journey journal v1", "== unit", "dev_service", "top 2 slowest", "anatomy of the slowest access"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunStageTableOnly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-stage-table", sampleJournal(t)}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "top ") || strings.Contains(stdout.String(), "anatomy") {
		t.Fatalf("-stage-table leaked the top-K section:\n%s", stdout.String())
	}
}

func TestRunJSONFromStdin(t *testing.T) {
	data, err := os.ReadFile(sampleJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json"}, bytes.NewReader(data), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{`"journey_journal": 1`, `"run": "unit"`, `"dominant": "l1"`} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("JSON missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunExitCodes pins the failure contract: usage errors, unreadable
// files, malformed journals, and invariant violations all exit 2.
func TestRunExitCodes(t *testing.T) {
	badVec := "{\"journey_journal\":1}\n" +
		`{"run":"x","rate":1,"seed":1,"accesses":1,"sampled":1,"finished":1}` + "\n" +
		`{"jid":1,"seq":1,"kind":"load","vaddr":1,"size":8,"start":0,"end":10,"latency":10,"stages":[],"vec":{"l1":3}}` + "\n"
	cases := []struct {
		name  string
		args  []string
		stdin string
	}{
		{"two args", []string{"a.jsonl", "b.jsonl"}, ""},
		{"bad flag", []string{"-nope"}, ""},
		{"missing file", []string{filepath.Join(t.TempDir(), "absent.jsonl")}, ""},
		{"malformed", nil, "garbage\n"},
		{"invariant violation", nil, badVec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
		})
	}
}
