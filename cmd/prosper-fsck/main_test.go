package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunCrashedSystemIsConsistent(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %s)\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	if !strings.Contains(stdout.String(), "NVM checkpoint areas are consistent") {
		t.Errorf("output missing the consistent verdict:\n%s", stdout.String())
	}
}

func TestRunCorruptionIsFound(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-corrupt"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	if !strings.Contains(stdout.String(), "PROBLEMS FOUND") {
		t.Errorf("output missing the problem report:\n%s", stdout.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-nope"}, {"stray"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
}
