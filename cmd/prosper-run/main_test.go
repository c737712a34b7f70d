package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-threads", "0"},
		{"-threads", "-2"},
		{"-cores", "0"},
		{"-duration", "0"},
		{"-duration", "-10"},
		{"-interval", "-5"},
		{"-arg", "-1"},
		{"-consolidation", "-1"},
		{"-stack", "nope"},
		{"-heap", "nope"},
		{"-workload", "nope"},
		{"-nope"},
		{"stray"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("bad flag still ran the workload:\n%s", stdout.String())
			}
			if stderr.Len() == 0 {
				t.Error("no diagnostic on stderr")
			}
		})
	}
}

func TestRunSmallWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "random", "-duration", "300", "-interval", "100", "-threads", "2", "-cores", "2"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"workload           random x2", "checkpoints        ", "fsck               clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "checkpoints        0\n") {
		t.Errorf("no checkpoint taken:\n%s", out)
	}
}
