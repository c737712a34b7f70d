package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-iterations", "-3"},
		{"-iterations", "0"},
		{"-interval", "-5"},
		{"-interval", "0"},
		{"-crash-after", "0"},
		{"-crash-after", "-1"},
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
				t.Errorf("bad flag still ran the demo:\n%s", stdout.String())
			}
			if stderr.Len() == 0 {
				t.Error("no diagnostic on stderr")
			}
		})
	}
}

func TestRunRecoversAndCompletes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-iterations", "20000", "-interval", "100", "-crash-after", "400"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %s)\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	for _, want := range []string{"progress at crash:", "recovered process ran to completion: 20000/20000", "OK:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output missing %q:\n%s", want, stdout.String())
		}
	}
}
