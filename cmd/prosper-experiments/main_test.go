package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// cliEnv, when set, makes the test binary run main with the
// space-separated arguments it holds, so tests see real exit statuses.
const cliEnv = "PROSPER_EXPERIMENTS_CLI_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(cliEnv); ok {
		os.Args = append([]string{"prosper-experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs main in a child process and returns its exit status and
// output streams.
func runCLI(t *testing.T, args string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), cliEnv+"="+args)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

func TestCLIRejectsBadCounts(t *testing.T) {
	for _, args := range []string{
		"-crash-points 0",
		"-crash-sweep -crash-points 0",
		"-crash-sweep -crash-points -3",
		"-parallel 0",
		"-parallel -1 fig2",
		"-crash-sweep -parallel 0",
	} {
		t.Run(args, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, args)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("rejected flags still ran:\n%s", stdout)
			}
			if !strings.Contains(stderr, "must be >= 1") {
				t.Errorf("stderr lacks the diagnostic: %s", stderr)
			}
		})
	}
}

func TestCLIRunsQuickFigure(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-parallel 1 -progress=false fig2")
	if code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "Fig") {
		t.Errorf("no table on stdout:\n%s", stdout)
	}
}
