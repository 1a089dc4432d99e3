package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"srlproc"
	"srlproc/internal/cli"
)

// The CLI tests re-exec the test binary as the real srlsim: TestMain
// intercepts the child invocation (marked by SRLSIM_ARGV) and runs main's
// run() with the requested argv, so the tests observe true process exit
// codes, including the signal paths.
func TestMain(m *testing.M) {
	if argv, ok := os.LookupEnv("SRLSIM_ARGV"); ok {
		os.Args = append([]string{"srlsim"}, splitArgv(argv)...)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// splitArgv splits on the unit separator so arguments may contain spaces.
func splitArgv(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\x1f")
}

// cmdDeadline bounds every child run. Each one finishes in seconds, even
// under the race detector; the 500M-uop points the timeout and interrupt
// tests start are killed here if their stop path ever breaks, instead of
// simulating for many minutes and hanging `go test`.
const cmdDeadline = time.Minute

func cliCmd(t *testing.T, args ...string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), cmdDeadline)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "SRLSIM_ARGV="+strings.Join(args, "\x1f"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	return cmd, &stderr
}

func TestExitOK(t *testing.T) {
	cmd, stderr := cliCmd(t, "-design", "srl", "-suite", "SINT2K", "-uops", "2000", "-warmup", "500")
	cmd.Stdout = nil
	if err := cmd.Run(); err != nil {
		t.Fatalf("exit %v, stderr:\n%s", err, stderr)
	}
}

func TestExitUsage(t *testing.T) {
	cmd, stderr := cliCmd(t, "-design", "nope")
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != cli.Usage {
		t.Fatalf("exit %v, want %d; stderr:\n%s", err, cli.Usage, stderr)
	}
	if !strings.Contains(stderr.String(), "unknown design") {
		t.Fatalf("stderr: %q", stderr)
	}
}

// TestExitTimeout pins the timeout code: an expired -timeout must be
// distinguishable from a generic failure (exit 1) so callers can retry
// with a longer budget.
func TestExitTimeout(t *testing.T) {
	cmd, stderr := cliCmd(t, "-design", "srl", "-suite", "SFP2K",
		"-uops", "500000000", "-timeout", "200ms")
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != cli.Timeout {
		t.Fatalf("exit %v, want %d; stderr:\n%s", err, cli.Timeout, stderr)
	}
	if !strings.Contains(stderr.String(), "timed out") {
		t.Fatalf("stderr: %q", stderr)
	}
}

// TestExitInterrupt delivers a real SIGINT mid-simulation and asserts the
// shell convention 128+2. The signal handler must still be installed —
// every return path runs the NotifyContext stop func, but the run itself
// holds it until done.
func TestExitInterrupt(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("signal delivery is POSIX-only")
	}
	cmd, stderr := cliCmd(t, "-design", "srl", "-suite", "SFP2K", "-uops", "500000000")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The binary installs its handler within the first few milliseconds;
	// the job itself runs for minutes, so this lands mid-simulation.
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != cli.Interrupt {
		t.Fatalf("exit %v, want %d; stderr:\n%s", err, cli.Interrupt, stderr)
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("stderr: %q", stderr)
	}
}

// TestJSONMatchesInProcessRun pins the -json contract: the document srlsim
// prints for a point is, modulo indentation, exactly json.Marshal of the
// Results the library returns for the same point in-process.
func TestJSONMatchesInProcessRun(t *testing.T) {
	cmd, stderr := cliCmd(t, "-design", "srl", "-suite", "SINT2K",
		"-uops", "20000", "-warmup", "2000", "-json")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("exit %v, stderr:\n%s", err, stderr)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, out); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}

	cfg := srlproc.DefaultConfig(srlproc.DesignSRL)
	cfg.RunUops, cfg.WarmupUops, cfg.Seed = 20_000, 2_000, 1
	res, err := srlproc.RunContext(context.Background(), cfg, srlproc.SINT2K)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("srlsim -json differs from the in-process document:\n got %s\nwant %s", got.Bytes(), want)
	}
}
