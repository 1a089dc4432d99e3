package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"srlproc/internal/cli"
	"srlproc/internal/paper"
)

// Re-exec harness: the child invocation (marked by PAPERREPRO_ARGV) runs
// main's run() with the requested argv so tests observe real exit codes.
func TestMain(m *testing.M) {
	if argv, ok := os.LookupEnv("PAPERREPRO_ARGV"); ok {
		os.Args = []string{"paperrepro"}
		if argv != "" {
			os.Args = append(os.Args, strings.Split(argv, "\x1f")...)
		}
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// cmdDeadline bounds every child run. Each one finishes in seconds, even
// under the race detector; a case that turns into a real full-scale run
// (a usage error that stopped being one) is killed instead of hanging
// `go test`.
const cmdDeadline = time.Minute

func cliCmd(t *testing.T, args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), cmdDeadline)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "PAPERREPRO_ARGV="+strings.Join(args, "\x1f"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	return cmd, &stdout, &stderr
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

// writeTestGrid writes a one-experiment grid with a unit-test "quick"
// profile and a "slow" one that runs far longer than any test waits.
func writeTestGrid(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	grid := `{
  "repeats": 2,
  "profiles": {
    "quick": { "uops": 5000, "warmup": 1000 },
    "slow": { "uops": 500000000, "warmup": 1000 }
  },
  "experiments": [ { "id": "table3" } ]
}`
	if err := os.WriteFile(path, []byte(grid), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	grid := writeTestGrid(t)
	g, _, err := paper.LoadGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	// The unknown-profile case is a usage error only while the grid lacks
	// the profile; were it defined, the case would start a real run.
	if _, ok := g.Profiles["huge"]; ok {
		t.Fatal(`test grid defines profile "huge"; the unknown-profile case needs a name it lacks`)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"missing config", []string{"-config", filepath.Join(t.TempDir(), "nope.json")}},
		{"bad only", []string{"-config", grid, "-only", "fig99"}},
		{"unknown profile", []string{"-config", grid, "-profile", "huge"}},
		{"removed server flag", []string{"-config", grid, "-server", "http://x"}},
		{"only outside grid", []string{"-config", grid, "-only", "fig2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd, _, stderr := cliCmd(t, tc.args...)
			if code := exitCode(cmd.Run()); code != cli.Usage {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, cli.Usage, stderr)
			}
		})
	}
}

func TestExitTimeout(t *testing.T) {
	cmd, _, stderr := cliCmd(t, "-config", writeTestGrid(t), "-out", t.TempDir(), "-stamp", "slow",
		"-profile", "slow", "-workers", "2", "-timeout", "200ms")
	if code := exitCode(cmd.Run()); code != cli.Timeout {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, cli.Timeout, stderr)
	}
	for _, want := range []string{"timed out", "rerun with -resume -stamp slow"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

func TestExitInterrupt(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("signal delivery is POSIX-only")
	}
	cmd, _, stderr := cliCmd(t, "-config", writeTestGrid(t), "-out", t.TempDir(), "-stamp", "slow",
		"-profile", "slow", "-workers", "2")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if code := exitCode(cmd.Wait()); code != cli.Interrupt {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, cli.Interrupt, stderr)
	}
	for _, want := range []string{"interrupted", "rerun with -resume -stamp slow"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestQuickRunEndToEnd drives the binary over a one-experiment grid and
// checks the run directory and -check behavior, including resuming.
func TestQuickRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	grid := writeTestGrid(t)
	out := t.TempDir()
	expPath := filepath.Join(t.TempDir(), "expectations.json")
	if err := os.WriteFile(expPath, []byte(`{
  "profiles": { "quick": [
    { "experiment": "table3", "column": "pct_time_srl_occupied", "min": 0, "max": 100 }
  ] }
}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd, stdout, stderr := cliCmd(t,
		"-config", grid, "-expectations", expPath,
		"-out", out, "-stamp", "run1", "-profile", "quick", "-check")
	if code := exitCode(cmd.Run()); code != cli.OK {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if got := strings.TrimSpace(stdout.String()); got != filepath.Join(out, "run1") {
		t.Errorf("stdout = %q, want the run dir", got)
	}
	for _, f := range []string{
		"manifest.json", "csv/table3_r01.csv", "csv/table3_r02.json",
		"analysis/report.md", "analysis/check.md", "analysis/tables/table3.tex",
		"analysis/tables/power.md", "analysis/tables/power.tex",
	} {
		if _, err := os.Stat(filepath.Join(out, "run1", f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	if !strings.Contains(stderr.String(), "check PASS") {
		t.Errorf("stderr lacks check verdicts:\n%s", stderr)
	}

	// Re-running the same stamp without -resume refuses.
	cmd, _, stderr = cliCmd(t, "-config", grid, "-out", out, "-stamp", "run1", "-profile", "quick")
	if code := exitCode(cmd.Run()); code != cli.Err {
		t.Fatalf("restart exit %d, want %d; stderr:\n%s", code, cli.Err, stderr)
	}

	// -resume with no -stamp picks the newest run and replays from state.
	cmd, _, stderr = cliCmd(t, "-config", grid, "-out", out, "-profile", "quick", "-resume")
	if code := exitCode(cmd.Run()); code != cli.OK {
		t.Fatalf("resume exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr.String(), "continuing run run1") {
		t.Errorf("resume did not pick the newest run:\n%s", stderr)
	}

	// -analyze-only re-renders analysis without touching results.
	cmd, _, stderr = cliCmd(t, "-config", grid, "-out", out, "-stamp", "run1", "-profile", "quick", "-analyze-only")
	if code := exitCode(cmd.Run()); code != cli.OK {
		t.Fatalf("analyze-only exit %d; stderr:\n%s", code, stderr)
	}

	// A violated expectation band fails the run with exit 1.
	if err := os.WriteFile(expPath, []byte(`{
  "profiles": { "quick": [
    { "experiment": "table3", "column": "pct_time_srl_occupied", "min": 1000, "max": 2000 }
  ] }
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd, _, stderr = cliCmd(t,
		"-config", grid, "-expectations", expPath,
		"-out", out, "-stamp", "run1", "-profile", "quick", "-analyze-only", "-check")
	if code := exitCode(cmd.Run()); code != cli.Err {
		t.Fatalf("violated band exit %d, want %d; stderr:\n%s", code, cli.Err, stderr)
	}
	if !strings.Contains(stderr.String(), "check FAIL") {
		t.Errorf("stderr lacks the failing check:\n%s", stderr)
	}
}
