package paper

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// e2eGrid runs the two cheapest experiments at unit-test scale (the
// testProfile profile): table3 exercises the table path, fig7 the
// line-plot path.
const e2eGrid = `{
  "repeats": 2,
  "profiles": { "unit": { "uops": 10000, "warmup": 2000 } },
  "experiments": [ { "id": "table3" }, { "id": "fig7" } ]
}`

const testProfile = "unit"

func runPipeline(t *testing.T, dir string, mutate func(*RunnerConfig)) *Manifest {
	t.Helper()
	g := mustParse(t, e2eGrid)
	cfg := RunnerConfig{
		Grid: g, GridBytes: []byte(e2eGrid), Profile: testProfile,
		Dir: dir, Stamp: "test",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	m, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	m := runPipeline(t, dir, nil)

	if len(m.Units) != 4 {
		t.Fatalf("manifest has %d units, want 4", len(m.Units))
	}
	// Repeats share a seed on a deterministic simulator: identical digests.
	if m.Units[0].SHA256 != m.Units[1].SHA256 {
		t.Errorf("table3 repeats disagree: %s vs %s", m.Units[0].SHA256, m.Units[1].SHA256)
	}
	for _, f := range []string{
		"manifest.json", "state.json", "experiments.json",
		"csv/table3_r01.csv", "csv/table3_r02.json", "csv/fig7_r02.csv",
		"logs/fig7_r01.log",
	} {
		if !fileExists(filepath.Join(dir, f)) {
			t.Errorf("missing %s", f)
		}
	}

	// Analysis over the finished run.
	g := mustParse(t, e2eGrid)
	aCfg := AnalyzeConfig{Grid: g, Profile: testProfile, Dir: dir}
	if err := Analyze(aCfg); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, f := range []string{
		"analysis/summary_runs.csv", "analysis/summary_grouped.csv",
		"analysis/tables/table1.md", "analysis/tables/table1.tex",
		"analysis/tables/table2.md", "analysis/tables/table3.md",
		"analysis/tables/power.md", "analysis/tables/power.tex",
		"analysis/plots/fig7.svg", "analysis/report.md",
	} {
		if !fileExists(filepath.Join(dir, f)) {
			t.Errorf("missing %s", f)
		}
	}
	if fileExists(filepath.Join(dir, "analysis/plots/table3.svg")) {
		t.Error("table3 should render as a table, not a chart")
	}

	// Checks: repeats agree and a generous band on a table3 metric holds.
	exp := &Expectations{Profiles: map[string][]MetricBand{
		testProfile: {
			{Experiment: "table3", Column: "pct_time_srl_occupied", Min: 0, Max: 100},
			{Experiment: "fig7", Match: map[string]string{"suite": "WEB"}, Column: "gt_0", Min: 0, Max: 100},
		},
	}}
	units, _ := g.Plan(testProfile, nil, 0)
	results, err := Check(dir, units, exp, testProfile)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(results) != 4 { // 2 repeat checks + 2 bands
		t.Errorf("%d check results, want 4: %+v", len(results), results)
	}
	if !fileExists(filepath.Join(dir, "analysis/check.md")) {
		t.Error("missing analysis/check.md")
	}

	// A violated band fails the check and names the row.
	bad := &Expectations{Profiles: map[string][]MetricBand{
		testProfile: {{Experiment: "table3", Column: "pct_time_srl_occupied", Min: 1000, Max: 2000}},
	}}
	if _, err := Check(dir, units, bad, testProfile); err == nil {
		t.Error("out-of-band metric must fail the check")
	}

	// A band for an experiment outside the (e.g. -only restricted) plan is
	// skipped, never failed.
	partial := &Expectations{Profiles: map[string][]MetricBand{
		testProfile: {{Experiment: "fig6", Match: map[string]string{"suite": "SFP2K"}, Column: "SRL", Min: 0, Max: 100}},
	}}
	skipped, err := Check(dir, units, partial, testProfile)
	if err != nil {
		t.Fatalf("Check with out-of-plan band: %v", err)
	}
	found := false
	for _, r := range skipped {
		if strings.HasPrefix(r.Name, "band/fig6/") {
			found = true
			if !r.Skip || !r.OK {
				t.Errorf("out-of-plan band should skip, got %+v", r)
			}
		}
	}
	if !found {
		t.Errorf("no band/fig6 result in %+v", skipped)
	}

	// Resume: a second run over the same directory re-executes nothing.
	m2 := runPipeline(t, dir, func(c *RunnerConfig) { c.Resume = true })
	for _, u := range m2.Units {
		if !u.Resumed {
			t.Errorf("%s repeat %d re-ran despite completed state", u.Experiment, u.Repeat)
		}
	}
	// Without -resume, an existing run directory refuses to restart.
	g2 := mustParse(t, e2eGrid)
	r, err := NewRunner(RunnerConfig{Grid: g2, GridBytes: []byte(e2eGrid), Profile: testProfile, Dir: dir, Stamp: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Error("restarting a populated run dir without -resume must fail")
	}

	// Determinism: a fresh directory reproduces csv/ byte-for-byte.
	dir2 := t.TempDir()
	runPipeline(t, dir2, nil)
	if err := Analyze(AnalyzeConfig{Grid: g, Profile: testProfile, Dir: dir2}); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{
		"csv/table3_r01.csv", "csv/fig7_r01.json",
		"analysis/summary_grouped.csv", "analysis/plots/fig7.svg", "analysis/report.md",
	} {
		a, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, rel))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between identical runs", rel)
		}
	}
}

// TestResumeRejectsConfigChange pins the state fingerprint guard.
func TestResumeRejectsConfigChange(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	one := `{"repeats":1,"profiles":{"unit":{"uops":10000,"warmup":2000}},"experiments":[{"id":"table3"}]}`
	g := mustParse(t, one)
	r, err := NewRunner(RunnerConfig{Grid: g, GridBytes: []byte(one), Profile: testProfile, Dir: dir, Stamp: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	edited := one + "\n"
	g2 := mustParse(t, edited)
	r2, err := NewRunner(RunnerConfig{Grid: g2, GridBytes: []byte(edited), Profile: testProfile, Dir: dir, Stamp: "test", Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Run(context.Background()); err == nil {
		t.Error("resume with an edited grid must refuse and demand a fresh run")
	}
}
