package bench

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// tinyOptions keep unit tests fast; experiment correctness (not statistics)
// is under test here.
func tinyOptions() Options {
	return Options{WarmupUops: 2_000, RunUops: 10_000, Seed: 1}
}

// run is RunExperiment under a background context, failing the test on
// error.
func run(t *testing.T, id ExperimentID, o Options) *ExperimentResult {
	t.Helper()
	res, err := RunExperiment(context.Background(), id, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRenderTables(t *testing.T) {
	t1 := RenderTable1()
	for _, want := range []string{"8 GHz", "gshare-perceptron", "Store buffer size", "1 MB"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := RenderTable2()
	for _, want := range []string{"SFP2K", "TPC-C", "CAD, rendering", "13"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
}

func TestRunFigure2Structure(t *testing.T) {
	fig := run(t, Fig2, tinyOptions()).Figure
	if len(fig.Series) != len(Figure2Sizes) {
		t.Fatalf("%d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.BySuite) != len(trace.AllSuites()) {
			t.Fatalf("series %s covers %d suites", s.Label, len(s.BySuite))
		}
	}
	if !strings.Contains(fig.String(), "512-entry STQ") {
		t.Fatal("figure render missing series label")
	}
}

func TestRunFigure6Structure(t *testing.T) {
	fig := run(t, Fig6, tinyOptions()).Figure
	labels := map[string]bool{}
	for _, s := range fig.Series {
		labels[s.Label] = true
	}
	for _, want := range []string{"SRL", "Hierarchical STQ", "Ideal STQ"} {
		if !labels[want] {
			t.Fatalf("missing series %q", want)
		}
	}
	// Raw results available for every (label, suite) pair.
	if fig.Raw["SRL"][trace.SFP2K] == nil {
		t.Fatal("raw results missing")
	}
}

func TestRunTable3Structure(t *testing.T) {
	tbl := run(t, Table3, tinyOptions()).Table3
	if len(tbl.Rows) != len(trace.AllSuites()) {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r.PctTimeSRLOccupied < 0 || r.PctTimeSRLOccupied > 100 {
			t.Fatalf("%v occupancy %v", r.Suite, r.PctTimeSRLOccupied)
		}
	}
	if !strings.Contains(tbl.String(), "Redone Stores") {
		t.Fatal("table render incomplete")
	}
}

func TestRunFigure7Structure(t *testing.T) {
	fig := run(t, Fig7, tinyOptions()).Figure7
	for _, su := range trace.AllSuites() {
		vals := fig.BySuite[su]
		if len(vals) != len(fig.Thresholds) {
			t.Fatalf("%v has %d points", su, len(vals))
		}
		// The distribution is a survival curve: non-increasing in the
		// threshold.
		for i := 1; i < len(vals); i++ {
			if vals[i] > vals[i-1]+1e-9 {
				t.Fatalf("%v distribution not monotone: %v", su, vals)
			}
		}
	}
}

func TestRunPowerAreaMentionsReductions(t *testing.T) {
	s := RunPowerArea()
	for _, want := range []string{"Hierarchical L2 STQ", "SRL + LCF + FC", "area reduction"} {
		if !strings.Contains(s, want) {
			t.Fatalf("power report missing %q:\n%s", want, s)
		}
	}
}

func TestSequentialMatchesParallel(t *testing.T) {
	o := tinyOptions()
	o.RunUops = 5_000
	o.NoCache = true // compare two real runs, not a run and its memo
	o.Workers = 1
	seq, _ := json.Marshal(run(t, Table3, o))
	o.Workers = 4
	par, _ := json.Marshal(run(t, Table3, o))
	if string(seq) != string(par) {
		t.Fatalf("parallel/sequential divergence:\n%s\nvs\n%s", seq, par)
	}
}

// TestWorkersCountsMatch asserts the new Workers knob yields identical
// figures regardless of pool size (the deterministic-aggregation claim).
func TestWorkersCountsMatch(t *testing.T) {
	o := tinyOptions()
	o.RunUops = 5_000
	o.NoCache = true
	var rendered []string
	for _, w := range []int{1, 4} {
		o.Workers = w
		rendered = append(rendered, run(t, Fig10, o).String())
	}
	if rendered[0] != rendered[1] {
		t.Fatalf("figure depends on worker count:\n%s\nvs\n%s", rendered[0], rendered[1])
	}
}

// TestMemoizationAcrossFigures is the acceptance check: a Figure 2 +
// Figure 6 pass sharing the process cache must simulate strictly fewer
// points than the two figures contain (the baseline recurs, and Figure 2's
// 1K-entry STQ is Figure 6's ideal STQ).
func TestMemoizationAcrossFigures(t *testing.T) {
	o := tinyOptions()
	o.Seed = 4242 // unique to this test so the global cache starts cold for it
	st0 := sweep.Global().Stats()
	fig2 := run(t, Fig2, o).Figure
	fig6 := run(t, Fig6, o).Figure
	suites := len(trace.AllSuites())
	totalPoints := (len(fig2.Series)+1)*suites + (len(fig6.Series)+1)*suites
	st := sweep.Global().Stats()
	simulated := int(st.Misses - st0.Misses)
	hits := int(st.Hits - st0.Hits)
	if simulated+hits != totalPoints {
		t.Fatalf("cache accounting: %d simulated + %d hits != %d points", simulated, hits, totalPoints)
	}
	if simulated >= totalPoints {
		t.Fatalf("memoization saved nothing: %d simulations for %d points", simulated, totalPoints)
	}
	// Figure 6 shares the baseline and the 1K-entry LargeSTQ config with
	// Figure 2: two full suite rows of hits.
	if hits < 2*suites {
		t.Fatalf("expected >= %d cache hits, got %d", 2*suites, hits)
	}
}

// TestCancelledContextSurfaces asserts a cancelled experiment reports
// ctx.Err() through the joined error.
func TestCancelledContextSurfaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperiment(ctx, Fig6, tinyOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled figure error = %v", err)
	}
	if _, err := RunExperiment(ctx, Latency, tinyOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled latency sweep error = %v", err)
	}
}

func TestRunEnergyStructure(t *testing.T) {
	res := run(t, Energy, tinyOptions()).Energy
	if len(res.Rows) != 3*len(trace.AllSuites()) {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The SRL's secondary-structure energy must undercut the hierarchical
	// design's on every suite — the paper's central power claim.
	byKey := map[string]float64{}
	for _, r := range res.Rows {
		byKey[r.Design.String()+"/"+r.Suite.String()] = r.NJPer1KUops
	}
	for _, su := range trace.AllSuites() {
		srl := byKey["SRL/"+su.String()]
		hier := byKey["hierarchical-STQ/"+su.String()]
		if srl >= hier {
			t.Fatalf("%v: SRL energy %.1f >= hierarchical %.1f nJ/1k uops", su, srl, hier)
		}
	}
	if !strings.Contains(res.String(), "CAM share") {
		t.Fatal("render incomplete")
	}
}

func TestRunLatencySweepShape(t *testing.T) {
	o := tinyOptions()
	o.RunUops = 30_000
	res := run(t, Latency, o).Latency
	if len(res.Points) != 3*len(LatencySweepLatencies) {
		t.Fatalf("%d points", len(res.Points))
	}
	// Each design's IPC must be non-increasing in memory latency, and the
	// baseline must degrade at least as much as the SRL from first to last
	// point (the latency tolerance claim).
	ipc := map[string]map[uint64]float64{}
	for _, p := range res.Points {
		d := p.Design.String()
		if ipc[d] == nil {
			ipc[d] = map[uint64]float64{}
		}
		ipc[d][p.MemLatency] = p.IPC
	}
	for d, m := range ipc {
		if m[LatencySweepLatencies[0]] < m[LatencySweepLatencies[len(LatencySweepLatencies)-1]] {
			t.Fatalf("%s: IPC grew with memory latency", d)
		}
	}
	// Cross-design comparisons need statistically meaningful run lengths;
	// they are asserted in the core integration tests and shown at full
	// scale by `make paper`. Here only the structural properties above are
	// checked.
	if res.String() == "" {
		t.Fatal("empty render")
	}
}
