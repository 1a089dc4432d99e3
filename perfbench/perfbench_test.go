package main

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"srlproc/internal/bench"
	"srlproc/internal/check"
	"srlproc/internal/core"
	"srlproc/internal/isa"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// toyScale runs every workload in a few seconds.
var toyScale = scale{
	gridDiv:   40,
	checkUops: 2_000, checkWarmup: 500,
	checkSeeds:  1,
	probePoints: 2,
	grid:        []bench.ExperimentID{bench.Fig6, bench.Table3},
}

func init() { gridPath = filepath.Join("..", "scripts", "paper", "experiments.json") }

func toyEnv(t *testing.T) env {
	return env{seed: 3, workers: 2, tmp: t.TempDir(), sc: toyScale}
}

func samplePass() *passOut {
	r := &core.Results{Cycles: 1000, Uops: 400, Loads: 100, Stores: 50, L1Misses: 7}
	return &passOut{points: []pointOut{{key: "p0", res: r}}}
}

// TestDigestCatchesPerturbedField changes each hashed Results field in
// turn and requires the gate to fail the point against the recorded
// digest.
func TestDigestCatchesPerturbedField(t *testing.T) {
	want := passDigest(samplePass().points)
	for _, f := range digestFields {
		out := samplePass()
		v := reflect.ValueOf(out.points[0].res).Elem().FieldByName(f.name)
		if !v.IsValid() {
			t.Fatalf("digest field %s is not a Results field", f.name)
		}
		v.SetUint(v.Uint() + 1)
		g := &gate{want: want}
		g.check(out)
		if g.failed != 1 || len(g.problems) == 0 {
			t.Errorf("perturbed %s: failed=%d problems=%v, want the point failed", f.name, g.failed, g.problems)
		}
	}
	g := &gate{want: want}
	g.check(samplePass())
	if g.failed != 0 || len(g.problems) != 0 {
		t.Fatalf("unperturbed pass failed: %v", g.problems)
	}
}

// TestSeededDivergenceFailsPoint replays a stream on a machine with the
// seeded forwarding-age bug (core.Config.FaultInvertFwdAge) under the
// oracle, through checked-replay's pass, and requires the point to fail.
func TestSeededDivergenceFailsPoint(t *testing.T) {
	cfg := core.DefaultConfig(core.DesignSRL)
	cfg.Seed, cfg.WarmupUops, cfg.RunUops = 1, 0, 8000
	cfg.SRLSize = 32
	cfg.Check = true
	cfg.FaultInvertFwdAge = true
	cfg.SnoopsEnabled = false
	l := &listWorkload{
		e:       toyEnv(t),
		points:  []sweep.Point{{Label: "fault", Cfg: cfg, Suite: trace.SINT2K}},
		streams: map[uint64][]isa.Uop{core.PointFingerprint(cfg, trace.SINT2K): check.CaptureFor(cfg, trace.SINT2K)},
	}
	out, err := l.pass(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{}
	g.check(out)
	if g.attempted != 1 || g.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want the diverging point failed (problems %v)", g.attempted, g.failed, g.problems)
	}
}

// TestWorkloadsToyScale sets every workload up at toy scale and runs an
// untraced pass, a traced pass and the layer probes; every point must
// pass the gate and both passes must agree.
func TestWorkloadsToyScale(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := setups[name](ctx, toyEnv(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := warmUp(ctx, w.probes(), 2); err != nil {
				t.Fatal(err)
			}
			g := &gate{}
			plain, err := w.pass(ctx, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			g.check(plain)
			tr := newTracer()
			traced, err := w.pass(ctx, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			g.check(traced)
			if g.failed != 0 || len(g.problems) != 0 || g.attempted == 0 {
				t.Fatalf("attempted=%d failed=%d problems=%v", g.attempted, g.failed, g.problems)
			}
			if tr.count() == 0 {
				t.Fatal("traced pass recorded no spans")
			}
			pr, err := probeLayers(ctx, w.probes(), w.checked())
			if err != nil {
				t.Fatal(err)
			}
			if len(pr.identityFailures) != 0 || pr.divergences != 0 {
				t.Fatalf("probe identity failures %v, divergences %d", pr.identityFailures, pr.divergences)
			}
			if pr.gen.ops == 0 || pr.srl.ops == 0 || pr.cache.ops == 0 {
				t.Fatalf("a layer probe did no work: %+v", pr)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 || median([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) != 5.5 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
}

// TestClockScalesSegments checks that a calibrated clock leaves its
// reference runs out of the pass's host time and scales each segment by
// the reference runs near it.
func TestClockScalesSegments(t *testing.T) {
	clk := &clock{cal: newCalibrator()}
	start := time.Now()
	clk.begin()
	for i := 0; i < 3; i++ {
		time.Sleep(10 * time.Millisecond)
		clk.lap()
	}
	elapsed := time.Since(start)
	var refs time.Duration
	for _, r := range clk.refs {
		refs += time.Duration(r * float64(time.Second))
	}
	if len(clk.refs) != 4 || clk.wall() < 30*time.Millisecond || clk.wall() > elapsed-refs+time.Millisecond {
		t.Fatalf("refs=%d wall=%v elapsed=%v reference time=%v", len(clk.refs), clk.wall(), elapsed, refs)
	}
	// At twice the nominal reference time every segment counts half.
	clk.refs = []float64{2 * refNominalS, 2 * refNominalS, 2 * refNominalS, 2 * refNominalS}
	for i, s := range clk.scaled() {
		if want := clk.segs[i].Seconds() / 2; math.Abs(s-want) > 1e-12 {
			t.Fatalf("segment %d scaled to %v s, want %v s", i, s, want)
		}
	}
	if (&clock{}).scaled() != nil {
		t.Fatal("a clock without a calibrator scaled its segments")
	}
}
