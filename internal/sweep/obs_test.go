package sweep

import (
	"context"
	"testing"

	"srlproc/internal/core"
	"srlproc/internal/trace"
)

// TestConcurrentObservedSweep drives a parallel sweep of observed
// simulations. Run under -race (make verify) it proves the per-core
// samplers and the engine's bookkeeping share no unsynchronised state.
func TestConcurrentObservedSweep(t *testing.T) {
	var points []Point
	for i, seed := range []uint64{201, 202, 203, 204, 205, 206} {
		cfg := tinyCfg(core.DesignSRL, seed)
		cfg.Obs.SampleEvery = 256
		cfg.Obs.TraceEvents = true
		points = append(points, Point{Label: "obs", Cfg: cfg, Suite: trace.Suite(i % 3)})
	}
	rep, err := Run(context.Background(), points, Options{Workers: 4, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Points {
		res := rep.Points[i].Results
		if res == nil {
			t.Fatalf("point %d: nil results", i)
		}
		if res.Timeline == nil || res.Timeline.Len() == 0 {
			t.Fatalf("point %d: no timeline samples", i)
		}
		if res.Trace == nil || res.Trace.Count(0) == 0 && res.Trace.Len() == 0 {
			t.Fatalf("point %d: no trace events", i)
		}
	}
}
