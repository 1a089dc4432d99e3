package bench

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"srlproc/internal/sweep"
)

// TestExperimentPointsAssembleMatchesRun pins the decomposition contract:
// for every experiment, ExperimentPoints → sweep.Run → AssembleExperiment
// produces a document byte-identical to RunExperiment's. Callers that run
// a plan's points through their own sweep (perfbench, internal/paper)
// depend on exactly this split path.
func TestExperimentPointsAssembleMatchesRun(t *testing.T) {
	o := tinyOptions()
	for _, id := range AllExperiments() {
		direct, err := RunExperiment(context.Background(), id, o)
		if err != nil {
			t.Fatalf("%v: direct: %v", id, err)
		}
		points, err := ExperimentPoints(id, o)
		if err != nil {
			t.Fatalf("%v: points: %v", id, err)
		}
		if len(points) == 0 {
			t.Fatalf("%v: empty point list", id)
		}
		rep, err := sweep.Run(context.Background(), points, sweep.Options{Workers: o.Workers})
		if err != nil {
			t.Fatalf("%v: run: %v", id, err)
		}
		split, err := AssembleExperiment(id, o, rep)
		if err != nil {
			t.Fatalf("%v: assemble: %v", id, err)
		}
		want, _ := json.Marshal(direct)
		got, _ := json.Marshal(split)
		if string(got) != string(want) {
			t.Fatalf("%v: split path differs from RunExperiment:\n%s\nvs\n%s", id, got, want)
		}
	}
}

func TestAssembleExperimentRejectsBadReports(t *testing.T) {
	o := tinyOptions()
	points, err := ExperimentPoints(Fig7, o)
	if err != nil {
		t.Fatal(err)
	}
	short := &sweep.Report{Points: make([]sweep.PointResult, len(points)-1)}
	if _, err := AssembleExperiment(Fig7, o, short); err == nil || !strings.Contains(err.Error(), "points") {
		t.Fatalf("short report accepted: %v", err)
	}
	// A right-length report whose points never ran must surface the
	// per-point errors, not assemble garbage.
	hole := &sweep.Report{Points: make([]sweep.PointResult, len(points))}
	for i := range hole.Points {
		hole.Points[i].Point = points[i]
	}
	if _, err := AssembleExperiment(Fig7, o, hole); err == nil {
		t.Fatal("report with nil results assembled")
	}
}

// TestExperimentMetadata covers the report metadata: every experiment
// carries a description, and an invalid id has none.
func TestExperimentMetadata(t *testing.T) {
	for _, id := range AllExperiments() {
		if id.Description() == "" {
			t.Errorf("%v: empty description", id)
		}
	}
	if ExperimentID(-1).Description() != "" {
		t.Fatal("invalid id has metadata")
	}
}
