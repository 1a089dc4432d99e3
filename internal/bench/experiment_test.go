package bench

import (
	"context"
	"encoding/json"
	"testing"

	"srlproc/internal/trace"
)

func TestExperimentIDNamesRoundTrip(t *testing.T) {
	for _, id := range AllExperiments() {
		text, err := id.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		var back ExperimentID
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if back != id {
			t.Fatalf("%v round-tripped to %v", id, back)
		}
	}
	// JSON embedding uses the same text form.
	doc, err := json.Marshal(map[ExperimentID]int{Fig10: 1})
	if err != nil || string(doc) != `{"fig10":1}` {
		t.Fatalf("map key marshal: %s %v", doc, err)
	}
}

func TestParseExperimentIDAliases(t *testing.T) {
	cases := map[string]ExperimentID{
		"fig2":     Fig2,
		"Figure2":  Fig2,
		"FIGURE10": Fig10,
		"  fig9 ":  Fig9,
		"TABLE3":   Table3,
		"Energy":   Energy,
		"latency":  Latency,
	}
	for in, want := range cases {
		got, err := ParseExperimentID(in)
		if err != nil || got != want {
			t.Errorf("ParseExperimentID(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseExperimentID("fig11"); err == nil {
		t.Fatal("fig11 parsed")
	}
	if _, err := ParseExperimentID(""); err == nil {
		t.Fatal("empty name parsed")
	}
}

func TestRunExperimentInvalidID(t *testing.T) {
	if _, err := RunExperiment(context.Background(), numExperiments, tinyOptions()); err == nil {
		t.Fatal("invalid id ran")
	}
}

// TestRunExperimentAllIDs is the unified entry point's coverage test:
// every experiment of the evaluation runs through RunExperiment, returns a
// correctly tagged result with exactly one typed field set, and marshals
// to the same document as its payload — the compatibility guarantee the
// HTTP and CLI surfaces rely on.
func TestRunExperimentAllIDs(t *testing.T) {
	o := tinyOptions()
	for _, id := range AllExperiments() {
		res, err := RunExperiment(context.Background(), id, o)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if res.ID != id {
			t.Fatalf("%v: tagged as %v", id, res.ID)
		}
		fields := 0
		for _, set := range []bool{
			res.Figure != nil, res.Figure7 != nil, res.Table3 != nil,
			res.Energy != nil, res.Latency != nil, res.Ordering != nil,
		} {
			if set {
				fields++
			}
		}
		if fields != 1 {
			t.Fatalf("%v: %d typed fields set, want exactly 1", id, fields)
		}
		if res.Value() == nil {
			t.Fatalf("%v: Value is nil", id)
		}
		if res.String() == "" {
			t.Fatalf("%v: empty String", id)
		}
		wrapped, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		inner, err := json.Marshal(res.Value())
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if string(wrapped) != string(inner) {
			t.Fatalf("%v: ExperimentResult JSON differs from its payload", id)
		}
	}
}

// TestLatencySuiteOption pins the Latency experiment's suite: it always
// sweeps SFP2K.
func TestLatencySuiteOption(t *testing.T) {
	res, err := RunExperiment(context.Background(), Latency, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Suite != trace.SFP2K {
		t.Fatalf("latency suite = %v, want SFP2K", res.Latency.Suite)
	}
}
