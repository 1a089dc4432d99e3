package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"srlproc/internal/sweep"
)

// ExperimentID names one experiment of the paper's evaluation. It is the
// single entry-point vocabulary shared by the library facade
// (srlproc.RunExperiment) and the paper pipeline (cmd/paperrepro): both
// resolve a name to an ExperimentID and dispatch through RunExperiment, so
// experiments behave identically whichever door they come in through.
type ExperimentID int

// The experiments, in the evaluation's presentation order.
const (
	// Fig2 sweeps single-level store queue sizes (128..1K entries).
	Fig2 ExperimentID = iota
	// Fig6 compares SRL vs hierarchical vs ideal store queues.
	Fig6
	// Fig7 measures the SRL occupancy distribution.
	Fig7
	// Fig8 ablates the LCF and indexed forwarding.
	Fig8
	// Fig9 crosses LCF sizes with hashing functions.
	Fig9
	// Fig10 compares the forwarding cache against data-cache forwarding.
	Fig10
	// Table3 reports SRL statistics per suite.
	Table3
	// Energy attributes dynamic energy to structure activity.
	Energy
	// Latency sweeps memory latency per design on SFP2K.
	Latency
	// Ordering runs the memory-ordering + far-memory scenario pack:
	// {plain, sync} × {local, far, far-degraded} on the baseline and SRL
	// machines, on SFP2K.
	Ordering

	numExperiments
)

// experimentNames are the canonical names — exactly the names
// `paperrepro -only` accepts and the paper grid's "id" fields use.
var experimentNames = [numExperiments]string{
	Fig2:     "fig2",
	Fig6:     "fig6",
	Fig7:     "fig7",
	Fig8:     "fig8",
	Fig9:     "fig9",
	Fig10:    "fig10",
	Table3:   "table3",
	Energy:   "energy",
	Latency:  "latency",
	Ordering: "ordering",
}

// experimentDescriptions are one-line summaries rendered into each
// experiment's section of the paper pipeline's analysis/report.md.
var experimentDescriptions = [numExperiments]string{
	Fig2:     "store queue size sweep: 128..1K-entry STQs over the 48-entry baseline",
	Fig6:     "SRL vs hierarchical vs ideal store queue (percent speedup over baseline)",
	Fig7:     "SRL occupancy distribution over the paper's thresholds",
	Fig8:     "LCF and indexed-forwarding ablation",
	Fig9:     "LCF size crossed with LAB and 3-PAX hashing",
	Fig10:    "separate forwarding cache vs data-cache forwarding",
	Table3:   "SRL statistics per suite",
	Energy:   "dynamic energy attributed to secondary-structure activity",
	Latency:  "IPC vs memory latency per design on SFP2K",
	Ordering: "memory-ordering + far-memory scenario pack: {plain,sync} x {local,far,far-degraded}",
}

// Description returns the experiment's one-line summary.
func (id ExperimentID) Description() string {
	if id.Valid() {
		return experimentDescriptions[id]
	}
	return ""
}

// AllExperiments lists every experiment in presentation order.
func AllExperiments() []ExperimentID {
	out := make([]ExperimentID, numExperiments)
	for i := range out {
		out[i] = ExperimentID(i)
	}
	return out
}

// String returns the canonical experiment name.
func (id ExperimentID) String() string {
	if id >= 0 && id < numExperiments {
		return experimentNames[id]
	}
	return fmt.Sprintf("experiment(%d)", int(id))
}

// Valid reports whether id names a known experiment.
func (id ExperimentID) Valid() bool { return id >= 0 && id < numExperiments }

// MarshalText renders the canonical name, so ExperimentIDs embed cleanly
// in JSON documents and map keys.
func (id ExperimentID) MarshalText() ([]byte, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("bench: invalid experiment id %d", int(id))
	}
	return []byte(id.String()), nil
}

// UnmarshalText resolves a name via ParseExperimentID (aliases included).
func (id *ExperimentID) UnmarshalText(text []byte) error {
	got, err := ParseExperimentID(string(text))
	if err != nil {
		return err
	}
	*id = got
	return nil
}

// ParseExperimentID resolves an experiment name: the canonical short names
// ("fig2" ... "table3", "energy", "latency"), their long aliases
// ("figure2", "figure10"), case-insensitively.
func ParseExperimentID(name string) (ExperimentID, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	n = strings.Replace(n, "figure", "fig", 1)
	for id, canon := range experimentNames {
		if n == canon {
			return ExperimentID(id), nil
		}
	}
	return 0, fmt.Errorf("bench: unknown experiment %q (have: %s)", name, ExperimentNames())
}

// ExperimentNames returns the canonical names, space-separated in
// presentation order — ready for error messages and usage strings.
func ExperimentNames() string {
	return strings.Join(experimentNames[:], " ")
}

// ExperimentResult is the tagged result of one RunExperiment call: ID
// reports which experiment ran and exactly one result field is non-nil.
// Value returns that field untyped; the typed fields serve callers that
// already know what they asked for.
//
// The JSON form is the inner result document itself (the ID rides in
// headers or envelopes chosen by each surface).
type ExperimentResult struct {
	ID ExperimentID

	Figure   *FigureResult   // Fig2, Fig6, Fig8, Fig9, Fig10
	Figure7  *Figure7Result  // Fig7
	Table3   *Table3Result   // Table3
	Energy   *EnergyResult   // Energy
	Latency  *LatencyResult  // Latency
	Ordering *OrderingResult // Ordering
}

// Value returns the one non-nil result, untyped.
func (r *ExperimentResult) Value() any {
	switch {
	case r.Figure != nil:
		return r.Figure
	case r.Figure7 != nil:
		return r.Figure7
	case r.Table3 != nil:
		return r.Table3
	case r.Energy != nil:
		return r.Energy
	case r.Latency != nil:
		return r.Latency
	case r.Ordering != nil:
		return r.Ordering
	}
	return nil
}

// String renders the result's human-readable table.
func (r *ExperimentResult) String() string {
	if v, ok := r.Value().(fmt.Stringer); ok {
		return v.String()
	}
	return fmt.Sprintf("%s: no result", r.ID)
}

// MarshalJSON emits the inner result document, unwrapped.
func (r *ExperimentResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Value())
}

// plan is one experiment's decomposition: the canonical simulation point
// list and the assembly that turns a completed report over exactly those
// points into the experiment's result document. The split lets a caller
// run a plan's points through its own sweep (its own cache, store or
// simulator hooks) and then assemble the same document RunExperiment
// would.
type plan struct {
	points   []sweep.Point
	assemble func(*sweep.Report) (*ExperimentResult, error)

	// csvHeader and csvRows describe the experiment's WriteCSV form: the
	// exact header fields and the number of data rows below them. They are
	// filled by every plan constructor from the same labeled-config lists
	// the assembly uses, so Shape never drifts from the real export.
	csvHeader []string
	csvRows   int
}

// experimentPlan builds the plan for one experiment under the given
// options. It is deterministic: the same (id, Options) pair always yields
// the same point list, and therefore the same point fingerprints.
func experimentPlan(id ExperimentID, o Options) (*plan, error) {
	switch id {
	case Fig2:
		return planFigure2(o), nil
	case Fig6:
		return planFigure6(o), nil
	case Fig7:
		return planFigure7(o), nil
	case Fig8:
		return planFigure8(o), nil
	case Fig9:
		return planFigure9(o), nil
	case Fig10:
		return planFigure10(o), nil
	case Table3:
		return planTable3(o), nil
	case Energy:
		return planEnergy(o), nil
	case Latency:
		return planLatencySweep(o), nil
	case Ordering:
		return planOrdering(o), nil
	}
	return nil, fmt.Errorf("bench: invalid experiment id %d", int(id))
}

// ExperimentPoints returns the experiment's canonical simulation point
// list under the given options, in the exact order AssembleExperiment
// expects a report's points. Callers that drive the sweep themselves run
// these points and hand the report to AssembleExperiment.
func ExperimentPoints(id ExperimentID, o Options) ([]sweep.Point, error) {
	p, err := experimentPlan(id, o)
	if err != nil {
		return nil, err
	}
	return p.points, nil
}

// AssembleExperiment aggregates a completed report over exactly the
// ExperimentPoints list — same points, same order — into the experiment's
// result document. The simulator is deterministic in its config, so any
// sweep over those points assembles to JSON byte-identical to
// RunExperiment's. Every point must carry results; failed or missing
// points are an error.
func AssembleExperiment(id ExperimentID, o Options, rep *sweep.Report) (*ExperimentResult, error) {
	p, err := experimentPlan(id, o)
	if err != nil {
		return nil, err
	}
	if len(rep.Points) != len(p.points) {
		return nil, fmt.Errorf("bench: %s report has %d points, want %d", id, len(rep.Points), len(p.points))
	}
	return p.assemble(rep)
}

// ExperimentShape describes the deterministic output structure of one
// experiment under given options: how many simulation points it
// enumerates, and the exact header fields plus data-row count of its
// WriteCSV form. The paper-artifact pipeline (internal/paper) validates
// every emitted CSV against this shape, so a truncated run or a schema
// drift hard-fails instead of producing a silently short figure.
type ExperimentShape struct {
	// Points is the canonical simulation point count — len(ExperimentPoints).
	Points int
	// CSVHeader is the experiment's WriteCSV header, one entry per column
	// (unquoted; WriteCSV applies CSV quoting where labels need it).
	CSVHeader []string
	// CSVRows is the number of data rows WriteCSV emits below the header.
	CSVRows int
}

// Shape returns the experiment's output shape under the given options.
// The shape depends only on the experiment's structure (labels, suites,
// swept latencies), never on simulation scale: quick and full profiles
// share identical shapes.
func Shape(id ExperimentID, o Options) (ExperimentShape, error) {
	p, err := experimentPlan(id, o)
	if err != nil {
		return ExperimentShape{}, err
	}
	return ExperimentShape{
		Points:    len(p.points),
		CSVHeader: p.csvHeader,
		CSVRows:   p.csvRows,
	}, nil
}

// RunExperiment runs one experiment of the paper's evaluation. It is the
// one entry point behind every table and figure: resolve an ExperimentID
// (ParseExperimentID for wire names), pick Options, and read the typed
// payload off the returned ExperimentResult. It is exactly
// ExperimentPoints → sweep.Run → AssembleExperiment.
func RunExperiment(ctx context.Context, id ExperimentID, o Options) (*ExperimentResult, error) {
	p, err := experimentPlan(id, o)
	if err != nil {
		return nil, err
	}
	rep, err := sweep.Run(ctx, p.points, o.sweepOptions())
	if err != nil {
		return nil, err
	}
	return p.assemble(rep)
}
