// Package paper is the reproducible paper-artifact pipeline: it executes a
// declarative experiment grid (scripts/paper/experiments.json) through
// bench.RunExperiment into a paper_runs/<stamp>/ directory of validated
// CSVs, grouped summary statistics, Markdown and LaTeX tables, SVG plots
// and a report.md index, plus a manifest recording exactly what produced
// them.
//
// The pipeline is the reproduction's deliverable ("here is the paper,
// regenerated in one command") and doubles as a regression oracle: every
// CSV is validated against the experiment's declared shape
// (bench.Shape), repeats are byte-compared (the simulator is
// deterministic), and headline metrics are asserted against checked-in
// tolerance bands (scripts/paper/expectations.json).
package paper

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"srlproc/internal/bench"
)

// Knobs are the simulation scale a profile sets. Zero values keep
// bench.DefaultOptions().
type Knobs struct {
	// Uops overrides measured micro-ops per point.
	Uops uint64 `json:"uops,omitempty"`
	// Warmup overrides warmup micro-ops per point.
	Warmup uint64 `json:"warmup,omitempty"`
}

// options returns bench.DefaultOptions() at the knobs' scale.
func (k Knobs) options() bench.Options {
	o := bench.DefaultOptions()
	if k.Uops != 0 {
		o.RunUops = k.Uops
	}
	if k.Warmup != 0 {
		o.WarmupUops = k.Warmup
	}
	return o
}

// GridExperiment is one experiment entry of the grid.
type GridExperiment struct {
	// ID names the experiment; it resolves through bench.ParseExperimentID,
	// so aliases like "figure2" work.
	ID string `json:"id"`
}

// Grid is the declarative experiment grid scripts/paper/experiments.json
// describes: which experiments to run, how many independent repeats, and
// the named profiles that set each run's scale.
type Grid struct {
	// Repeats is the number of independent repeats per experiment (at
	// least 1). The simulator is deterministic, so repeats must agree
	// byte-for-byte — that agreement is exactly what `-check` asserts.
	Repeats int `json:"repeats"`
	// Profiles are named scales selected with -profile; "quick" is the CI
	// smoke scale. The implicit "full" profile runs at
	// bench.DefaultOptions() scale.
	Profiles map[string]Knobs `json:"profiles,omitempty"`
	// Experiments lists the grid entries in run (and report) order.
	Experiments []GridExperiment `json:"experiments"`
}

// FullProfile is the implicit profile running the grid at
// bench.DefaultOptions() scale.
const FullProfile = "full"

// Unit is one schedulable cell of the grid: an experiment, a repeat index
// (1-based) and the fully-resolved options it runs under.
type Unit struct {
	ID      bench.ExperimentID
	Repeat  int
	Repeats int
	Options bench.Options
}

// Key is the unit's file-naming key, e.g. "fig6_r01".
func (u Unit) Key() string { return fmt.Sprintf("%s_r%02d", u.ID, u.Repeat) }

// LoadGrid reads and validates a grid file, returning the grid and the
// raw bytes that hash into the run manifest's config fingerprint.
func LoadGrid(path string) (*Grid, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("paper: read grid: %w", err)
	}
	g, err := ParseGrid(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("paper: %s: %w", path, err)
	}
	return g, raw, nil
}

// ParseGrid parses and validates grid bytes.
func ParseGrid(raw []byte) (*Grid, error) {
	var g Grid
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("parse grid: %w", err)
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

func (g *Grid) validate() error {
	if g.Repeats < 1 {
		return fmt.Errorf("grid: repeats must be >= 1 (got %d)", g.Repeats)
	}
	if len(g.Experiments) == 0 {
		return fmt.Errorf("grid: no experiments")
	}
	seen := make(map[bench.ExperimentID]string)
	for _, e := range g.Experiments {
		id, err := bench.ParseExperimentID(e.ID)
		if err != nil {
			return fmt.Errorf("grid: %w", err)
		}
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("grid: duplicate experiment %q (also listed as %q)", e.ID, prev)
		}
		seen[id] = e.ID
	}
	if _, ok := g.Profiles[FullProfile]; ok {
		return fmt.Errorf("grid: profile %q is implicit and cannot be redefined", FullProfile)
	}
	return nil
}

// ProfileNames lists the grid's selectable profiles: the implicit full
// profile plus the declared ones, sorted.
func (g *Grid) ProfileNames() []string {
	names := []string{FullProfile}
	for name := range g.Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Plan resolves the grid into its unit list for one profile: every
// experiment × repeat under the profile's options, in grid order. only,
// when non-empty, restricts the plan to the listed experiments (which must
// all be in the grid); repeats, when positive, overrides the repeat count.
func (g *Grid) Plan(profile string, only []bench.ExperimentID, repeats int) ([]Unit, error) {
	prof, ok := g.Profiles[profile]
	if !ok && profile != FullProfile {
		return nil, fmt.Errorf("paper: unknown profile %q (have: %s)", profile, strings.Join(g.ProfileNames(), " "))
	}
	want := make(map[bench.ExperimentID]bool, len(only))
	for _, id := range only {
		want[id] = true
	}
	n := g.Repeats
	if repeats > 0 {
		n = repeats
	}
	o := prof.options()
	var units []Unit
	for _, e := range g.Experiments {
		id, err := bench.ParseExperimentID(e.ID)
		if err != nil {
			return nil, err
		}
		if len(only) > 0 && !want[id] {
			continue
		}
		delete(want, id)
		for rep := 1; rep <= n; rep++ {
			units = append(units, Unit{ID: id, Repeat: rep, Repeats: n, Options: o})
		}
	}
	var missing []string
	for _, id := range bench.AllExperiments() {
		if want[id] {
			missing = append(missing, id.String())
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("paper: not in the grid: %s", strings.Join(missing, ", "))
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("paper: empty plan")
	}
	return units, nil
}

// ConfigHash fingerprints a (grid bytes, profile) pair. It keys the
// resumable per-experiment state: a run directory produced under one hash
// refuses to resume under another, so editing the grid mid-run restarts
// cleanly instead of mixing schemas.
func ConfigHash(gridBytes []byte, profile string) string {
	h := sha256.New()
	h.Write(gridBytes)
	h.Write([]byte{0})
	h.Write([]byte(profile))
	return hex.EncodeToString(h.Sum(nil))[:16]
}
