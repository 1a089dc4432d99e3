package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"srlproc/internal/bench"
	"srlproc/internal/check"
	"srlproc/internal/core"
	"srlproc/internal/isa"
	"srlproc/internal/paper"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// gridPath is the paper's declarative experiment grid, read from the root
// of the checkout the benchmark runs in.
var gridPath = filepath.Join("scripts", "paper", "experiments.json")

// scale sets every workload's run length. fullScale is what the benchmark
// measures; the package tests run toyScale.
type scale struct {
	gridDiv                uint64 // paper-grid runs the quick profile's length divided by this
	checkUops, checkWarmup uint64
	checkSeeds             int                  // seeds per configuration in checked-replay
	probePoints            int                  // points each layer probe drives in a traced run
	grid                   []bench.ExperimentID // nil: the whole grid
}

var fullScale = scale{
	gridDiv:   4,
	checkUops: 12_000, checkWarmup: 3_000,
	checkSeeds:  8,
	probePoints: 5,
}

// env is what every workload is built from. The program receives only the
// inputs generated from seed.
type env struct {
	seed    uint64
	workers int
	tmp     string // scratch directory inside the checkout
	sc      scale
}

// pointOut is one simulation point's outcome in a pass.
type pointOut struct {
	key       string
	res       *core.Results
	err       error
	warmup    uint64 // the point's WarmupUops, for committed-uop counts
	wall      time.Duration
	simulated bool // false when the memo cache or the store served it
}

// passOut is one pass's outcome and its deterministic work counts.
type passOut struct {
	wall   time.Duration // host time
	scaled float64       // host seconds at reference speed; 0 unless clocked with a calibrator
	points []pointOut
	err    error // a failure of the whole pass; every point then counts failed
	cache  sweep.Stats
}

// committedUops sums warm-up plus measured micro-ops over the results the
// pass produced, whether simulated or served from the store.
func (o *passOut) committedUops() uint64 {
	var n uint64
	for _, p := range o.points {
		if p.res != nil {
			n += p.warmup + p.res.Uops
		}
	}
	return n
}

// add appends a sweep report's points, numbering them from base.
func (o *passOut) add(prefix string, base int, rep *sweep.Report) {
	for i, pr := range rep.Points {
		o.points = append(o.points, pointOut{
			key:       fmt.Sprintf("%s%d/%s", prefix, base+i, pr.Point),
			res:       pr.Results,
			err:       pr.Err,
			warmup:    pr.Point.Cfg.WarmupUops,
			wall:      pr.Wall,
			simulated: !pr.CacheHit && pr.Err == nil,
		})
	}
}

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// pass runs the workload's fixed batch of points once on the sweep
	// pool, timed by clk segment by segment (see calib.go). tr is nil
	// for an untraced pass; a nil clk times the pass unscaled.
	pass(ctx context.Context, tr *tracer, clk *clock) (*passOut, error)
	// probes lists the points the traced run drives each layer with.
	probes() []sweep.Point
	// checked reports whether the workload's points run the oracle.
	checked() bool
}

type setupFunc func(ctx context.Context, e env) (workload, error)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-grid", "checked-replay"}

var setups = map[string]setupFunc{
	"paper-grid":     setupPaperGrid,
	"checked-replay": setupCheckedReplay,
}

// gridWorkload runs every experiment of the paper grid through
// bench.ExperimentPoints → sweep.Run → bench.AssembleExperiment, writes
// each result document and CSV, and runs paper.Analyze over them, writing
// through to a fresh empty store.DiskStore: the work `make paper-quick`
// does cold, with one repeat.
type gridWorkload struct {
	e     env
	grid  *paper.Grid
	units []paper.Unit
}

// setupPaperGrid plans the grid's quick profile, one repeat, at the quick
// run length divided by gridDiv.
func setupPaperGrid(_ context.Context, e env) (workload, error) {
	grid, _, err := paper.LoadGrid(gridPath)
	if err != nil {
		return nil, err
	}
	units, err := grid.Plan("quick", e.sc.grid, 1)
	if err != nil {
		return nil, err
	}
	for i := range units {
		o := &units[i].Options
		o.RunUops, o.WarmupUops = o.RunUops/e.sc.gridDiv, o.WarmupUops/e.sc.gridDiv
		o.Seed, o.Workers = e.seed, e.workers
	}
	return &gridWorkload{e: e, grid: grid, units: units}, nil
}

func (g *gridWorkload) checked() bool { return false }

// probes spreads the probe points over the grid's distinct points.
func (g *gridWorkload) probes() []sweep.Point {
	seen := map[uint64]bool{}
	var distinct []sweep.Point
	for _, u := range g.units {
		pts, err := bench.ExperimentPoints(u.ID, u.Options)
		if err != nil {
			continue
		}
		for _, p := range pts {
			if fp := core.PointFingerprint(p.Cfg, p.Suite); !seen[fp] {
				seen[fp] = true
				distinct = append(distinct, p)
			}
		}
	}
	return spread(distinct, g.e.sc.probePoints)
}

// pass laps its clock after each experiment and after the analysis.
func (g *gridWorkload) pass(ctx context.Context, tr *tracer, clk *clock) (*passOut, error) {
	if clk == nil {
		clk = &clock{}
	}
	dir, err := os.MkdirTemp(g.e.tmp, "grid-pass-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, d := range []string{"csv", "analysis"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return nil, err
		}
	}
	disk, err := store.OpenDisk(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	var st store.ResultStore = disk
	var sim sweep.SimulateFunc
	if tr != nil {
		st = tracedStore{st, tr}
		sim = tr.simulateGenerated
	}
	cache := sweep.NewCache()
	cache.AttachStore(st)
	defer cache.AttachStore(nil)

	out := &passOut{}
	clk.begin()
	for _, u := range g.units {
		uid := tr.open("paper.unit", u.Key(), -1)
		pts, err := bench.ExperimentPoints(u.ID, u.Options)
		if err != nil {
			return nil, err
		}
		sid := tr.open("sweep.run", u.Key(), uid)
		tr.setCurrent(sid)
		rep, _ := sweep.Run(ctx, pts, sweep.Options{Workers: g.e.workers, Cache: cache, Simulate: sim})
		tr.close(sid)
		out.add(u.Key()+"/", 0, rep)
		rid := tr.open("paper.render", u.Key(), uid)
		if err := render(dir, u, rep); err != nil && out.err == nil {
			out.err = fmt.Errorf("%s: %w", u.Key(), err)
		}
		tr.close(rid)
		tr.close(uid)
		clk.lap()
	}
	if out.err == nil {
		aid := tr.open("paper.analyze", "", -1)
		out.err = paper.Analyze(paper.AnalyzeConfig{Grid: g.grid, Profile: "quick", Only: g.e.sc.grid, Repeats: 1, Dir: dir})
		tr.close(aid)
	}
	cache.FlushStore()
	clk.lap()
	out.wall, out.scaled = clk.wall(), sum(clk.scaled())
	out.cache = cache.Stats()
	return out, nil
}

// render assembles one experiment's result document and writes it with
// its CSV form where paper.Analyze expects them.
func render(dir string, u paper.Unit, rep *sweep.Report) error {
	res, err := bench.AssembleExperiment(u.ID, u.Options, rep)
	if err != nil {
		return err
	}
	doc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	base := filepath.Join(dir, "csv", u.Key())
	if err := os.WriteFile(base+".json", doc, 0o644); err != nil {
		return err
	}
	w, ok := res.Value().(interface{ WriteCSV(io.Writer) error })
	if !ok {
		return fmt.Errorf("%s has no CSV form", u.ID)
	}
	f, err := os.Create(base + ".csv")
	if err != nil {
		return err
	}
	if err := w.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- checked-replay ----

// listWorkload runs a fixed list of points on the sweep pool with a cold
// memo cache. Every point replays the micro-op stream set-up recorded
// instead of running the generator.
type listWorkload struct {
	e       env
	points  []sweep.Point
	streams map[uint64][]isa.Uop
}

// subSeed derives the seed of checked-replay's j-th run of one
// configuration. Several seeds per configuration average out how much one
// seed's stream happens to cost, so a pass costs nearly the same at any
// workload seed.
func subSeed(seed uint64, j int) uint64 { return seed*16 + uint64(j) }

// setupCheckedReplay records each point's micro-op stream from the
// generator, sized as the oracle fuzzer sizes it (check.CaptureFor).
func setupCheckedReplay(_ context.Context, e env) (workload, error) {
	l := &listWorkload{e: e, streams: map[uint64][]isa.Uop{}}
	for _, d := range []core.StoreDesign{core.DesignSRL, core.DesignHierarchical} {
		for _, s := range []trace.Suite{trace.SFP2K, trace.SINT2K, trace.WEB, trace.SERVER} {
			for j := 0; j < e.sc.checkSeeds; j++ {
				cfg := core.DefaultConfig(d)
				cfg.Seed, cfg.WarmupUops, cfg.RunUops = subSeed(e.seed, j), e.sc.checkWarmup, e.sc.checkUops
				cfg.Check = true
				cfg.FencePer1K, cfg.AcquireFrac, cfg.ReleaseFrac = 4, 0.1, 0.1
				l.points = append(l.points, sweep.Point{Label: d.String(), Cfg: cfg, Suite: s})
				l.streams[core.PointFingerprint(cfg, s)] = check.CaptureFor(cfg, s)
			}
		}
	}
	return l, nil
}

func (l *listWorkload) checked() bool { return true }

// probes spreads the probe points over the configurations, one seed each.
func (l *listWorkload) probes() []sweep.Point {
	seen := map[string]bool{}
	var first []sweep.Point
	for _, p := range l.points {
		if k := p.String(); !seen[k] {
			seen[k] = true
			first = append(first, p)
		}
	}
	return spread(first, l.e.sc.probePoints)
}

// replay is the SimulateFunc of the untraced passes.
func (l *listWorkload) replay(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
	uops, ok := l.streams[core.PointFingerprint(cfg, suite)]
	if !ok {
		return nil, fmt.Errorf("no recorded stream for %s/%s", cfg.Design, suite)
	}
	c, err := core.NewFromSource(cfg, check.NewSliceSource(uops), profileFor(cfg, suite))
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}

// lapPoints is how many points a checked-replay clock segment holds.
const lapPoints = 8

// pass runs the points lapPoints at a time through one memo cache, lapping
// its clock after each run.
func (l *listWorkload) pass(ctx context.Context, tr *tracer, clk *clock) (*passOut, error) {
	if clk == nil {
		clk = &clock{}
	}
	sim := l.replay
	if tr != nil {
		sim = tr.simulateReplay(l.replay)
	}
	n := lapPoints
	cache := sweep.NewCache()
	out := &passOut{}
	clk.begin()
	for i := 0; i < len(l.points); i += n {
		sid := tr.open("sweep.run", "", -1)
		tr.setCurrent(sid)
		rep, _ := sweep.Run(ctx, l.points[i:min(i+n, len(l.points))], sweep.Options{Workers: l.e.workers, Cache: cache, Simulate: sim})
		tr.close(sid)
		out.add("", i, rep)
		clk.lap()
	}
	out.wall, out.scaled = clk.wall(), sum(clk.scaled())
	out.cache = cache.Stats()
	return out, nil
}

// warmUp simulates pts at a toy run length, so that lazy allocation and
// first-touch page faults land in set-up instead of the first timed pass.
// It uses one fixed seed: its cost is the same at every workload seed.
func warmUp(ctx context.Context, pts []sweep.Point, workers int) error {
	pts = append([]sweep.Point(nil), pts...)
	for i := range pts {
		pts[i].Cfg.Seed, pts[i].Cfg.WarmupUops, pts[i].Cfg.RunUops = 1, 500, 2_000
	}
	_, err := sweep.Run(ctx, pts, sweep.Options{Workers: workers, NoCache: true})
	return err
}

// spread picks up to n points evenly from pts, in order.
func spread(pts []sweep.Point, n int) []sweep.Point {
	if len(pts) <= n {
		return pts
	}
	out := make([]sweep.Point, n)
	for i := range out {
		out[i] = pts[i*len(pts)/n]
	}
	return out
}
