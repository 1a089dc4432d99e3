// Command perfbench is the srlproc repository benchmark. It sets up one
// workload, runs its fixed batch of simulation points closed loop on a
// sweep pool no wider than the machine, checks every result, and prints
// its metrics as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
// measured untraced, with host times scaled to a reference speed (see
// calib.go). With --trace 1 the run alternates untraced and
// traced passes and probes each layer, and reports the per-layer metrics.
// The line before the result holds the detail: quartiles and sample
// counts of every timing, the deterministic work counts, and the digest.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, at reference speed.
const setupReps = 3

// workers is the sweep pool's width, and the process runs on one P. On the
// 2-CPU machine the benchmark was built on, five runs of one unchanged
// input spread 16% (quartile distance over median) with two workers, 8%
// with one worker, and 5% with one worker on one P: the other CPU is left
// to the system, so a neighbour's load reaches the timed work less often.
const workers = 1

// recorded.json holds the digests the correctness gate compares against,
// per workload and seed, next to the facts about the benchmark that
// BENCHMARK.json's fixed keys have no place for.
//
//go:embed recorded.json
var recordedJSON []byte

type recorded struct {
	// InputSeeds are the simulator seeds the workloads draw their inputs
	// from: --seed n selects InputSeeds[n mod len]. Every one has a digest
	// recorded for every workload.
	InputSeeds []uint64                     `json:"input_seeds"`
	Digests    map[string]map[string]string `json:"digests"`
}

func main() { os.Exit(run()) }

func run() int {
	procStart := time.Now()
	runtime.GOMAXPROCS(workers)
	name := flag.String("workload", "", "workload to run: paper-grid or checked-replay")
	seed := flag.Uint64("seed", 1, "workload seed; it selects the simulator seed the workload's streams are generated from")
	seconds := flag.Int("seconds", 30, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and span output")
	record := flag.String("record", "", "comma-separated simulator seeds: print each one's pass digest for recorded.json instead of measuring")
	flag.Parse()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		return 1
	}
	setup, ok := setups[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fail("usage: --workload <%v> --seed <n> --seconds <s ≥ 1> --trace <0|1>", workloadNames)
	}
	var rec recorded
	if err := json.Unmarshal(recordedJSON, &rec); err != nil || len(rec.InputSeeds) == 0 {
		return fail("recorded.json: no input seeds (%v)", err)
	}
	simSeed := rec.InputSeeds[*seed%uint64(len(rec.InputSeeds))]
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return fail("%v", err)
	}
	tmp, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(tmp)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e := env{seed: simSeed, workers: workers, tmp: tmp, sc: fullScale}
	if *record != "" {
		if err := recordDigests(ctx, *name, e, *record); err != nil {
			return fail("%s: %v", *name, err)
		}
		return 0
	}
	// Each set-up is one segment of a calibrated clock. The first is timed
	// from process start; building the calibrator and the reference runs
	// are left out.
	calStart := time.Now()
	cal := newCalibrator()
	setupClock := &clock{cal: cal}
	setupClock.begin()
	var w workload
	for i := 0; i < setupReps; i++ {
		if w, err = setup(ctx, e); err != nil {
			return fail("%s set-up: %v", *name, err)
		}
		if err := warmUp(ctx, w.probes(), e.workers); err != nil {
			return fail("%s warm-up: %v", *name, err)
		}
		setupClock.lap()
	}
	setupClock.segs[0] += calStart.Sub(procStart)
	setupS := setupClock.scaled()
	var setupWall []float64
	for _, s := range setupClock.segs {
		setupWall = append(setupWall, s.Seconds())
	}

	g := &gate{want: rec.Digests[*name][strconv.FormatUint(simSeed, 10)]}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *traced == 1 {
		res, err = runTraced(ctx, w, g, dur, filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed)))
	} else {
		res, err = runTimed(ctx, w, g, dur, setupS, cal)
	}
	if err != nil {
		return fail("%s: %v", *name, err)
	}
	if g.want == "" {
		g.note("no digest recorded for %s at simulator seed %d", *name, simSeed)
	}
	for _, n := range g.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", n)
	}
	res.Detail["workload"], res.Detail["seed"], res.Detail["sim_seed"], res.Detail["workers"] = *name, *seed, simSeed, e.workers
	res.Detail["digest"], res.Detail["recorded_digest"], res.Detail["problems"] = g.digest, g.want, g.problems
	res.Detail["setup_s"], res.Detail["setup_wall_s"] = summarize(setupS), summarize(setupWall)

	detail, err := json.Marshal(map[string]any{"detail": res.Detail})
	if err != nil {
		return fail("%v", err)
	}
	final, err := json.Marshal(map[string]any{
		"correct":   g.failed == 0 && len(g.problems) == 0,
		"attempted": g.attempted,
		"failed":    g.failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		return fail("%v", err)
	}
	fmt.Printf("%s\n%s\n", detail, final)
	return 0
}

// recordDigests sets the workload up at each seed, runs one pass through
// the gate and prints the digests as recorded.json's entry for it.
func recordDigests(ctx context.Context, name string, e env, seeds string) error {
	digests := map[string]string{}
	for _, f := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return err
		}
		e.seed = seed
		w, err := setups[name](ctx, e)
		if err != nil {
			return err
		}
		out, err := w.pass(ctx, nil, nil)
		if err != nil {
			return err
		}
		g := &gate{}
		g.check(out)
		if g.failed > 0 || len(g.problems) > 0 {
			return fmt.Errorf("seed %d: %v", seed, g.problems)
		}
		digests[f] = g.digest
	}
	b, err := json.Marshal(map[string]any{name: digests})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Metrics map[string]metric
	Detail  map[string]any
}

// gate is the correctness check every pass goes through. A point fails
// when it returns an error, when the oracle reports a divergence, when its
// results differ from the same point's in the run's first pass, or when
// the pass's digest misses the digest recorded for this workload and seed.
type gate struct {
	want      string   // recorded digest; "" when none is recorded for the seed
	digest    string   // the first pass's digest
	first     []string // the first pass's per-point digests
	attempted int
	failed    int
	problems  []string // every failure found, once each
}

func (g *gate) check(out *passOut) {
	digest := passDigest(out.points)
	if g.first == nil {
		g.digest = digest
	}
	whole := false
	if out.err != nil {
		g.note("pass failed: %v", out.err)
		whole = true
	}
	if g.want != "" && digest != g.want {
		g.note("digest %s, recorded %s", digest, g.want)
		whole = true
	}
	per := make([]string, len(out.points))
	for i, p := range out.points {
		g.attempted++
		ok := !whole
		switch {
		case p.err != nil:
			g.note("%s: %v", p.key, p.err)
			ok = false
		case p.res.DivergenceCount > 0:
			g.note("%s: %d oracle divergences", p.key, p.res.DivergenceCount)
			ok = false
		default:
			per[i] = resultsDigest(p.res)
			if g.first != nil && per[i] != g.first[i] {
				g.note("%s: results differ from the first pass", p.key)
				ok = false
			}
		}
		if !ok {
			g.failed++
		}
	}
	if g.first == nil {
		g.first = per
	}
}

// note records a failure once.
func (g *gate) note(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	for _, n := range g.problems {
		if n == s {
			return
		}
	}
	g.problems = append(g.problems, s)
}

// runTimed measures untraced passes until dur has passed. The reported
// host times are scaled to reference speed by cal; the detail keeps the
// unscaled ones and the reference runs.
func runTimed(ctx context.Context, w workload, g *gate, dur time.Duration, setupS []float64, cal *calibrator) (*result, error) {
	var walls, scaled, allocs, rates, wallRates, refMs []float64
	var last *passOut
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	for start := time.Now(); len(walls) == 0 || time.Since(start) < dur; {
		clk := &clock{cal: cal}
		out, alloc, err := timedPass(ctx, w, nil, clk)
		if err != nil {
			return nil, err
		}
		g.check(out)
		uops := float64(out.committedUops())
		walls = append(walls, out.wall.Seconds())
		scaled = append(scaled, out.scaled)
		allocs = append(allocs, alloc)
		rates = append(rates, uops/out.scaled/1e3)
		wallRates = append(wallRates, uops/out.wall.Seconds()/1e3)
		for _, r := range clk.refs {
			refMs = append(refMs, r*1e3)
		}
		last = out
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return &result{
		Metrics: map[string]metric{
			"setup_s":                {median(setupS), "s"},
			"scaled_wall_s":          {median(scaled), "s"},
			"scaled_sim_kuops_per_s": {median(rates), "kuops/s"},
			"alloc_mb":               {median(allocs), "MB"},
			"peak_rss_mb":            {rss, "MB"},
		},
		Detail: map[string]any{
			"passes": len(walls),
			"timings": map[string]any{
				"scaled_wall_s":          summarize(scaled),
				"wall_s":                 summarize(walls),
				"scaled_sim_kuops_per_s": summarize(rates),
				"sim_kuops_per_s":        summarize(wallRates),
				"alloc_mb":               summarize(allocs),
				"reference_run_ms":       summarize(refMs),
			},
			"work": workCounts(last),
		},
	}, nil
}

// timedPass runs one pass after a collection and a file-system sync, so
// neither the previous pass's garbage nor its deleted files are charged to
// this one, and returns the megabytes it allocated. clk may be nil.
func timedPass(ctx context.Context, w workload, tr *tracer, clk *clock) (*passOut, float64, error) {
	syscall.Sync()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out, err := w.pass(ctx, tr, clk)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, 0, err
	}
	if ctx.Err() != nil {
		return nil, 0, ctx.Err()
	}
	return out, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, nil
}

// workCounts are the deterministic counts that go with a pass's timings.
func workCounts(o *passOut) map[string]uint64 {
	m := map[string]uint64{
		"points":         uint64(len(o.points)),
		"committed_uops": o.committedUops(),
		"memo_hits":      o.cache.Hits,
		"memo_misses":    o.cache.Misses,
		"store_hits":     o.cache.StoreHits,
		"store_puts":     o.cache.StorePuts,
	}
	for _, p := range o.points {
		if p.simulated {
			m["points_simulated"]++
			m["sim_cycles"] += p.res.Cycles
			m["sim_uops"] += p.res.Uops
		} else if p.res != nil {
			m["points_served"]++
		}
	}
	return m
}

// resetPeakRSS returns set-up's garbage to the system and restarts the
// kernel's resident-set high-water mark, so peak_rss_mb covers the timed
// passes only and does not depend on when set-up's collections ran.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// median returns the middle value (the mean of the middle two).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same exclusive
// method as Python's statistics.quantiles(v, n=4).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		frac := pos - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// summary is a timing's median, quartiles and sample count.
type summary struct {
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	N   int     `json:"n"`
}

func summarize(v []float64) summary {
	q1, q3 := quartiles(v)
	return summary{P25: q1, P50: median(v), P75: q3, N: len(v)}
}
