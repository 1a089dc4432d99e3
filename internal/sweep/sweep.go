// Package sweep is the experiment-orchestration engine: it runs a set of
// (config, suite) simulation points on a bounded worker pool with
// context.Context cancellation, per-worker panic isolation, per-point
// timing, and process-wide result memoization keyed by a stable config
// fingerprint.
//
// Package bench builds every table and figure of the paper's evaluation on
// top of this engine; the srlproc facade exposes its knobs (workers, cache
// bypass) through bench.Options.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/trace"
)

// Point is one simulation job: a configuration on a workload suite, with a
// free-form label the caller uses to key its aggregation.
type Point struct {
	Label string
	Cfg   core.Config
	Suite trace.Suite
}

func (p Point) String() string { return p.Label + "/" + p.Suite.String() }

// SimulateFunc produces the results for one point. The default simulator
// builds a core and runs it under the context; tests substitute fakes.
type SimulateFunc func(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error)

// Simulate is the default SimulateFunc: a fresh core.New + RunContext.
func Simulate(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
	c, err := core.New(cfg, suite)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}

// Options configure one sweep.
type Options struct {
	// Workers bounds the pool: 0 (or negative) means runtime.GOMAXPROCS,
	// 1 means fully serial, n > 1 means at most n points in flight.
	Workers int

	// NoCache disables result memoization: every point simulates fresh
	// and nothing is published to the cache.
	NoCache bool

	// Cache overrides the memo cache; nil means the process-wide Global()
	// cache. Ignored when NoCache is set.
	Cache *Cache

	// Simulate overrides the point simulator; nil means Simulate. The
	// memo cache keys only on (config, suite), so substituting a
	// simulator mid-process should pair with a private Cache or NoCache.
	Simulate SimulateFunc
}

// PointResult is one point's outcome and cost.
type PointResult struct {
	Point    Point
	Results  *core.Results // nil on error
	Err      error         // nil on success
	Wall     time.Duration // wall time spent on this point
	CacheHit bool
}

// Report aggregates a sweep: per-point outcomes in input order plus
// whole-sweep counts.
type Report struct {
	Points    []PointResult
	CacheHits int
	Simulated int // points that ran a fresh simulation
	Failed    int
	// Err is every point error joined with errors.Join (nil if none). A
	// cancelled sweep's Err wraps ctx.Err().
	Err error
}

// Run executes every point on a bounded worker pool and returns the report
// plus the join of all point errors (also stored in Report.Err).
//
// Results are deterministic in the points, not the pool: Report.Points is
// in input order and each point's Results depend only on its config, so
// any Workers value yields identical aggregates.
//
// Cancelling ctx stops the sweep promptly: in-flight simulations poll the
// context and abort, queued points are never started, and every point that
// did not complete carries (and Err wraps) ctx.Err(). A panic inside a
// point is recovered and surfaced as that point's error; the sweep and the
// process keep running.
func Run(ctx context.Context, points []Point, opts Options) (*Report, error) {
	rep := &Report{Points: make([]PointResult, len(points))}
	for i := range points {
		rep.Points[i].Point = points[i]
	}
	if len(points) == 0 {
		return rep, nil
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	sim := opts.Simulate
	if sim == nil {
		sim = Simulate
	}
	cache := opts.Cache
	if cache == nil {
		cache = globalCache
	}
	if opts.NoCache {
		cache = nil
	}

	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := range points {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				pr := runOne(ctx, cache, sim, points[i])
				mu.Lock()
				rep.Points[i] = pr
				if pr.CacheHit {
					rep.CacheHits++
				} else if pr.Err == nil {
					rep.Simulated++
				}
				if pr.Err != nil {
					rep.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Points the pool never reached (cancellation) carry the context error.
	if ctx.Err() != nil {
		for i := range rep.Points {
			pr := &rep.Points[i]
			if pr.Results == nil && pr.Err == nil {
				pr.Err = fmt.Errorf("sweep: point not run: %w", ctx.Err())
				rep.Failed++
			}
		}
	}
	var errs []error
	for i := range rep.Points {
		if pr := &rep.Points[i]; pr.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", pr.Point, pr.Err))
		}
	}
	rep.Err = errors.Join(errs...)
	return rep, rep.Err
}

// runOne executes one point, converting panics (from the simulator or the
// config machinery) into point-level errors.
func runOne(ctx context.Context, cache *Cache, sim SimulateFunc, p Point) (pr PointResult) {
	pr.Point = p
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			pr.Results = nil
			pr.Err = fmt.Errorf("sweep: point panicked: %v", r)
			pr.Wall = time.Since(start)
		}
	}()
	if cache == nil {
		pr.Results, pr.Err = sim(ctx, p.Cfg, p.Suite)
	} else {
		pr.Results, pr.CacheHit, pr.Err = cache.do(ctx, p.Cfg, p.Suite, func() (*core.Results, error) {
			return sim(ctx, p.Cfg, p.Suite)
		})
	}
	pr.Wall = time.Since(start)
	return pr
}
