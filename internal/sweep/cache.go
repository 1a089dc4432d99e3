package sweep

import (
	"context"
	"fmt"
	"sync"

	"srlproc/internal/core"
	"srlproc/internal/store"
	"srlproc/internal/trace"
)

// Cache memoizes simulation results by the stable fingerprint of their
// (Config, suite) point — the seed and run lengths are part of the config
// and therefore part of the key. The simulator is deterministic in its
// config, so a cached *core.Results is indistinguishable from a fresh run.
//
// Concurrent requests for the same point are collapsed: the first caller
// simulates, later callers wait for its result (single-flight), so one
// sweep never simulates a point twice no matter how its worker pool
// schedules duplicates. Failed or cancelled computations are not cached.
//
// The cache is unbounded: every process that holds one runs a fixed plan
// (one paper grid, one benchmark pass) and exits, so it never memoizes
// more than that plan's distinct points (117 for one paper-grid profile).
//
// Cached results are shared pointers and must be treated as read-only by
// all consumers, which every aggregation path in this repository does.
type Cache struct {
	mu     sync.Mutex
	m      map[uint64]*cacheEntry
	hits   uint64
	misses uint64

	// Persistent tier (see AttachStore in store.go). store is nil unless
	// attached; stamp is the binary's code-version stamp folded into every
	// store key; writeSem bounds asynchronous write-through goroutines and
	// writeWG lets FlushStore wait for them.
	store       store.ResultStore
	stamp       string
	writeSem    chan struct{}
	writeWG     sync.WaitGroup
	storeHits   uint64
	storeMisses uint64
	storePuts   uint64
	storeErrors uint64
}

type cacheEntry struct {
	ready chan struct{} // closed when res/err are final
	res   *core.Results
	err   error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[uint64]*cacheEntry)}
}

// globalCache memoizes across every sweep in the process, so the repeated
// points of the paper's evaluation (the baseline and SRL configs recur in
// Figures 2, 6, 8, 9 and 10) are simulated once per process.
var globalCache = NewCache()

// Global returns the process-wide cache that sweeps use by default.
func Global() *Cache { return globalCache }

// Stats is a point-in-time snapshot of a cache's counters. Hits and
// Misses count the in-memory memo tier only; the Store* fields count the
// attached persistent tier (all zero when no store is attached).
type Stats struct {
	Hits   uint64
	Misses uint64
	// Entries counts memoized points including in-flight computations.
	Entries int

	// Persistent-tier traffic from this cache: memo misses served by the
	// store, memo misses the store also missed (simulated fresh), results
	// written through, and store operations that returned errors.
	StoreHits   uint64
	StoreMisses uint64
	StorePuts   uint64
	StoreErrors uint64
}

// Stats returns a consistent snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Entries:     len(c.m),
		StoreHits:   c.storeHits,
		StoreMisses: c.storeMisses,
		StorePuts:   c.storePuts,
		StoreErrors: c.storeErrors,
	}
}

// Reset drops every memoized result and zeroes every counter. It is safe
// against concurrent in-flight computations: they complete and publish to
// their waiters, and — because their entry is no longer the one in the map
// — leave the reset cache untouched.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[uint64]*cacheEntry)
	c.hits, c.misses = 0, 0
	c.storeHits, c.storeMisses, c.storePuts, c.storeErrors = 0, 0, 0, 0
}

// do returns the memoized result for the point, computing it with fn on a
// miss. hit reports whether the result came from the cache — the memo
// tier, another goroutine's in-flight computation, or the attached
// persistent store; only a fresh simulation reports hit=false, which is
// what lets a warm restart replay a sweep with Report.Simulated == 0. A
// ctx cancelled while waiting returns ctx's error without disturbing the
// computation and without counting a hit or a miss.
//
// Accounting invariant (pinned by TestCachePoisonedRetryAccounting): every
// do call that returns a result counts exactly one memo hit, one store
// hit, or one miss, even on the failed-attempt retry path — a waiter that
// wakes on a failed attempt loops, and either becomes the fresh computer
// (one miss) or waits on a newer attempt (one hit on its success).
func (c *Cache) do(ctx context.Context, cfg core.Config, suite trace.Suite,
	fn func() (*core.Results, error)) (res *core.Results, hit bool, err error) {
	key := core.PointFingerprint(cfg, suite)
	for {
		c.mu.Lock()
		if e, ok := c.m[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.ready:
				if e.err == nil {
					c.mu.Lock()
					c.hits++
					c.mu.Unlock()
					return e.res, true, nil
				}
				// The in-flight attempt failed and removed itself from
				// the map; retry so this caller computes (or waits on a
				// newer attempt) and reports its own error.
				continue
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		// Memo miss: insert the in-flight entry first (so duplicate
		// requests collapse onto it even while the store is probed), then
		// fall through to the persistent tier before paying for a
		// simulation. Only a store miss counts as a cache miss.
		e := &cacheEntry{ready: make(chan struct{})}
		c.m[key] = e
		st, stamp := c.store, c.stamp
		c.mu.Unlock()
		if st != nil {
			if got, ok := c.storeGet(st, stamp, key); ok {
				// Publish the store-hydrated result exactly as a
				// successful compute would, waking any waiters.
				e.res = got
				close(e.ready)
				return got, true, nil
			}
		}
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		res, err = c.compute(key, e, fn)
		if err == nil {
			c.writeThrough(key, res)
		}
		return res, false, err
	}
}

// compute runs fn, publishes its outcome on e, and drops e on failure so
// the point can be retried. A panic in fn is published as an error to any
// waiters before being re-raised to the caller.
func (c *Cache) compute(key uint64, e *cacheEntry,
	fn func() (*core.Results, error)) (res *core.Results, err error) {
	defer func() {
		p := recover()
		if p != nil {
			e.err = fmt.Errorf("sweep: simulation panicked: %v", p)
		} else {
			e.res, e.err = res, err
		}
		c.mu.Lock()
		// Identity check: a concurrent Reset may have replaced the map out
		// from under this computation; only the entry still registered for
		// its key may be dropped.
		if e.err != nil && c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
		close(e.ready)
		if p != nil {
			panic(p)
		}
	}()
	res, err = fn()
	return res, err
}
