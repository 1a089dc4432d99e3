package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/isa"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// span is one timed call into a layer. Name is "<layer>.<operation>";
// Key ties the spans of one simulation point (its fingerprint) or one
// experiment unit together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Calls may come from several sweep workers at once.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cur is the span new point and store spans hang under: the running
	// experiment unit, or the sweep of a point-list workload.
	cur atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	return t
}

// open starts a span and returns its id; on a nil tracer (an untraced
// pass) it does nothing and returns -1.
func (t *tracer) open(name, key string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: now, End: -1})
	return id
}

// close ends span id; it ignores the -1 of an untraced pass.
func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setCurrent makes span id the parent of the point and store spans that
// follow.
func (t *tracer) setCurrent(id int) {
	if t != nil {
		t.cur.Store(int64(id))
	}
}

// layerOf returns the layer part of a span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// durationsMs lists the duration of every finished span named name, in
// milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var ms float64
	for _, d := range t.durationsMs(name) {
		ms += d
	}
	return time.Duration(ms * 1e6)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each layer's self time: every span's duration minus
// the part of its interval that its child spans cover (children of one
// parent may overlap when the sweep runs points concurrently).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// chunkLen is how many micro-ops chunkSource generates per timed call;
// large enough that the two clock reads per chunk cost nothing measurable.
const chunkLen = 1024

// chunkSource feeds the core from a trace generator in timed chunks, so the
// generator's host time is measured apart from the core's while the core
// still sees exactly the stream the generator emits. When rec is set every
// micro-op handed to the core is also kept, for replay.
type chunkSource struct {
	gen    trace.Source
	buf    []isa.Uop
	pos    int
	rec    bool
	stream []isa.Uop

	tr     *tracer // nil: time without recording spans
	key    string
	parent int

	genTime   time.Duration
	generated uint64
}

func (s *chunkSource) Next() isa.Uop {
	if s.pos == len(s.buf) {
		if s.buf == nil {
			s.buf = make([]isa.Uop, chunkLen)
		}
		id := s.tr.open("trace.next", s.key, s.parent)
		start := time.Now()
		for i := range s.buf {
			s.buf[i] = s.gen.Next()
		}
		s.genTime += time.Since(start)
		s.tr.close(id)
		s.generated += chunkLen
		s.pos = 0
	}
	u := s.buf[s.pos]
	s.pos++
	if s.rec {
		s.stream = append(s.stream, u)
	}
	return u
}

// simulateGenerated is the traced form of sweep.Simulate: the same core
// over the same generator stream, with the generator's chunks, its
// construction and the core's run each in a span under the point's span.
func (t *tracer) simulateGenerated(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
	key := fmt.Sprintf("%016x", core.PointFingerprint(cfg, suite))
	pid := t.open("sweep.point", key, int(t.cur.Load()))
	defer t.close(pid)
	prof := profileFor(cfg, suite)
	gid := t.open("trace.new", key, pid)
	gen := trace.NewGenerator(prof, cfg.Seed)
	t.close(gid)
	cid := t.open("core.run", key, pid)
	defer t.close(cid)
	c, err := core.NewFromSource(cfg, &chunkSource{gen: gen, tr: t, key: key, parent: cid}, prof)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}

// simulateReplay wraps a replaying SimulateFunc in a point span and a core
// span; replay reads memory, so no generator span appears.
func (t *tracer) simulateReplay(replay sweep.SimulateFunc) sweep.SimulateFunc {
	return func(ctx context.Context, cfg core.Config, suite trace.Suite) (*core.Results, error) {
		key := fmt.Sprintf("%016x", core.PointFingerprint(cfg, suite))
		pid := t.open("sweep.point", key, int(t.cur.Load()))
		defer t.close(pid)
		cid := t.open("core.run", key, pid)
		defer t.close(cid)
		return replay(ctx, cfg, suite)
	}
}

// profileFor mirrors cfg's memory-ordering knobs into suite's profile, as
// core.New does, so a core built over another source sees the same
// ambient workload.
func profileFor(cfg core.Config, suite trace.Suite) trace.Profile {
	p := trace.ProfileFor(suite)
	p.FencePer1K = cfg.FencePer1K
	p.AcquireFrac = cfg.AcquireFrac
	p.ReleaseFrac = cfg.ReleaseFrac
	return p
}

// tracedStore records a span around every store read and write.
type tracedStore struct {
	store.ResultStore
	tr *tracer
}

func (s tracedStore) Get(k store.Key) (*core.Results, bool, error) {
	id := s.tr.open("store.get", k.FingerprintHex(), int(s.tr.cur.Load()))
	defer s.tr.close(id)
	return s.ResultStore.Get(k)
}

func (s tracedStore) Put(k store.Key, res *core.Results) (store.Entry, error) {
	id := s.tr.open("store.put", k.FingerprintHex(), int(s.tr.cur.Load()))
	defer s.tr.close(id)
	return s.ResultStore.Put(k, res)
}
