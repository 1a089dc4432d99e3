package main

import (
	"context"
	"fmt"
	"time"

	"srlproc/internal/cachesim"
	"srlproc/internal/check"
	"srlproc/internal/core"
	"srlproc/internal/isa"
	"srlproc/internal/lsq"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// opCost accumulates host time over a counted number of operations.
type opCost struct {
	d   time.Duration
	ops uint64
}

func (c *opCost) add(d time.Duration, ops uint64) { c.d += d; c.ops += ops }

// ns returns nanoseconds per operation (0 with no operations).
func (c opCost) ns() float64 { return ratio(float64(c.d.Nanoseconds()), float64(c.ops)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeOut is what the layer probes measured over a workload's probe
// points. Every probe point runs with its warm-up folded into the measured
// region, so Results count every simulated cycle and micro-op.
type probeOut struct {
	gen                   opCost // trace.Generator.Next per generated uop
	coreUop, coreCycle    opCost // replay with EventSkip on
	skipOn, skipOff       time.Duration
	checkedT, uncheckedT  time.Duration
	divergences           uint64
	srl, lcf, lb, stq     opCost
	cache                 opCost
	l1Access, l1Miss, mem uint64
	identityFailures      []string
}

// probeReps is how many times each probe replay runs.
const probeReps = 3

// probeLayers drives each layer with the probe points' own streams:
//   - the generator feeds a core in timed chunks while the stream is kept;
//   - the kept stream is replayed with EventSkip on and off, and (for a
//     checking workload) with the oracle off, each probeReps times; every
//     replay must match the generator-fed run;
//   - the stream's addresses drive the SRL, LCF, load buffer, store queue
//     and cache hierarchy at the point's sizes.
func probeLayers(ctx context.Context, pts []sweep.Point, checking bool) (*probeOut, error) {
	p := &probeOut{}
	for _, pt := range pts {
		cfg := pt.Cfg
		cfg.RunUops += cfg.WarmupUops
		cfg.WarmupUops = 0
		cfg.EventSkip = true
		prof := profileFor(cfg, pt.Suite)

		src := &chunkSource{gen: trace.NewGenerator(prof, cfg.Seed), rec: true}
		c, err := core.NewFromSource(cfg, src, prof)
		if err != nil {
			return nil, err
		}
		ref, err := c.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		p.gen.add(src.genTime, src.generated)
		want := resultsDigest(ref)

		replay := func(cfg core.Config) (time.Duration, error) {
			start := time.Now()
			c, err := core.NewFromSource(cfg, check.NewSliceSource(src.stream), prof)
			if err != nil {
				return 0, err
			}
			res, err := c.RunContext(ctx)
			if err != nil {
				return 0, err
			}
			d := time.Since(start)
			p.divergences += res.DivergenceCount
			if got := resultsDigest(res); got != want {
				p.identityFailures = append(p.identityFailures,
					fmt.Sprintf("%s skip=%v check=%v: digest %s, generator-fed run %s", pt, cfg.EventSkip, cfg.Check, got, want))
			}
			return d, nil
		}
		// Each variant replays probeReps times, interleaved, and keeps its
		// fastest run: one replay on a shared machine is too noisy to
		// compare against another.
		variants := []core.Config{cfg, cfg}
		variants[1].EventSkip = false
		if checking {
			variants = append(variants, cfg)
			variants[2].Check = false
		}
		best := make([]time.Duration, len(variants))
		for r := 0; r < probeReps; r++ {
			for i, v := range variants {
				d, err := replay(v)
				if err != nil {
					return nil, err
				}
				if r == 0 || d < best[i] {
					best[i] = d
				}
			}
		}
		p.skipOn += best[0]
		p.skipOff += best[1]
		// The core's own cost excludes the oracle: a checking workload
		// also replays unchecked, and the difference is the oracle's.
		coreT := best[0]
		if checking {
			coreT = best[2]
			p.checkedT += best[0]
			p.uncheckedT += coreT
		}
		p.coreUop.add(coreT, ref.Uops)
		p.coreCycle.add(coreT, ref.Cycles)
		p.driveLSQ(cfg, src.stream)
		p.driveCache(cfg, src.stream)
	}
	return p, nil
}

// driveLSQ runs the stream's loads and stores through the point's LSQ
// structures in program order, timing each structure on its own.
func (p *probeOut) driveLSQ(cfg core.Config, uops []isa.Uop) {
	// SRL: every store allocates at the tail; a full log drains its head.
	srl := lsq.NewSRL(cfg.SRLSize)
	var ops, idx uint64
	start := time.Now()
	for i := range uops {
		u := &uops[i]
		if u.Class != isa.Store {
			continue
		}
		if srl.Full() {
			srl.PopHead()
			ops++
		}
		idx++
		srl.Alloc(lsq.StoreEntry{Seq: u.Seq, PC: u.PC, Addr: u.Addr, Size: u.Size, AddrKnown: true, DataReady: true, SRLIndex: idx})
		ops++
	}
	p.srl.add(time.Since(start), ops)

	// LCF: stores count in and, once an SRL's worth is resident, the
	// oldest counts out; loads probe.
	if cfg.LCFSize > 0 {
		lcf := lsq.NewLCF(cfg.LCFSize, cfg.LCFHash, cfg.LCFCounterBits)
		window := make([]uint64, cfg.SRLSize)
		ops, idx = 0, 0
		start = time.Now()
		for i := range uops {
			u := &uops[i]
			switch u.Class {
			case isa.Store:
				slot := idx % uint64(len(window))
				if idx >= uint64(len(window)) {
					lcf.Dec(window[slot])
					ops++
				}
				lcf.IncSticky(u.Addr, idx)
				window[slot] = u.Addr
				idx++
				ops++
			case isa.Load:
				lcf.Probe(u.Addr)
				ops++
			}
		}
		p.lcf.add(time.Since(start), ops)
	}

	// Load buffer: loads insert under their checkpoint; stores check it;
	// checkpoints older than the machine's checkpoint count commit.
	assoc, policy, victim := cfg.LQSize, lsq.OverflowViolate, 0
	if cfg.Design == core.DesignSRL {
		assoc, policy, victim = cfg.LoadBufAssoc, cfg.LoadBufPolicy, cfg.LoadBufVictim
	}
	lb := lsq.NewLoadBuffer(cfg.LQSize, assoc, policy, victim)
	ops, idx = 0, 0
	committed := 0
	start = time.Now()
	for i := range uops {
		u := &uops[i]
		ckpt := int(u.Seq) / cfg.CkptInterval
		for ; committed < ckpt-cfg.Checkpoints; committed++ {
			lb.CommitCkpt(committed)
		}
		switch u.Class {
		case isa.Load:
			lb.Insert(lsq.LoadEntry{Seq: u.Seq, PC: u.PC, Addr: u.Addr, Size: u.Size,
				NearestStoreID: idx, FwdStoreID: lsq.NoFwd, Ckpt: ckpt})
			ops++
		case isa.Store:
			idx++
			lb.StoreCheck(u.Addr, u.Size, idx)
			ops++
		}
	}
	p.lb.add(time.Since(start), ops)

	// Store queue: stores allocate (the oldest drains when full); loads
	// search it.
	size := cfg.L1STQSize
	if cfg.Design == core.DesignBaseline || cfg.Design == core.DesignLargeSTQ || cfg.Design == core.DesignFilteredSTQ {
		size = cfg.STQSize
	}
	q := lsq.NewStoreQueue("STQ", size, cfg.L1STQLatency)
	ops = 0
	start = time.Now()
	for i := range uops {
		u := &uops[i]
		switch u.Class {
		case isa.Store:
			if q.Full() {
				q.PopHead()
			}
			q.Alloc(lsq.StoreEntry{Seq: u.Seq, PC: u.PC, Addr: u.Addr, Size: u.Size, AddrKnown: true, DataReady: true})
			ops++
		case isa.Load:
			q.Search(u.Addr, u.Size, u.Seq)
			ops++
		}
	}
	p.stq.add(time.Since(start), ops)
}

// driveCache sends the stream's loads and stores through a fresh cache
// hierarchy at the point's memory configuration, one micro-op per cycle.
func (p *probeOut) driveCache(cfg core.Config, uops []isa.Uop) {
	h := cachesim.NewHierarchy(cfg.Mem)
	var ops uint64
	start := time.Now()
	for i := range uops {
		u := &uops[i]
		if u.Class.IsMem() {
			h.Access(uint64(i), u.Addr, u.Class == isa.Store)
			ops++
		}
	}
	p.cache.add(time.Since(start), ops)
	p.l1Access += h.L1.Accesses()
	p.l1Miss += h.L1.Misses()
	p.mem += h.MemAccesses()
}
