package cachesim

import "testing"

func smallHier() *Hierarchy {
	cfg := DefaultConfig()
	cfg.PrefetchOn = false
	return NewHierarchy(cfg)
}

func TestAccessLevels(t *testing.T) {
	h := smallHier()
	r := h.Access(100, 0x1000, false)
	if r.Level != 3 {
		t.Fatalf("cold access level %d", r.Level)
	}
	if r.Done != 100+800+3 {
		t.Fatalf("memory access done %d", r.Done)
	}
	// After the fill time, both levels hit.
	r = h.Access(2000, 0x1000, false)
	if r.Level != 1 || r.Done != 2003 {
		t.Fatalf("warm access level=%d done=%d", r.Level, r.Done)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := smallHier()
	h.Access(0, 0x1000, false)
	// Evict from L1 by filling its set (L1: 32KB/4way/64B = 128 sets;
	// conflicting addresses are 128*64=8192 apart).
	for i := 1; i <= 4; i++ {
		h.Access(1000, uint64(0x1000+i*8192), false)
	}
	r := h.Access(5000, 0x1000, false)
	if r.Level != 2 {
		t.Fatalf("expected L2 hit after L1 eviction, got level %d", r.Level)
	}
}

func TestMSHRMerging(t *testing.T) {
	h := smallHier()
	r1 := h.Access(100, 0x1000, false)
	r2 := h.Access(150, 0x1008, false) // same line, 50 cycles later
	if h.DemandMisses() != 1 {
		t.Fatalf("merged access counted as a new miss (%d)", h.DemandMisses())
	}
	if r2.Done != r1.Done {
		t.Fatalf("merged access fill %d vs %d", r2.Done, r1.Done)
	}
}

func TestMSHRFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchOn = false
	cfg.MSHRs = 2
	h := NewHierarchy(cfg)
	h.Access(100, 0x10000, false)
	h.Access(100, 0x20000, false)
	r := h.Access(100, 0x30000, false)
	if !r.MSHRFull {
		t.Fatal("third concurrent miss admitted with 2 MSHRs")
	}
	if h.MSHRFullEvents() != 1 {
		t.Fatalf("MSHRFullEvents %d", h.MSHRFullEvents())
	}
	// Once the fills complete, new misses are admitted again.
	r = h.Access(2000, 0x30000, false)
	if r.MSHRFull {
		t.Fatal("MSHRs not freed after fill time")
	}
}

func TestWriteAllocatesAndDirties(t *testing.T) {
	h := smallHier()
	h.Access(0, 0x1000, true)
	// L1 holds the line dirty: evicting it must push it to L2 dirty and
	// count a writeback.
	for i := 1; i <= 4; i++ {
		h.Access(1000, uint64(0x1000+i*8192), false)
	}
	if h.L1.Writebacks() != 1 {
		t.Fatalf("L1 writebacks %d", h.L1.Writebacks())
	}
}

func TestSnoopInvalidatesBothLevels(t *testing.T) {
	h := smallHier()
	h.Access(0, 0x1000, false)
	if !h.Snoop(0x1000) {
		t.Fatal("snoop missed a resident line")
	}
	if h.ProbeState(0x1000) == "l1" || h.ProbeState(0x1000) == "l2" {
		t.Fatal("line survived snoop")
	}
}

func TestPseudoInclusiveVictims(t *testing.T) {
	// Clean L1 victims must re-register in L2 so long-L1-resident lines
	// (whose L2 copies age out, since L1 hits don't refresh L2 LRU) never
	// silently fall all the way to memory. Because L1 index bits nest
	// inside L2 index bits, any traffic that could age a line out of its
	// L2 set necessarily evicts it from L1 first — and that eviction
	// re-registers it. Verify the re-registration directly: drop the L2
	// copy, then evict the L1 copy and check it lands back in L2.
	h := smallHier()
	h.Access(0, 0x1000, false) // resident in L1+L2
	h.L2.Invalidate(0x1000)    // L2 copy aged out
	for i := 1; i <= 4; i++ {
		h.Access(2000, uint64(0x1000+i*8192), false) // evict from L1 (4-way)
	}
	if h.L1.Contains(0x1000) {
		t.Fatal("test setup: line still in L1")
	}
	if !h.L2.Contains(0x1000) {
		t.Fatal("clean L1 victim not re-registered in L2")
	}
}

func TestWouldMissToMemory(t *testing.T) {
	h := smallHier()
	if !h.WouldMissToMemory(0, 0x5000) {
		t.Fatal("cold line reported warm")
	}
	h.Access(0, 0x5000, false)
	if h.WouldMissToMemory(100, 0x5000) {
		t.Fatal("pending/resident line reported cold")
	}
	// Evict the line from both cache levels while its completed MSHR entry
	// lingers (the file is garbage-collected lazily): a probe after the
	// fill cycle must not mistake the stale entry for an in-flight miss.
	h.L1.Invalidate(0x5000)
	h.L2.Invalidate(0x5000)
	if !h.WouldMissToMemory(5000, 0x5000) {
		t.Fatal("expired MSHR entry suppressed a true miss")
	}
}

// TestMSHRAdmitsAfterCompletion drives the file to its cap, advances past
// every fill's completion, and requires the next distinct-line miss to be
// admitted: Access must prune completed fills before applying the cap, or
// stale entries reject admissible accesses forever.
func TestMSHRAdmitsAfterCompletion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchOn = false
	cfg.MSHRs = 2
	h := NewHierarchy(cfg)
	h.Access(100, 0x10000, false)
	h.Access(100, 0x20000, false)
	if r := h.Access(100, 0x30000, false); !r.MSHRFull {
		t.Fatal("third concurrent miss admitted with 2 MSHRs")
	}
	// Both fills complete at cycle 900. At 901 the file is logically empty.
	r := h.Access(901, 0x40000, false)
	if r.MSHRFull {
		t.Fatal("miss rejected after all outstanding fills completed")
	}
	if r.Level != 3 || r.Done != 901+800+3 {
		t.Fatalf("admitted miss level=%d done=%d", r.Level, r.Done)
	}
	if got := h.MSHRFullEvents(); got != 1 {
		t.Fatalf("MSHRFullEvents %d, want 1", got)
	}
}

func TestDiscardSpecInto(t *testing.T) {
	h := smallHier()
	h.Access(0, 0x1000, false)
	h.L1.SpecWrite(0x1000, 1, false)
	h.L2.Invalidate(0x1000)
	addrs := h.L1.DiscardSpecFrom(0)
	if n := h.DiscardSpecInto(100, addrs); n != 1 {
		t.Fatalf("discarded %d", n)
	}
	if !h.L2.Contains(0x1000) {
		t.Fatal("discarded spec line not re-registered in L2")
	}
}

func TestPrefetcherCoversStream(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	cycle := uint64(1000)
	base := uint64(0x8000_0000)
	slow, total := 0, 0
	for line := uint64(0); line < 200; line++ {
		for a := uint64(0); a < 8; a++ {
			res := h.Access(cycle, base+line*64+a*8, false)
			if res.MSHRFull {
				cycle += 5
				continue
			}
			total++
			if res.Done > cycle+50 && line > 10 {
				slow++
			}
			cycle += 112
		}
	}
	if slow > total/20 {
		t.Fatalf("stream poorly covered: %d slow of %d", slow, total)
	}
	if h.PrefetchIssued() == 0 {
		t.Fatal("no prefetches issued")
	}
}

func TestPrefetcherDescendingStream(t *testing.T) {
	p := NewStreamPrefetcher(4, 2)
	base := uint64(0x9000_0000)
	p.OnMiss(base, 1)
	out := p.OnMiss(base-64, 2) // descending neighbour confirms
	if len(out) != 2 || out[0] != base-128 {
		t.Fatalf("descending prefetch %v", out)
	}
}

func TestPrefetcherSlotReplacement(t *testing.T) {
	p := NewStreamPrefetcher(2, 2)
	p.OnMiss(0x1000, 1)
	p.OnMiss(0x9000, 2)
	p.OnMiss(0x20000, 3) // evicts the LRU unconfirmed slot
	// The first stream's continuation now re-allocates rather than confirms.
	if out := p.OnMiss(0x1040, 4); len(out) != 0 {
		// Acceptable: 0x1040 may pair with a surviving neighbour slot; the
		// contract is merely that nothing panics and slots recycle.
		t.Logf("continuation produced %v", out)
	}
}

// refHier is the reference model for TestMSHRFileMatchesReference: the
// hierarchy's access and prefetch paths written over a map MSHR file
// (line address -> fill cycle), with its own caches and prefetcher.
type refHier struct {
	cfg    Config
	l1, l2 *Cache
	pf     *StreamPrefetcher
	mshrs  map[uint64]uint64
	full   uint64

	merges, exactFrees int // coverage: MSHR-file merges, frees at done == cycle
}

func newRefHier(cfg Config) *refHier {
	return &refHier{
		cfg:   cfg,
		l1:    NewCache("L1D", cfg.L1Size, cfg.L1Assoc, cfg.L1Latency),
		l2:    NewCache("L2", cfg.L2Size, cfg.L2Assoc, cfg.L2Latency),
		pf:    NewStreamPrefetcher(cfg.PrefetchN, cfg.PrefetchD),
		mshrs: map[uint64]uint64{},
	}
}

func (r *refHier) prune(cycle uint64) {
	for la, done := range r.mshrs {
		if done <= cycle {
			if done == cycle {
				r.exactFrees++
			}
			delete(r.mshrs, la)
		}
	}
}

func (r *refHier) fillL1(la, ready uint64, dirty bool) {
	if ev := r.l1.Insert(la, ready, dirty); ev.Valid {
		r.l2.Insert(ev.Addr, ready, ev.Dirty)
	}
}

func (r *refHier) access(cycle, addr uint64, write bool) AccessResult {
	la := addr &^ 63
	if hit, ready := r.l1.Lookup(cycle, addr); hit {
		if write {
			r.l1.MarkDirty(addr)
		}
		return AccessResult{Done: ready, Level: 1}
	}
	for _, pl := range r.pf.OnMiss(addr, cycle) {
		r.prefetch(cycle, pl)
	}
	if hit, ready := r.l2.Lookup(cycle, addr); hit {
		r.fillL1(la, ready+r.cfg.L1Latency, write)
		return AccessResult{Done: ready + r.cfg.L1Latency, Level: 2}
	}
	r.prune(cycle)
	if done, ok := r.mshrs[la]; ok {
		r.merges++
		r.fillL1(la, done+r.cfg.L1Latency, write)
		return AccessResult{Done: done + r.cfg.L1Latency, Level: 3}
	}
	if len(r.mshrs) >= r.cfg.MSHRs {
		r.full++
		return AccessResult{MSHRFull: true}
	}
	fill := cycle + r.cfg.MemLatency
	r.mshrs[la] = fill
	r.l2.Insert(la, fill, false)
	r.fillL1(la, fill+r.cfg.L1Latency, write)
	return AccessResult{Done: fill + r.cfg.L1Latency, Level: 3}
}

func (r *refHier) prefetch(cycle, addr uint64) {
	la := addr &^ 63
	if r.l2.Contains(la) {
		return
	}
	r.prune(cycle)
	if _, ok := r.mshrs[la]; ok || len(r.mshrs) >= r.cfg.MSHRs {
		return
	}
	r.mshrs[la] = cycle + r.cfg.MemLatency
	r.l2.Insert(la, cycle+r.cfg.MemLatency, false)
}

func (r *refHier) earliest(cycle uint64) (uint64, bool) {
	best, ok := ^uint64(0), false
	for _, done := range r.mshrs {
		if done > cycle && done < best {
			best, ok = done, true
		}
	}
	return best, ok
}

func (r *refHier) wouldMiss(cycle, addr uint64) bool {
	la := addr &^ 63
	if r.l1.Contains(la) || r.l2.Contains(la) {
		return false
	}
	done, pending := r.mshrs[la]
	return !pending || done <= cycle
}

// TestMSHRFileMatchesReference drives random demand reads, writes,
// prefetches and invalidations through the hierarchy and through refHier
// in lockstep, with small caches so lines fall out of both levels while
// their misses are still in flight. Every access result, the MSHR-full
// count, EarliestPendingFill, WouldMissToMemory and the file's occupancy
// must agree after every step. Time often jumps to exactly the earliest
// pending fill, so fills completing at done == cycle are exercised, and
// EarliestPendingFill is called before every access: it must never prune.
func TestMSHRFileMatchesReference(t *testing.T) {
	for _, n := range []int{1, 4, 32} {
		cfg := Config{
			L1Size: 4 * 2 * 64, L1Assoc: 2, L1Latency: 3,
			L2Size: 16 * 4 * 64, L2Assoc: 4, L2Latency: 8,
			MemLatency: 60, MSHRs: n,
			PrefetchOn: true, PrefetchN: 4, PrefetchD: 3,
		}
		h, ref := NewHierarchy(cfg), newRefHier(cfg)
		rnd := uint64(0x9E3779B97F4A7C15) + uint64(n)
		next := func(k uint64) uint64 {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			return rnd % k
		}
		addr := func() uint64 { return 0x10000 + next(96)*64 + next(8)*8 }
		cycle := uint64(1000)
		for i := 0; i < 50_000; i++ {
			switch op := next(16); {
			case op < 9:
				w := next(4) == 0
				a := addr()
				before := len(h.mshrs)
				got, _ := h.EarliestPendingFill(cycle)
				want, _ := ref.earliest(cycle)
				if got != want || len(h.mshrs) != before {
					t.Fatalf("MSHRs=%d step %d: EarliestPendingFill(%d) = %d, want %d; file %d -> %d entries",
						n, i, cycle, got, want, before, len(h.mshrs))
				}
				if g, w := h.Access(cycle, a, w), ref.access(cycle, a, w); g != w {
					t.Fatalf("MSHRs=%d step %d: Access(%d, %#x) = %+v, reference %+v", n, i, cycle, a, g, w)
				}
			case op < 11:
				a := addr()
				h.prefetchLine(cycle, a)
				ref.prefetch(cycle, a)
			case op < 13:
				a := addr()
				h.Snoop(a)
				ref.l1.Invalidate(a &^ 63)
				ref.l2.Invalidate(a &^ 63)
			case op < 15:
				cycle += next(30)
			default:
				if e, ok := h.EarliestPendingFill(cycle); ok {
					cycle = e
				}
			}
			if g, w := h.MSHRFullEvents(), ref.full; g != w {
				t.Fatalf("MSHRs=%d step %d: MSHRFullEvents %d, reference %d", n, i, g, w)
			}
			if g, w := len(h.mshrs), len(ref.mshrs); g != w {
				t.Fatalf("MSHRs=%d step %d: %d MSHR entries, reference %d", n, i, g, w)
			}
			a := addr()
			if g, w := h.WouldMissToMemory(cycle, a), ref.wouldMiss(cycle, a); g != w {
				t.Fatalf("MSHRs=%d step %d: WouldMissToMemory(%d, %#x) = %v, reference %v", n, i, cycle, a, g, w)
			}
		}
		if ref.full == 0 || ref.merges == 0 || ref.exactFrees == 0 {
			t.Fatalf("MSHRs=%d: traffic missed a case: %d full, %d merges, %d frees at done == cycle",
				n, ref.full, ref.merges, ref.exactFrees)
		}
	}
}
