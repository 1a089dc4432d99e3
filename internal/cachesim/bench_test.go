package cachesim

import (
	"testing"

	"srlproc/internal/isa"
	"srlproc/internal/trace"
)

var sinkAccess AccessResult

// BenchmarkHierarchyAccess measures one demand access through the Table 1
// hierarchy (prefetcher and MSHR file included), replaying the loads and
// stores of an SFP2K stream with one micro-op per cycle between them. The
// replay loops over a recorded window, so after the warm-up lap the caches
// hold the window's steady state and every op is one Access call.
func BenchmarkHierarchyAccess(b *testing.B) {
	type op struct {
		addr, gap uint64
		write     bool
	}
	g := trace.NewGenerator(trace.ProfileFor(trace.SFP2K), 1)
	ops := make([]op, 0, 1<<16)
	last := uint64(0)
	for len(ops) < cap(ops) {
		u := g.Next()
		if u.Class == isa.Load || u.Class == isa.Store {
			ops = append(ops, op{u.Addr, u.Seq - last, u.Class == isa.Store})
			last = u.Seq
		}
	}
	h := NewHierarchy(DefaultConfig())
	cycle := uint64(0)
	for _, o := range ops {
		cycle += o.gap
		h.Access(cycle, o.addr, o.write)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &ops[i%len(ops)]
		cycle += o.gap
		sinkAccess = h.Access(cycle, o.addr, o.write)
	}
}
