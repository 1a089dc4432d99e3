package trace

import (
	"testing"

	"srlproc/internal/isa"
)

var sinkUop isa.Uop

// BenchmarkGeneratorNext measures the generator's cost per micro-op, the
// trace-generation stage every simulated point pays. The two suites bracket
// the chain-set work: SFP2K roots long chains at its cold sweeps, SINT2K
// joins short ones at a higher rate.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, s := range []Suite{SFP2K, SINT2K} {
		b.Run(s.String(), func(b *testing.B) {
			g := NewGenerator(ProfileFor(s), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkUop = g.Next()
			}
		})
	}
}
