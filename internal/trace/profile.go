// Package trace generates the synthetic instruction streams that stand in
// for the paper's proprietary benchmark traces (Table 2: SPECFP2K,
// SPECINT2K, WEB, MM, PROD, SERVER, WS).
//
// Each suite is a statistical profile: micro-op mix, memory footprint and
// locality (which determine the cache miss rates that drive the latency
// tolerant machinery), register dependence-chain structure (which determines
// slice sizes — the "miss-dependent uops" of Table 3), store-to-load
// forwarding distance (the paper reports 20-35% of loads forward), branch
// predictability, and multiprocessor sharing (external snoop rate). The
// generator expands a profile into a synthetic static program (so PCs are
// stable and predictors can train) and then walks that program, producing an
// unbounded dynamic micro-op stream.
package trace

import (
	"fmt"
	"strings"
)

// Suite identifies one of the paper's seven benchmark suites.
type Suite int

// The benchmark suites of Table 2, in the paper's presentation order.
const (
	SFP2K Suite = iota
	SINT2K
	WEB
	MM
	PROD
	SERVER
	WS
	NumSuites
)

// String returns the suite's name as used in the paper's figures.
func (s Suite) String() string {
	switch s {
	case SFP2K:
		return "SFP2K"
	case SINT2K:
		return "SINT2K"
	case WEB:
		return "WEB"
	case MM:
		return "MM"
	case PROD:
		return "PROD"
	case SERVER:
		return "SERVER"
	case WS:
		return "WS"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// AllSuites lists every suite in presentation order.
func AllSuites() []Suite {
	return []Suite{SFP2K, SINT2K, WEB, MM, PROD, SERVER, WS}
}

// ParseSuite resolves a suite name case-insensitively ("sint2k" is
// SINT2K), the spelling the command-line tools accept.
func ParseSuite(name string) (Suite, error) {
	for _, s := range AllSuites() {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown suite %q", name)
}

// MarshalText renders the suite by name, so Suite-keyed maps marshal to
// readable JSON objects instead of integer keys.
func (s Suite) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalText parses a suite name as produced by String/MarshalText.
func (s *Suite) UnmarshalText(text []byte) error {
	name := string(text)
	for _, su := range AllSuites() {
		if su.String() == name {
			*s = su
			return nil
		}
	}
	return fmt.Errorf("trace: unknown suite %q", name)
}

// Profile parameterises a suite's synthetic workload.
type Profile struct {
	Suite    Suite
	Name     string
	NumBench int    // number of benchmarks the paper's suite contains
	Desc     string // Table 2 description
	// Micro-op mix (fractions of the dynamic stream; remainder is IntALU).
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64 // fraction of non-mem, non-branch ops that are FP

	// Memory behaviour. Footprints are in 64B lines; locality is a mixture
	// of a hot set (stack/globals), a Zipf-reused heap, and unit-stride
	// streams (which the prefetcher can catch).
	HotLines   int     // hot region size
	HeapLines  int     // heap region size (vs 16K-line L2 → drives L2 misses)
	HotFrac    float64 // accesses hitting the hot region
	StreamFrac float64 // accesses that stream
	ZipfS      float64 // heap reuse skew (higher = more locality)
	NumStreams int     // concurrent static stream sites

	// Register dependence structure.
	ChainProb  float64 // prob. an op extends a load's dependence chain
	ChainDecay int     // chain registers live this many uops
	// Store data dependence: prob. a store's data comes from a chain reg
	// (makes the store miss-dependent when the chain root missed).
	StoreChainProb float64

	// Store-to-load forwarding.
	FwdFrac     float64 // fraction of loads that read a recent store's address
	FwdDistGeoP float64 // geometric parameter of the backward distance in stores

	// Phase behaviour: the heap working set slides to a fresh window of
	// PhaseLines lines every PhaseUops micro-ops, producing the bursty,
	// clustered long-latency misses real programs show (between phases the
	// window is cache-resident). PhaseUops <= 0 disables phasing.
	PhaseUops  int
	PhaseLines int

	// Branch behaviour: fraction of branch sites that are effectively
	// random (the rest are biased or loop-patterned).
	BranchNoise float64

	// Multiprocessor sharing: external store snoops per 1000 cycles.
	SnoopPer1KCycles float64

	// Memory-ordering generation (all zero by default, which emits no
	// ordering ops and keeps pre-existing streams bit-identical — the
	// zero-valued knobs consume no RNG draws). FencePer1K is the number of
	// full-fence uops per 1000 micro-ops; AcquireFrac marks that fraction
	// of load sites as load-acquire; ReleaseFrac marks that fraction of
	// store sites as store-release.
	FencePer1K  int
	AcquireFrac float64
	ReleaseFrac float64

	// Multicore generation (package multicore sets these; zero values give
	// the single-core behaviour). CoreID offsets the private regions so
	// cores do not falsely share; SharedHotFrac is the fraction of
	// hot-region accesses that target the globally shared segment instead
	// of the core-private one — the read-write sharing that produces real
	// coherence traffic.
	CoreID        int
	SharedHotFrac float64
}

// Profiles returns the calibrated profile for each suite. The numbers are
// chosen so the suites' relative characters match the paper's Table 3 and
// Figure 2: SFP2K has high memory miss rates, long dependence chains and
// many miss-dependent stores; SERVER has a large irregular footprint and the
// most sharing; PROD barely misses; WS has many miss-dependent stores but
// short chains; etc.
func Profiles() map[Suite]Profile {
	return map[Suite]Profile{
		SFP2K: {
			Suite: SFP2K, Name: "SFP2K", NumBench: 13, Desc: "www.spec.org (SPECFP2K)",
			LoadFrac: 0.28, StoreFrac: 0.14, BranchFrac: 0.06, FPFrac: 0.60,
			HotLines: 64, HeapLines: 1 << 18, HotFrac: 0.20, StreamFrac: 0.55,
			ZipfS: 0.6, NumStreams: 12,
			ChainProb: 0.45, ChainDecay: 56, StoreChainProb: 0.85,
			FwdFrac: 0.22, FwdDistGeoP: 0.08,
			PhaseUops: 30_000, PhaseLines: 96,
			BranchNoise: 0.01, SnoopPer1KCycles: 0,
		},
		SINT2K: {
			Suite: SINT2K, Name: "SINT2K", NumBench: 10, Desc: "www.spec.org (SPECINT2K)",
			LoadFrac: 0.27, StoreFrac: 0.12, BranchFrac: 0.16, FPFrac: 0.02,
			HotLines: 256, HeapLines: 1 << 15, HotFrac: 0.60, StreamFrac: 0.05,
			ZipfS: 1.1, NumStreams: 2,
			ChainProb: 0.35, ChainDecay: 28, StoreChainProb: 0.10,
			FwdFrac: 0.30, FwdDistGeoP: 0.20,
			PhaseUops: 22_000, PhaseLines: 64,
			BranchNoise: 0.06, SnoopPer1KCycles: 0,
		},
		WEB: {
			Suite: WEB, Name: "WEB", NumBench: 10, Desc: "SPECJbb, WebMark",
			LoadFrac: 0.28, StoreFrac: 0.14, BranchFrac: 0.17, FPFrac: 0.01,
			HotLines: 256, HeapLines: 1 << 16, HotFrac: 0.55, StreamFrac: 0.05,
			ZipfS: 0.9, NumStreams: 2,
			ChainProb: 0.45, ChainDecay: 36, StoreChainProb: 0.02,
			FwdFrac: 0.32, FwdDistGeoP: 0.25,
			PhaseUops: 25_000, PhaseLines: 32,
			BranchNoise: 0.07, SnoopPer1KCycles: 0.25,
		},
		MM: {
			Suite: MM, Name: "MM", NumBench: 14, Desc: "MPEG, speech, photoshop",
			LoadFrac: 0.26, StoreFrac: 0.13, BranchFrac: 0.11, FPFrac: 0.25,
			HotLines: 128, HeapLines: 1 << 16, HotFrac: 0.45, StreamFrac: 0.30,
			ZipfS: 0.9, NumStreams: 6,
			ChainProb: 0.38, ChainDecay: 44, StoreChainProb: 0.10,
			FwdFrac: 0.26, FwdDistGeoP: 0.18,
			PhaseUops: 24_000, PhaseLines: 64,
			BranchNoise: 0.04, SnoopPer1KCycles: 0,
		},
		PROD: {
			Suite: PROD, Name: "PROD", NumBench: 7, Desc: "SYSMark2k, Winstone",
			LoadFrac: 0.28, StoreFrac: 0.14, BranchFrac: 0.17, FPFrac: 0.02,
			HotLines: 384, HeapLines: 1 << 13, HotFrac: 0.75, StreamFrac: 0.03,
			ZipfS: 1.2, NumStreams: 1,
			ChainProb: 0.20, ChainDecay: 16, StoreChainProb: 0.05,
			FwdFrac: 0.33, FwdDistGeoP: 0.30,
			PhaseUops: 70_000, PhaseLines: 48,
			BranchNoise: 0.05, SnoopPer1KCycles: 0.1,
		},
		SERVER: {
			Suite: SERVER, Name: "SERVER", NumBench: 7, Desc: "TPC-C",
			LoadFrac: 0.29, StoreFrac: 0.13, BranchFrac: 0.16, FPFrac: 0.01,
			HotLines: 256, HeapLines: 1 << 18, HotFrac: 0.35, StreamFrac: 0.04,
			ZipfS: 0.55, NumStreams: 2,
			ChainProb: 0.50, ChainDecay: 96, StoreChainProb: 0.10,
			FwdFrac: 0.25, FwdDistGeoP: 0.15,
			PhaseUops: 30_000, PhaseLines: 32,
			BranchNoise: 0.07, SnoopPer1KCycles: 1.0,
		},
		WS: {
			Suite: WS, Name: "WS", NumBench: 13, Desc: "CAD, rendering",
			LoadFrac: 0.27, StoreFrac: 0.15, BranchFrac: 0.10, FPFrac: 0.35,
			HotLines: 128, HeapLines: 1 << 17, HotFrac: 0.35, StreamFrac: 0.35,
			ZipfS: 0.7, NumStreams: 8,
			ChainProb: 0.25, ChainDecay: 48, StoreChainProb: 0.70,
			FwdFrac: 0.24, FwdDistGeoP: 0.12,
			PhaseUops: 35_000, PhaseLines: 40,
			BranchNoise: 0.03, SnoopPer1KCycles: 0.1,
		},
	}
}

// ProfileFor returns the calibrated profile for suite s.
func ProfileFor(s Suite) Profile {
	p, ok := Profiles()[s]
	if !ok {
		panic(fmt.Sprintf("trace: unknown suite %v", s))
	}
	return p
}
