package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"srlproc/internal/core"
)

// digestFields are the simulated Results fields the correctness gate
// hashes, by name. Hashing named fields instead of the JSON document keeps
// the digest stable when presentation-only keys (such as "extras") are
// added to or removed from the document.
var digestFields = []struct {
	name string
	get  func(*core.Results) uint64
}{
	{"Cycles", func(r *core.Results) uint64 { return r.Cycles }},
	{"Uops", func(r *core.Results) uint64 { return r.Uops }},
	{"Loads", func(r *core.Results) uint64 { return r.Loads }},
	{"Stores", func(r *core.Results) uint64 { return r.Stores }},
	{"Fences", func(r *core.Results) uint64 { return r.Fences }},
	{"MissDependentUops", func(r *core.Results) uint64 { return r.MissDependentUops }},
	{"MissDependentStores", func(r *core.Results) uint64 { return r.MissDependentStores }},
	{"RedoneStores", func(r *core.Results) uint64 { return r.RedoneStores }},
	{"SRLLoadStalls", func(r *core.Results) uint64 { return r.SRLLoadStalls }},
	{"IndexedForwards", func(r *core.Results) uint64 { return r.IndexedForwards }},
	{"L1STQForwards", func(r *core.Results) uint64 { return r.L1STQForwards }},
	{"L2STQForwards", func(r *core.Results) uint64 { return r.L2STQForwards }},
	{"FCForwards", func(r *core.Results) uint64 { return r.FCForwards }},
	{"MemDepViolations", func(r *core.Results) uint64 { return r.MemDepViolations }},
	{"SnoopViolations", func(r *core.Results) uint64 { return r.SnoopViolations }},
	{"OverflowViolations", func(r *core.Results) uint64 { return r.OverflowViolations }},
	{"BranchMispredicts", func(r *core.Results) uint64 { return r.BranchMispredicts }},
	{"Restarts", func(r *core.Results) uint64 { return r.Restarts }},
	{"ReplayedUops", func(r *core.Results) uint64 { return r.ReplayedUops }},
	{"L1Misses", func(r *core.Results) uint64 { return r.L1Misses }},
	{"L2Misses", func(r *core.Results) uint64 { return r.L2Misses }},
	{"MemAccesses", func(r *core.Results) uint64 { return r.MemAccesses }},
	{"Writebacks", func(r *core.Results) uint64 { return r.Writebacks }},
	{"SpecDiscards", func(r *core.Results) uint64 { return r.SpecDiscards }},
	{"FarAccesses", func(r *core.Results) uint64 { return r.FarAccesses }},
	{"FarDegradedAccesses", func(r *core.Results) uint64 { return r.FarDegradedAccesses }},
	{"StallSTQ", func(r *core.Results) uint64 { return r.StallSTQ }},
	{"StallLQ", func(r *core.Results) uint64 { return r.StallLQ }},
	{"StallSched", func(r *core.Results) uint64 { return r.StallSched }},
	{"StallRegs", func(r *core.Results) uint64 { return r.StallRegs }},
	{"StallCkpt", func(r *core.Results) uint64 { return r.StallCkpt }},
	{"StallWindow", func(r *core.Results) uint64 { return r.StallWindow }},
	{"StallSDB", func(r *core.Results) uint64 { return r.StallSDB }},
	{"CamSearches", func(r *core.Results) uint64 { return r.CamSearches }},
	{"CamEntryOps", func(r *core.Results) uint64 { return r.CamEntryOps }},
	{"LCFProbes", func(r *core.Results) uint64 { return r.LCFProbes }},
	{"LCFNonZero", func(r *core.Results) uint64 { return r.LCFNonZero }},
	{"LCFOverflows", func(r *core.Results) uint64 { return r.LCFOverflows }},
	{"FCLookups", func(r *core.Results) uint64 { return r.FCLookups }},
	{"FCHits", func(r *core.Results) uint64 { return r.FCHits }},
	{"LBLookups", func(r *core.Results) uint64 { return r.LBLookups }},
	{"LBEntryCmps", func(r *core.Results) uint64 { return r.LBEntryCmps }},
	{"LBOverflows", func(r *core.Results) uint64 { return r.LBOverflows }},
	{"MTBProbes", func(r *core.Results) uint64 { return r.MTBProbes }},
	{"MTBMaybes", func(r *core.Results) uint64 { return r.MTBMaybes }},
	{"SRLReads", func(r *core.Results) uint64 { return r.SRLReads }},
	{"SRLWrites", func(r *core.Results) uint64 { return r.SRLWrites }},
	{"DivergenceCount", func(r *core.Results) uint64 { return r.DivergenceCount }},
}

// writeResults hashes one point's named fields under its key.
func writeResults(h hash.Hash, key string, r *core.Results) {
	fmt.Fprintf(h, "%s\n", key)
	for _, f := range digestFields {
		fmt.Fprintf(h, "%s=%d\n", f.name, f.get(r))
	}
}

// resultsDigest hashes one point's named fields on their own; it is the
// identity test between two runs of the same point.
func resultsDigest(r *core.Results) string {
	h := sha256.New()
	writeResults(h, "", r)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// passDigest hashes every point of a pass in pass order. A failed point
// contributes its key and the marker "error".
func passDigest(points []pointOut) string {
	h := sha256.New()
	for _, p := range points {
		if p.res == nil {
			fmt.Fprintf(h, "%s\nerror\n", p.key)
			continue
		}
		writeResults(h, p.key, p.res)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
