package main

import (
	"context"
	"sort"
	"time"

	"srlproc/internal/store"
)

// runTraced alternates untraced and traced passes until dur has passed,
// then probes each layer, and reports the per-layer metrics. Tracing
// overhead is the median traced pass minus the median untraced one.
func runTraced(ctx context.Context, w workload, g *gate, dur time.Duration, spansPath string) (*result, error) {
	tr := newTracer()
	var plain, traced []float64
	var last *passOut
	for start := time.Now(); len(traced) == 0 || time.Since(start) < dur; {
		out, _, err := timedPass(ctx, w, nil, nil)
		if err != nil {
			return nil, err
		}
		g.check(out)
		plain = append(plain, out.wall.Seconds())
		if out, _, err = timedPass(ctx, w, tr, nil); err != nil {
			return nil, err
		}
		g.check(out)
		traced = append(traced, out.wall.Seconds())
		last = out
	}
	pr, err := probeLayers(ctx, w.probes(), w.checked())
	if err != nil {
		return nil, err
	}
	for _, f := range pr.identityFailures {
		g.note("identity: %s", f)
	}
	if pr.divergences > 0 {
		g.note("probe replays reported %d oracle divergences", pr.divergences)
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}

	passes := float64(len(traced))
	self := tr.selfTimes()
	selfMs := func(layer string) float64 { return self[layer].Seconds() * 1e3 / passes }
	spanMs := func(name string) float64 { return tr.total(name).Seconds() * 1e3 / passes }

	var simCycles, simUops, replayed, srlWrites, redone, lcfProbes, lcfNZ, fcLookups, fcHits, lbLookups, lbCmps, divs uint64
	var pointMs []float64
	for _, p := range last.points {
		if p.res != nil {
			divs += p.res.DivergenceCount
		}
		if !p.simulated {
			continue
		}
		r := p.res
		simCycles += r.Cycles
		simUops += r.Uops
		replayed += r.ReplayedUops
		srlWrites += r.SRLWrites
		redone += r.RedoneStores
		lcfProbes += r.LCFProbes
		lcfNZ += r.LCFNonZero
		fcLookups += r.FCLookups
		fcHits += r.FCHits
		lbLookups += r.LBLookups
		lbCmps += r.LBEntryCmps
		pointMs = append(pointMs, p.wall.Seconds()*1e3)
	}
	if len(pointMs) == 0 {
		for _, p := range last.points {
			pointMs = append(pointMs, p.wall.Seconds()*1e3)
		}
	}

	oracleOverhead := 0.0
	if w.checked() {
		oracleOverhead = 100 * ratio((pr.checkedT-pr.uncheckedT).Seconds(), pr.uncheckedT.Seconds())
	}
	overhead := median(traced) - median(plain)
	c := func(v uint64) metric { return metric{float64(v), "count"} }
	m := map[string]metric{
		"trace.gen_ns_per_uop": {pr.gen.ns(), "ns"},
		"trace.share_pct":      {100 * ratio(tr.total("trace.next").Seconds()+tr.total("trace.new").Seconds(), tr.total("sweep.point").Seconds()), "%"},
		"trace.self_ms":        {selfMs("trace"), "ms"},

		"core.ns_per_uop":       {pr.coreUop.ns(), "ns"},
		"core.ns_per_sim_cycle": {pr.coreCycle.ns(), "ns"},
		"core.skip_saved_pct":   {100 * ratio((pr.skipOff-pr.skipOn).Seconds(), pr.skipOff.Seconds()), "%"},
		"core.sim_cycles":       c(simCycles),
		"core.sim_uops":         c(simUops),
		"core.sim_ipc":          {ratio(float64(simUops), float64(simCycles)), "uops/cycle"},
		"core.replay_ratio":     {ratio(float64(replayed), float64(simUops)), "ratio"},
		"core.self_ms":          {selfMs("core"), "ms"},

		"lsq.srl_op_ns":          {pr.srl.ns(), "ns"},
		"lsq.lcf_probe_ns":       {pr.lcf.ns(), "ns"},
		"lsq.loadbuf_check_ns":   {pr.lb.ns(), "ns"},
		"lsq.stq_search_ns":      {pr.stq.ns(), "ns"},
		"lsq.srl_writes":         c(srlWrites),
		"lsq.redone_stores":      c(redone),
		"lsq.lcf_nonzero_ratio":  {ratio(float64(lcfNZ), float64(lcfProbes)), "ratio"},
		"lsq.lcf_probes":         c(lcfProbes),
		"lsq.fc_hit_ratio":       {ratio(float64(fcHits), float64(fcLookups)), "ratio"},
		"lsq.fc_lookups":         c(fcLookups),
		"lsq.lb_cmps_per_lookup": {ratio(float64(lbCmps), float64(lbLookups)), "ratio"},
		"lsq.lb_lookups":         c(lbLookups),

		"cachesim.access_ns":     {pr.cache.ns(), "ns"},
		"cachesim.l1_miss_ratio": {ratio(float64(pr.l1Miss), float64(pr.l1Access)), "ratio"},
		"cachesim.l1_accesses":   c(pr.l1Access),
		"cachesim.mem_accesses":  c(pr.mem),

		"oracle.overhead_pct": {oracleOverhead, "%"},
		"oracle.divergences":  c(divs + pr.divergences),

		"sweep.point_ms_p50": {percentile(pointMs, 50), "ms"},
		"sweep.point_ms_p90": {percentile(pointMs, 90), "ms"},
		"sweep.memo_hits":    c(last.cache.Hits),
		"sweep.memo_misses":  c(last.cache.Misses),
		"sweep.self_ms":      {selfMs("sweep"), "ms"},

		"store.get_ms_p50":      {percentile(tr.durationsMs("store.get"), 50), "ms"},
		"store.put_ms_p50":      {percentile(tr.durationsMs("store.put"), 50), "ms"},
		"store.bytes_per_entry": {bytesPerEntry(w, last), "B"},
		"store.hits":            c(last.cache.StoreHits),
		"store.puts":            c(last.cache.StorePuts),
		"store.self_ms":         {selfMs("store"), "ms"},

		"paper.analyze_ms": {spanMs("paper.analyze"), "ms"},
		"paper.self_ms":    {selfMs("paper"), "ms"},

		"tracing.overhead_ms":  {overhead * 1e3, "ms"},
		"tracing.overhead_pct": {100 * ratio(overhead, median(plain)), "%"},
		"tracing.spans":        {float64(tr.count()) / passes, "count"},
	}
	return &result{
		Metrics: m,
		Detail: map[string]any{
			"passes": len(traced),
			"timings": map[string]any{
				"untraced_wall_s": summarize(plain),
				"traced_wall_s":   summarize(traced),
			},
			"work":   workCounts(last),
			"probes": len(w.probes()),
			"spans":  spansPath,
		},
	}, nil
}

// bytesPerEntry is the mean size of a stored result document over the
// pass's results; 0 for a workload that keeps no store.
func bytesPerEntry(w workload, o *passOut) float64 {
	if _, ok := w.(*gridWorkload); !ok {
		return 0
	}
	var n, bytes float64
	for _, p := range o.points {
		if p.res == nil {
			continue
		}
		doc, err := store.Encode(p.res)
		if err != nil {
			continue
		}
		n++
		bytes += float64(len(doc))
	}
	return ratio(bytes, n)
}

// percentile returns the nearest-rank p-th percentile (0 for no values).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}
