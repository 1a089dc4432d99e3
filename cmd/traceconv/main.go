// Command traceconv records synthetic workloads into the repository's trace
// file format, inspects existing trace files, and works with the
// differential oracle: replay runs a trace file through an oracle-checked
// simulation and prints any divergences; minimize shrinks a divergence-
// reproducing trace to a small replayable regression file. The format (one
// fixed 44-byte record per micro-op, documented in internal/trace/source.go)
// is the bridge for driving the simulator from real traces: convert the
// foreign trace to this format and replay it with srlsim or the library's
// RunFromSource.
//
//	traceconv record -suite SFP2K -n 1000000 -o sfp2k.srlt
//	traceconv info sfp2k.srlt
//	traceconv replay -design srl -run 8000 bug.srlt
//	traceconv minimize -design srl -run 8000 -o min.srlt bug.srlt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"srlproc"
	"srlproc/internal/check"
	"srlproc/internal/core"
	"srlproc/internal/isa"
	"srlproc/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		log.Fatal("usage: traceconv record|info|replay|minimize ...")
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "minimize":
		minimize(os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	suite := fs.String("suite", "SINT2K", "benchmark suite")
	n := fs.Uint64("n", 1_000_000, "micro-ops to record")
	seed := fs.Uint64("seed", 1, "workload seed")
	out := fs.String("o", "trace.srlt", "output file")
	fs.Parse(args)

	su, err := trace.ParseSuite(*suite)
	if err != nil {
		log.Fatalf("unknown suite %q", *suite)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := srlproc.RecordTrace(f, srlproc.NewSyntheticSource(su, *seed), *n); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d %s micro-ops to %s\n", *n, su, *out)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	n := fs.Uint64("n", 0, "inspect at most n records (0 = first pass only)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: traceconv info <file>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	records := uint64(st.Size()-8) / 44
	limit := records
	if *n > 0 && *n < limit {
		limit = *n
	}
	r, err := srlproc.NewTraceReader(f)
	if err != nil {
		log.Fatal(err)
	}
	var loads, stores, branches, fwd, taken uint64
	for i := uint64(0); i < limit; i++ {
		u := r.Next()
		switch u.Class {
		case isa.Load:
			loads++
			if u.MemSeq != 0 {
				fwd++
			}
		case isa.Store:
			stores++
		case isa.Branch:
			branches++
			if u.Taken {
				taken++
			}
		}
	}
	fmt.Printf("%s: %d records (%d inspected)\n", fs.Arg(0), records, limit)
	pct := func(x uint64) float64 { return 100 * float64(x) / float64(limit) }
	fmt.Printf("  loads %.1f%%  stores %.1f%%  branches %.1f%%\n", pct(loads), pct(stores), pct(branches))
	if loads > 0 {
		fmt.Printf("  store-forwarding loads: %.1f%% of loads\n", 100*float64(fwd)/float64(loads))
	}
	if branches > 0 {
		fmt.Printf("  branch taken rate: %.1f%%\n", 100*float64(taken)/float64(branches))
	}
}

// checkFlags registers the design-point flags shared by replay and
// minimize and returns a builder that assembles the oracle-checked Config
// after fs.Parse.
func checkFlags(fs *flag.FlagSet) func() (core.Config, trace.Suite) {
	design := fs.String("design", "srl", "store design: baseline|large-stq|hier|srl|filtered")
	suite := fs.String("suite", "SINT2K", "benchmark suite (selects the trace profile)")
	seed := fs.Uint64("seed", 1, "simulator seed")
	warmup := fs.Uint64("warmup", 0, "warmup uops before the measured region")
	run := fs.Uint64("run", 8000, "measured uops")
	stq := fs.Int("stq", 0, "STQ size override (0 = design default)")
	srlSize := fs.Int("srl-size", 0, "SRL size override (0 = design default)")
	fault := fs.Bool("fault-invert-fwd-age", false, "seed the inverted forwarding-age bug")
	snoops := fs.Bool("snoops", false, "enable external snoop injection")
	return func() (core.Config, trace.Suite) {
		var d core.StoreDesign
		switch strings.ToLower(*design) {
		case "baseline":
			d = core.DesignBaseline
		case "large-stq", "largestq":
			d = core.DesignLargeSTQ
		case "hier", "hierarchical":
			d = core.DesignHierarchical
		case "srl":
			d = core.DesignSRL
		case "filtered", "filtered-stq":
			d = core.DesignFilteredSTQ
		default:
			if err := d.UnmarshalText([]byte(*design)); err != nil {
				log.Fatal(err)
			}
		}
		cfg := core.DefaultConfig(d)
		cfg.Seed = *seed
		cfg.WarmupUops = *warmup
		cfg.RunUops = *run
		if *stq > 0 {
			cfg.STQSize = *stq
		}
		if *srlSize > 0 {
			cfg.SRLSize = *srlSize
		}
		cfg.Check = true
		cfg.FaultInvertFwdAge = *fault
		cfg.SnoopsEnabled = *snoops
		su, err := trace.ParseSuite(*suite)
		if err != nil {
			log.Fatalf("unknown suite %q", *suite)
		}
		return cfg, su
	}
}

func readTrace(path string) []isa.Uop {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	uops, err := trace.ReadRecords(f)
	if err != nil {
		log.Fatal(err)
	}
	return uops
}

// replay runs a trace file through an oracle-checked simulation and prints
// every divergence. Exit status 1 signals that divergences were found, so
// scripts can assert either direction.
func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	build := checkFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: traceconv replay [flags] <file.srlt>")
	}
	cfg, su := build()
	uops := readTrace(fs.Arg(0))
	res, err := check.RunChecked(cfg, su, uops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d uops, %d cycles, %d divergences\n", fs.Arg(0), len(uops), res.Cycles, res.DivergenceCount)
	for i, d := range res.Divergences {
		fmt.Printf("  [%d] %s\n", i, d)
	}
	if res.DivergenceCount > 0 {
		os.Exit(1)
	}
}

// minimize shrinks a divergence-reproducing trace file to a minimal
// replayable regression trace under the same design point.
func minimize(args []string) {
	fs := flag.NewFlagSet("minimize", flag.ExitOnError)
	build := checkFlags(fs)
	out := fs.String("o", "min.srlt", "output file for the minimized trace")
	budget := fs.Int("budget", check.DefaultMinimizeBudget, "max oracle-checked runs to spend")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: traceconv minimize [flags] <file.srlt>")
	}
	cfg, su := build()
	uops := readTrace(fs.Arg(0))
	min, ok := check.Minimize(cfg, su, uops, *budget)
	if !ok {
		log.Fatalf("%s does not reproduce any divergence under this design point", fs.Arg(0))
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteRecords(f, min); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimized %d uops -> %d, wrote %s\n", len(uops), len(min), *out)
}
