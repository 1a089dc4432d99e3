// Command paperrepro regenerates the paper's artifacts end to end: it
// executes the declarative experiment grid (scripts/paper/experiments.json)
// and writes one run directory — paper_runs/<stamp>/ — holding validated
// CSVs, grouped summary statistics, Markdown and LaTeX tables, SVG plots,
// a report.md index, and a manifest recording exactly which code and
// configuration produced them.
//
// Experiments run in-process on the sweep engine. -store-dir warm-starts
// the run from a persistent result store. -resume continues an interrupted
// run; -profile selects the scale (quick for CI smoke, full for the paper
// numbers).
//
// -check additionally byte-compares the result documents across repeats
// (the simulator is deterministic; divergence is a bug) and asserts
// headline metrics against the tolerance bands in
// scripts/paper/expectations.json, failing the run on any violation.
//
// Exit codes: 0 success, 1 runtime or check error, 2 usage error, 124
// when -timeout expired, 130 when interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"srlproc/internal/bench"
	"srlproc/internal/cli"
	"srlproc/internal/paper"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
)

func main() { os.Exit(run()) }

func run() int {
	config := flag.String("config", filepath.Join("scripts", "paper", "experiments.json"), "experiment grid to execute")
	expectations := flag.String("expectations", filepath.Join("scripts", "paper", "expectations.json"), "tolerance bands for -check")
	out := flag.String("out", "paper_runs", "parent directory for run directories")
	stamp := flag.String("stamp", "", "run directory name under -out (default: current UTC time; with -resume/-analyze-only: the newest run)")
	profile := flag.String("profile", paper.FullProfile, "grid profile to run (e.g. quick)")
	only := flag.String("only", "", "comma-separated experiments to run instead of the whole grid (e.g. fig6,table3)")
	repeats := flag.Int("repeats", 0, "override every experiment's repeat count (0 = use the grid's)")
	storeDir := flag.String("store-dir", "", "persistent result-store directory to warm-start from")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = one per CPU)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long (e.g. 2h); 0 = no limit")
	resume := flag.Bool("resume", false, "continue an interrupted run directory instead of demanding a fresh one")
	check := flag.Bool("check", false, "byte-compare repeats and assert expectation bands; violations fail the run")
	analyzeOnly := flag.Bool("analyze-only", false, "skip execution; re-run analysis (and -check) over an existing run directory")
	flag.Parse()

	usage := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "paperrepro: "+format+"\n", args...)
		return cli.Usage
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "paperrepro: "+format+"\n", args...)
		return cli.Err
	}

	grid, gridBytes, err := paper.LoadGrid(*config)
	if err != nil {
		return usage("%v", err)
	}
	var onlyIDs []bench.ExperimentID
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			id, err := bench.ParseExperimentID(strings.TrimSpace(name))
			if err != nil {
				return usage("-only: %v", err)
			}
			onlyIDs = append(onlyIDs, id)
		}
	}

	// Resolve the run directory. A fresh run stamps with the current UTC
	// time; -resume and -analyze-only default to the newest existing run.
	if *stamp == "" {
		if *resume || *analyzeOnly {
			latest, err := latestStamp(*out)
			if err != nil {
				return fail("%v", err)
			}
			*stamp = latest
			fmt.Fprintf(os.Stderr, "paperrepro: continuing run %s\n", *stamp)
		} else {
			*stamp = time.Now().UTC().Format("20060102-150405")
		}
	}
	dir := filepath.Join(*out, *stamp)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -store-dir warm-starts the sweep engine from earlier runs' persisted
	// results and persists this run's fresh ones.
	if *storeDir != "" && !*analyzeOnly {
		st, err := store.OpenDisk(*storeDir)
		if err != nil {
			return fail("-store-dir: %v", err)
		}
		cache := sweep.Global()
		cache.AttachStore(st)
		defer func() {
			cache.FlushStore()
			cache.AttachStore(nil)
			st.Close()
		}()
	}

	if !*analyzeOnly {
		runner, err := paper.NewRunner(paper.RunnerConfig{
			Grid: grid, GridBytes: gridBytes, Profile: *profile,
			Only: onlyIDs, Repeats: *repeats,
			Dir: dir, Stamp: *stamp,
			Workers: *workers, Resume: *resume,
			Log: os.Stderr,
		})
		if err != nil {
			return usage("%v", err)
		}
		m, err := runner.Run(ctx)
		if err != nil {
			switch code := cli.ExitCode(err); code {
			case cli.Interrupt:
				fmt.Fprintf(os.Stderr, "paperrepro: interrupted: %v (rerun with -resume -stamp %s to continue)\n", err, *stamp)
				return code
			case cli.Timeout:
				fmt.Fprintf(os.Stderr, "paperrepro: timed out: %v (rerun with -resume -stamp %s to continue)\n", err, *stamp)
				return code
			default:
				return fail("%v", err)
			}
		}
		fmt.Fprintf(os.Stderr, "paperrepro: %d unit(s) complete in %s\n", len(m.Units), (time.Duration(m.WallMs) * time.Millisecond).Round(time.Millisecond))
	}

	if err := paper.Analyze(paper.AnalyzeConfig{
		Grid: grid, Profile: *profile, Only: onlyIDs, Repeats: *repeats, Dir: dir,
	}); err != nil {
		return fail("analyze: %v", err)
	}

	if *check {
		exp, err := paper.LoadExpectations(*expectations)
		if err != nil {
			return fail("-check: %v", err)
		}
		units, err := grid.Plan(*profile, onlyIDs, *repeats)
		if err != nil {
			return fail("%v", err)
		}
		results, err := paper.Check(dir, units, exp, *profile)
		for _, r := range results {
			verdict := "PASS"
			switch {
			case r.Skip:
				verdict = "SKIP"
			case !r.OK:
				verdict = "FAIL"
			}
			fmt.Fprintf(os.Stderr, "paperrepro: check %s %s — %s\n", verdict, r.Name, r.Info)
		}
		if err != nil {
			return fail("%v", err)
		}
	}

	fmt.Printf("%s\n", dir)
	return cli.OK
}

// latestStamp picks the lexically newest run directory under out — with
// time-formatted stamps that is the most recent run.
func latestStamp(out string) (string, error) {
	entries, err := os.ReadDir(out)
	if err != nil {
		return "", fmt.Errorf("no run to continue: %w", err)
	}
	var stamps []string
	for _, e := range entries {
		if e.IsDir() {
			stamps = append(stamps, e.Name())
		}
	}
	if len(stamps) == 0 {
		return "", fmt.Errorf("no run to continue under %s", out)
	}
	sort.Strings(stamps)
	return stamps[len(stamps)-1], nil
}
