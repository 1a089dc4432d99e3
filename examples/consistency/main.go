// Consistency demonstrates the multiprocessor-ordering side of the paper's
// secondary load buffer (Section 3, "Enforcing multiprocessor memory
// ordering"): external store snoops search the set-associative load buffer
// and any hit restarts execution from the hit load's checkpoint.
//
// The SERVER suite (TPC-C-like) carries the highest sharing level; this
// example contrasts it with and without snoop traffic and reports the
// consistency machinery's activity.
package main

import (
	"context"
	"fmt"
	"log"

	"srlproc"
	"srlproc/internal/obs"
)

func run(cfg srlproc.Config) *srlproc.Results {
	cfg.RunUops = 120_000
	cfg.WarmupUops = 20_000
	res, err := srlproc.RunContext(context.Background(), cfg, srlproc.SERVER)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	with := srlproc.DefaultConfig(srlproc.DesignSRL)
	with.SnoopsEnabled = true
	withRes := run(with)

	without := srlproc.DefaultConfig(srlproc.DesignSRL)
	without.SnoopsEnabled = false
	withoutRes := run(without)

	fmt.Println("SERVER suite (highest sharing), SRL design")
	fmt.Printf("\nwith external snoops:\n")
	fmt.Printf("  IPC %.2f, snoop violations %d, restarts %d\n",
		withRes.IPC(), withRes.SnoopViolations, withRes.Restarts)
	fmt.Printf("  snoops injected: %d\n", withRes.Metrics.Get(obs.MetricSnoopsInjected))
	fmt.Printf("\nwithout external snoops:\n")
	fmt.Printf("  IPC %.2f, snoop violations %d, restarts %d\n",
		withoutRes.IPC(), withoutRes.SnoopViolations, withoutRes.Restarts)
	slow := (float64(withoutRes.IPC())/float64(withRes.IPC()) - 1) * 100
	fmt.Printf("\ncoherence traffic costs %.1f%% performance on this workload;\n", slow)
	fmt.Println("every violation was detected by a set-indexed lookup of the")
	fmt.Println("secondary load buffer — no load queue CAM was searched.")
}
