// Failures: inject GPU node outages into a running pdFTSP day and watch
// the provider re-plan broken commitments online — recovered tasks keep
// their welfare, unrecoverable ones are refunded.
//
//	go run ./examples/failures
package main

import (
	"fmt"
	"log"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

func run(failures []sim.Failure) *sim.Result {
	model := lora.GPT2Small()
	h := timeslot.Day()
	tc := trace.DefaultConfig()
	tc.Horizon = h
	tc.RatePerSlot = 4
	tc.Seed = 13
	tasks, err := trace.Generate(tc)
	if err != nil {
		log.Fatal(err)
	}
	mkt, err := vendor.Standard(4, 13)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := config.NewCluster(h, model, []config.NodeGroup{{GPU: gpu.A100.Name, Count: 6}})
	if err != nil {
		log.Fatal(err)
	}
	opts := core.CalibrateDuals(tasks, model, cl, mkt)
	opts.MaskFullCells = true // recovery planning must route around downed nodes
	sched, err := core.New(cl, opts)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(cl, sched, tasks, sim.Config{Model: model, Market: mkt, Failures: failures})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	clean := run(nil)
	// Two nodes go down mid-day: node 0 for four hours, node 1 for two.
	outages := []sim.Failure{
		{Node: 0, From: 60, To: 83},
		{Node: 1, From: 72, To: 83},
	}
	faulty := run(outages)

	fmt.Printf("%-22s %12s %12s\n", "", "clean day", "with outages")
	fmt.Printf("%-22s %12.1f %12.1f\n", "social welfare", clean.Welfare, faulty.Welfare)
	fmt.Printf("%-22s %12d %12d\n", "admitted", clean.Admitted, faulty.Admitted)
	fmt.Printf("%-22s %12d %12d\n", "failures injected", clean.FailuresInjected, faulty.FailuresInjected)
	fmt.Printf("%-22s %12d %12d\n", "plans recovered", clean.RecoveredTasks, faulty.RecoveredTasks)
	fmt.Printf("%-22s %12d %12d\n", "tasks lost", clean.FailedTasks, faulty.FailedTasks)
	fmt.Printf("%-22s %12.1f %12.1f\n", "value refunded", clean.RefundedValue, faulty.RefundedValue)
	fmt.Printf("\nwelfare cost of the outages: %.1f (%.1f%%)\n",
		clean.Welfare-faulty.Welfare, 100*(clean.Welfare-faulty.Welfare)/clean.Welfare)
}
