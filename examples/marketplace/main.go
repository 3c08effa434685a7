// Marketplace: show how data pre-processing outsourcing shapes the
// schedule — pdFTSP jointly picks the labor vendor and the execution
// plan, trading vendor price against delay against resource prices
// (constraints (4a) and (4c) of the paper).
//
//	go run ./examples/marketplace
package main

import (
	"fmt"
	"log"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/schedule"
)

func main() {
	// An all-prep workload: every task needs a vendor before it can run.
	allPrep := 1.0
	cfg := config.Default()
	cfg.Slots = 96
	cfg.Seed = 23
	cfg.Nodes = []config.NodeGroup{{GPU: gpu.A100.Name, Count: 4}}
	cfg.Workload.RatePerSlot = 3
	cfg.Workload.PrepProb = &allPrep
	tasks, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	stacks, err := cfg.Wire(tasks, 1)
	if err != nil {
		log.Fatal(err)
	}
	s := stacks[0]

	vendorUse := map[int]int{}
	vendorSpend := map[int]float64{}
	admitted := 0
	for i := range tasks {
		d := s.Scheduler.Offer(schedule.NewTaskEnv(&tasks[i], s.Cluster, s.Model, s.Market))
		if !d.Admitted {
			continue
		}
		admitted++
		vendorUse[d.Schedule.Vendor]++
		vendorSpend[d.Schedule.Vendor] += d.VendorCost() // q_in, from the winner's Terms
		// Execution must start only after the vendor's delay.
		start := d.Schedule.Placements[0].Slot
		if start < int(tasks[i].Arrival)+d.Schedule.VendorDelay {
			log.Fatalf("task %d started during pre-processing", tasks[i].ID)
		}
	}

	fmt.Printf("admitted %d/%d all-prep tasks\n\n", admitted, len(tasks))
	fmt.Printf("%8s %6s %10s   %s\n", "vendor", "tasks", "spend", "profile")
	for n, p := range s.Market.Profiles() {
		fmt.Printf("%8d %6d %10.1f   ~%.0f money, ~%d slots delay\n",
			n, vendorUse[n], vendorSpend[n], p.BasePrice, p.BaseDelay)
	}
	fmt.Println("\npdFTSP spreads across vendors: cheap-but-slow vendors win when the")
	fmt.Println("deadline allows, fast-but-expensive ones only when the window is tight.")
}
