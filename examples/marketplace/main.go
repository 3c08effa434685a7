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

	"github.com/pdftsp/pdftsp"
)

func main() {
	model := pdftsp.GPT2Small()
	h := pdftsp.NewHorizon(96)
	mkt, err := pdftsp.NewMarketplace(5, 23)
	if err != nil {
		log.Fatal(err)
	}

	// An all-prep workload: every task needs a vendor before it can run.
	cfg := pdftsp.DefaultWorkload()
	cfg.Horizon = h
	cfg.RatePerSlot = 3
	cfg.PrepProb = 1.0
	cfg.Seed = 23
	tasks, err := pdftsp.GenerateWorkload(cfg)
	if err != nil {
		log.Fatal(err)
	}

	cl, err := pdftsp.NewCluster(h, model, pdftsp.NodeGroup{Spec: pdftsp.A100(), Count: 4})
	if err != nil {
		log.Fatal(err)
	}
	sch, err := pdftsp.NewScheduler(cl, pdftsp.Calibrate(tasks, model, cl, mkt))
	if err != nil {
		log.Fatal(err)
	}

	vendorUse := map[int]int{}
	vendorSpend := map[int]float64{}
	admitted := 0
	for i := range tasks {
		d := sch.Offer(pdftsp.NewTaskEnv(&tasks[i], cl, model, mkt))
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
	for n, p := range mkt.Profiles() {
		fmt.Printf("%8d %6d %10.1f   ~%.0f money, ~%d slots delay\n",
			n, vendorUse[n], vendorSpend[n], p.BasePrice, p.BaseDelay)
	}
	fmt.Println("\npdFTSP spreads across vendors: cheap-but-slow vendors win when the")
	fmt.Println("deadline allows, fast-but-expensive ones only when the window is tight.")
}
