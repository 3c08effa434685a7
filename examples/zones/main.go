// Zones: a data center serving two different pre-trained models, split
// into per-model zones as the paper sketches in Section 2.1 — each zone
// shares one base-model replica per node and runs its own pdFTSP auction.
//
//	go run ./examples/zones
package main

import (
	"fmt"
	"log"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
	"github.com/pdftsp/pdftsp/internal/zones"
)

func makeZone(model lora.ModelConfig, nodes int, h timeslot.Horizon, mkt *vendor.Marketplace) *zones.Zone {
	cl, err := config.NewCluster(h, model, []config.NodeGroup{{GPU: gpu.A100.Name, Count: nodes}})
	if err != nil {
		log.Fatal(err)
	}
	sched, err := core.New(cl, core.Options{Alpha: 2, Beta: 12})
	if err != nil {
		log.Fatal(err)
	}
	return &zones.Zone{Model: model, Cluster: cl, Scheduler: sched, Market: mkt}
}

func main() {
	h := timeslot.Day()
	mkt, err := vendor.Standard(4, 3)
	if err != nil {
		log.Fatal(err)
	}

	small := makeZone(lora.GPT2Small(), 4, h, mkt)
	medium := makeZone(lora.GPT2Medium(), 4, h, mkt)
	router, err := zones.NewRouter(small, medium)
	if err != nil {
		log.Fatal(err)
	}

	// 70% of tasks fine-tune gpt2-small, 30% gpt2-medium.
	tc := trace.DefaultConfig()
	tc.Horizon = h
	tc.RatePerSlot = 4
	tc.Seed = 3
	tc.Models = []trace.ModelShare{
		{Model: lora.GPT2Small(), Weight: 0.7},
		{Model: lora.GPT2Medium(), Weight: 0.3},
	}
	tasks, err := trace.Generate(tc)
	if err != nil {
		log.Fatal(err)
	}

	res, err := zones.Run(router, tasks)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d bids routed across %d zones (%d unroutable)\n\n",
		len(tasks), len(router.ZoneNames()), res.Unroutable)
	fmt.Printf("%-14s %9s %9s %10s %9s\n", "zone", "admitted", "rejected", "welfare", "revenue")
	for _, name := range router.ZoneNames() {
		s := res.PerZone[name]
		fmt.Printf("%-14s %9d %9d %10.1f %9.1f\n", name, s.Admitted, s.Rejected, s.Welfare, s.Revenue)
	}
	fmt.Printf("\ndata center social welfare: %.1f\n", res.TotalWelfare)
	fmt.Println("each zone prices its own resources: congestion in one model's")
	fmt.Println("zone never inflates payments in the other.")
}
