// Quickstart: stand up a small GPU cluster, generate a day of LoRA
// fine-tuning bids, and let the pdFTSP auction schedule and price them.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/sim"
)

func main() {
	// A day of 144 ten-minute slots on six A100 nodes, five labor vendors
	// quoting data pre-processing, and a medium Poisson workload with the
	// paper's dataset/epoch ranges.
	cfg := config.Default()
	cfg.Seed = 42
	cfg.Nodes = []config.NodeGroup{{GPU: gpu.A100.Name, Count: 6}}
	cfg.Workload.RatePerSlot = 4
	tasks, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d fine-tuning bids over %d slots\n", len(tasks), cfg.Slots)

	// Wire builds the cluster (capacities from the LoRA throughput model),
	// the marketplace and the online primal-dual scheduler with Lemma-2
	// calibrated prices.
	stacks, err := cfg.Wire(tasks, 1)
	if err != nil {
		log.Fatal(err)
	}
	s := stacks[0]
	res, err := sim.Run(s.Cluster, s.Scheduler, s.Tasks, s.SimConfig)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("admitted %d/%d bids (%.1f%%)\n",
		res.Admitted, res.Admitted+res.Rejected, 100*res.AcceptanceRate())
	fmt.Printf("social welfare: %.2f (revenue %.2f, vendor spend %.2f, energy %.2f)\n",
		res.Welfare, res.Revenue, res.VendorSpend, res.EnergySpend)
	fmt.Printf("cluster compute utilization: %.1f%%\n", 100*res.Utilization)
}
