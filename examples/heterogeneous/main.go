// Heterogeneous: compare how the four schedulers use a mixed A100/A40
// data center under the paper's Poisson workload — the setting behind
// Figures 6 and 7 of the paper.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/pdftsp/pdftsp/internal/baseline"
	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/sim"
)

func main() {
	// The default stack: four A100 and four A40 nodes, five vendors.
	cfg := config.Default()
	cfg.Seed = 7
	tasks, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}

	algos := []struct {
		name  string
		sched sim.Scheduler // nil: the pdFTSP scheduler the config names
	}{
		{"pdFTSP", nil},
		{"Titan", baseline.NewTitan(baseline.TitanOptions{Seed: 7, SolveBudget: 100 * time.Millisecond})},
		{"EFT", baseline.NewEFT()},
		{"NTM", baseline.NewNTM(7)},
	}

	fmt.Printf("%-8s %10s %9s %11s %12s\n", "algo", "welfare", "admitted", "utilization", "energy spend")
	for _, a := range algos {
		s, err := cfg.WireWith(tasks, a.sched)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(s.Cluster, s.Scheduler, s.Tasks, s.SimConfig)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %10.1f %9d %10.1f%% %12.1f\n",
			a.name, res.Welfare, res.Admitted, 100*res.Utilization, res.EnergySpend)
	}
	fmt.Println("\nthe multi-LoRA sharing gap: NTM dedicates a whole node per task,")
	fmt.Println("so its utilization and welfare collapse relative to the others.")
}
