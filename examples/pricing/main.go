// Pricing: sweep one bid on a live cluster and print, for each bid,
// whether it wins, what it pays and the bidder's utility — under the
// paper's payment (14), which pdftspd serves, and under the ChargeEnergy
// variant, which adds the plan's energy to the payment. Under both the
// payment never depends on the bid and no winner pays more than its bid
// (Theorem 4, Figure 11). Truthful bidding is dominant (Theorem 3,
// Figure 10) only under ChargeEnergy here: (14) leaves out the energy the
// admission test charges, so this focal bid loses at its valuation and an
// overbid wins below it (the FOUND entry on payment (14) in CHANGES.md).
//
//	go run ./examples/pricing
package main

import (
	"fmt"
	"log"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
)

func main() {
	// Background load so the focal bid faces non-trivial resource prices,
	// on two A100 and two A40 nodes with four vendors.
	cfg := config.Default()
	cfg.Slots = 72
	cfg.Seed = 11
	cfg.Vendors = 4
	cfg.Workload.RatePerSlot = 4
	var err error
	if cfg.Nodes, err = config.Mix("hybrid", 4); err != nil {
		log.Fatal(err)
	}
	background, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}

	// The focal bid: 30 work units, valuation 36.
	const trueValue = 36.0
	focal := task.Task{
		ID: 1_000_000, Arrival: 40, Deadline: 52, Work: 30, MemGB: 5, Batch: 16,
	}

	runFocal := func(bid float64) (bool, float64) {
		stacks, err := cfg.Wire(background, 1)
		if err != nil {
			log.Fatal(err)
		}
		s := stacks[0]
		for i := range background {
			s.Scheduler.Offer(schedule.NewTaskEnv(&background[i], s.Cluster, s.Model, s.Market))
		}
		f := focal
		f.Bid = bid
		d := s.Scheduler.Offer(schedule.NewTaskEnv(&f, s.Cluster, s.Model, s.Market))
		// A losing bid's Decision carries no Terms; Payment reads 0 on it.
		return d.Admitted, d.Payment()
	}

	fmt.Printf("true valuation: %.1f\n", trueValue)
	for _, charge := range []bool{false, true} {
		cfg.Algorithm.ChargeEnergy = charge
		fmt.Printf("\nChargeEnergy %v\n%8s %6s %9s %9s\n", charge, "bid", "won", "payment", "utility")
		for _, bid := range []float64{0, 6, 12, 18, 24, 30, 36, 42, 54, 72} {
			won, payment := runFocal(bid)
			utility := 0.0
			mark := ""
			if won {
				utility = trueValue - payment
			}
			if bid == trueValue {
				mark = "  <- truthful"
			}
			fmt.Printf("%8.1f %6v %9.3f %9.3f%s\n", bid, won, payment, utility, mark)
		}
	}
	fmt.Println("\nthe payment never depends on the bid and never exceeds it (individual")
	fmt.Println("rationality). With the energy in the payment, lying changes only whether")
	fmt.Println("you win, so bidding the valuation is optimal; without it, a bid between")
	fmt.Println("the payment and the payment plus energy loses, and an overbid gains.")
}
