// Pricing: demonstrate the auction's economic properties on a live
// cluster — the payment rule is bid-independent, truthful bidding is a
// dominant strategy, and no winner ever pays more than its bid
// (Theorems 3 and 4, Figures 10 and 11 of the paper).
//
//	go run ./examples/pricing
package main

import (
	"fmt"
	"log"

	"github.com/pdftsp/pdftsp"
)

func main() {
	model := pdftsp.GPT2Small()
	h := pdftsp.NewHorizon(72)

	// Background load so the focal bid faces non-trivial resource prices.
	cfg := pdftsp.DefaultWorkload()
	cfg.Horizon = h
	cfg.RatePerSlot = 4
	cfg.Seed = 11
	background, err := pdftsp.GenerateWorkload(cfg)
	if err != nil {
		log.Fatal(err)
	}
	mkt, err := pdftsp.NewMarketplace(4, 11)
	if err != nil {
		log.Fatal(err)
	}

	// The focal bid: 30 work units, valuation 36.
	const trueValue = 36.0
	focal := pdftsp.Task{
		ID: 1_000_000, Arrival: 40, Deadline: 52, Work: 30, MemGB: 5, Batch: 16,
	}

	runFocal := func(bid float64) (bool, float64) {
		cl, err := pdftsp.NewCluster(h, model,
			pdftsp.NodeGroup{Spec: pdftsp.A100(), Count: 2},
			pdftsp.NodeGroup{Spec: pdftsp.A40(), Count: 2})
		if err != nil {
			log.Fatal(err)
		}
		sch, err := pdftsp.NewScheduler(cl, pdftsp.Calibrate(background, model, cl, mkt))
		if err != nil {
			log.Fatal(err)
		}
		for i := range background {
			sch.Offer(pdftsp.NewTaskEnv(&background[i], cl, model, mkt))
		}
		f := focal
		f.Bid = bid
		d := sch.Offer(pdftsp.NewTaskEnv(&f, cl, model, mkt))
		return d.Admitted, d.Payment
	}

	fmt.Printf("true valuation: %.1f\n\n%8s %6s %9s %9s\n", trueValue, "bid", "won", "payment", "utility")
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
	fmt.Println("\nthe payment never depends on the bid: lying changes only whether")
	fmt.Println("you win, never the price — so bidding the true valuation is optimal,")
	fmt.Println("and winners always keep non-negative utility (individual rationality).")
}
