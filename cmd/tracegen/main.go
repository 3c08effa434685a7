// Command tracegen emits a generated fine-tuning workload as JSON — the
// task stream the schedulers consume — for inspection or for feeding
// external tools.
//
// Usage:
//
//	tracegen -rate 5 -arrivals helios -slots 144 > trace.json
//	tracegen -counts -rate 50    # per-slot arrival counts only
//	tracegen -bids -rate 40 > bids.json   # broker-ready bid requests
//
// With -bids the output is the broker's wire form ([]BidRequest, with
// explicit id and arrival), pipeable straight into `pdftspd-load -bids`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/trace"
)

func main() {
	c := config.Default()
	c.WorkloadFlags(flag.CommandLine)
	countsOnly := flag.Bool("counts", false, "emit per-slot arrival counts instead of full tasks")
	bids := flag.Bool("bids", false, "emit broker wire-form bid requests (for pdftspd-load -bids)")
	flag.Parse()

	cfg, err := c.TraceConfig()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(2)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if *countsOnly {
		counts, err := trace.ArrivalCounts(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		if err := enc.Encode(counts); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	tasks, err := trace.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	if *bids {
		reqs := make([]service.BidRequest, len(tasks))
		for i, t := range tasks {
			reqs[i] = service.BidRequestFor(t)
		}
		if err := enc.Encode(reqs); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := enc.Encode(tasks); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}
