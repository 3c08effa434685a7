// Command pdftsp-sim runs one trace-driven scheduling simulation and
// prints the welfare accounting — the quickest way to try the library on
// a custom configuration.
//
// Usage:
//
//	pdftsp-sim -nodes 8 -mix hybrid -rate 5 -algo pdftsp -slots 144
//	pdftsp-sim -algo eft -deadlines tight -arrivals philly
//	pdftsp-sim -writeconfig > sim.json && pdftsp-sim -config sim.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/experiments"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/metrics"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/report"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// run is the whole command: args in, report on stdout.
func run(args []string, stdout io.Writer) error {
	// The flags edit one config.Config; -config replaces it with a file's.
	// Either way the run below is built from that one value.
	fs := flag.NewFlagSet("pdftsp-sim", flag.ExitOnError)
	c := config.Default()
	c.StackFlags(fs, 8, "hybrid")
	fs.StringVar(&c.Algorithm.Name, "algo", c.Algorithm.Name, "scheduler: pdftsp, pdftsp-adaptive, titan, eft, ntm")
	cfgPath := fs.String("config", "", "JSON config file (replaces the stack flags above)")
	writeCfg := fs.Bool("writeconfig", false, "print the JSON config the flags describe and exit")
	workloadPath := fs.String("workload", "", "replay a JSON workload from cmd/tracegen instead of generating one")
	obsTrace := fs.String("trace", "", "write a JSONL event trace of the run, every decision included, to this file (analyze with cmd/trace)")
	audit := fs.Bool("audit", false, "validate auction invariants online; non-zero exit on any violation")
	serve := fs.String("serve", "", "serve live expvar metrics and pprof on this address (e.g. localhost:6060)")
	loraProfile := fs.Bool("loraprofile", false, "print the LoRA throughput/memory calibration table and exit")
	fs.Parse(args)

	if *cfgPath != "" {
		var err error
		if c, err = config.LoadFile(*cfgPath); err != nil {
			return err
		}
	}
	if *writeCfg {
		return c.Save(stdout)
	}
	if *loraProfile {
		m := lora.GPT2Small()
		hh := timeslot.NewHorizon(c.Slots)
		rows := lora.Profile(m, []gpu.Spec{gpu.A100, gpu.A40, gpu.V100}, []int{4, 8, 16, 32}, hh)
		fmt.Fprint(stdout, lora.FormatProfile(m, rows))
		return nil
	}
	var observers []obs.Observer
	var jsonlSink *obs.JSONL
	if *obsTrace != "" {
		var err error
		jsonlSink, err = obs.NewJSONLFile(*obsTrace)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		observers = append(observers, jsonlSink)
	}
	var auditor *obs.Audit
	if *audit {
		auditor = obs.NewAudit()
		observers = append(observers, auditor)
	}
	if *serve != "" {
		m := obs.NewMetrics()
		m.Expose("pdftsp")
		observers = append(observers, m)
		addr, err := obs.Serve(*serve)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
	}
	observer := obs.Multi(observers...)

	tasks, err := workload(c, *workloadPath)
	if err != nil {
		return err
	}
	// A baseline comes from the figure side's switch, which no serving
	// binary links; for any other name sched is nil and config builds it.
	budget := time.Duration(c.Algorithm.TitanBudgetMS) * time.Millisecond
	sched, _ := experiments.Baseline(c.Algorithm.Name, c.Seed, budget, 0)
	b, err := c.WireWith(tasks, sched)
	if err != nil {
		return err
	}
	b.SimConfig.Observer = observer
	if err := runAndReport(b, stdout); err != nil {
		return err
	}
	// Flush the trace, then the audit verdict.
	if jsonlSink != nil {
		if err := jsonlSink.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if auditor != nil {
		if err := auditor.Err(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "audit: zero invariant violations")
	}
	return nil
}

// workload is the bid stream c generates, or the saved one at path.
func workload(c config.Config, path string) ([]task.Task, error) {
	if path == "" {
		return c.Generate()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	tasks, err := trace.LoadTasks(f, timeslot.NewHorizon(c.Slots))
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return tasks, nil
}

// runAndReport executes the simulation and prints the accounting.
func runAndReport(b *config.Built, stdout io.Writer) error {
	start := time.Now()
	res, err := sim.Run(b.Cluster, b.Scheduler, b.Tasks, b.SimConfig)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	lat := make([]float64, len(res.OfferLatency))
	for i, d := range res.OfferLatency {
		lat[i] = d.Seconds()
	}
	keys := []string{
		"scheduler", "tasks", "admitted", "acceptance", "social welfare",
		"revenue", "vendor spend", "energy spend", "utilization",
		"p50 offer latency", "p99 offer latency", "wall clock",
	}
	vals := []string{
		res.Scheduler,
		fmt.Sprintf("%d", res.Admitted+res.Rejected),
		fmt.Sprintf("%d", res.Admitted),
		fmt.Sprintf("%.1f%%", 100*res.AcceptanceRate()),
		fmt.Sprintf("%.2f", res.Welfare),
		fmt.Sprintf("%.2f", res.Revenue),
		fmt.Sprintf("%.2f", res.VendorSpend),
		fmt.Sprintf("%.2f", res.EnergySpend),
		fmt.Sprintf("%.1f%%", 100*res.Utilization),
		fmt.Sprintf("%.6fs", metrics.Percentile(lat, 50)),
		fmt.Sprintf("%.6fs", metrics.Percentile(lat, 99)),
		elapsed.String(),
	}
	fmt.Fprint(stdout, report.KV("pdftsp-sim result", keys, vals))
	if len(res.RejectReasons) > 0 {
		fmt.Fprintf(stdout, "  rejections: %v\n", res.RejectReasons)
	}
	return nil
}
