package sim

import (
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// TestRunSteadyStateAllocs proves the per-bid steady state of Run is
// allocation-free with a nil observer: a run over the full workload costs
// exactly as many allocations as a run over its first half — every
// allocation is run-scoped (result, env pool, latency buffer), none is
// per-bid.
func TestRunSteadyStateAllocs(t *testing.T) {
	model := lora.GPT2Small()
	cfg := trace.DefaultConfig()
	cfg.RatePerSlot = 6
	tasks, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) < 40 {
		t.Fatalf("workload too small: %d tasks", len(tasks))
	}
	half := tasks[:len(tasks)/2]
	mkt, err := vendor.Standard(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := cfg.Horizon
	nodes := cluster.Uniform(10, gpu.A100, lora.NodeCapUnits(model, gpu.A100, h), gpu.A100.MemGB)
	cl, err := cluster.New(cluster.Config{Horizon: h, BaseModelGB: lora.BaseMemoryGB(model)}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.CalibrateDuals(tasks, model, cl, mkt)
	opts.ReusePlans = true

	replay := func(ts []task.Task) {
		cl.Reset()
		sch, err := core.New(cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cl, sch, ts, Config{Model: model, Market: mkt}); err != nil {
			t.Fatal(err)
		}
	}
	allocsHalf := testing.AllocsPerRun(5, func() { replay(half) })
	allocsFull := testing.AllocsPerRun(5, func() { replay(tasks) })
	// Each replay builds a fresh scheduler, and the full workload's larger
	// task envelopes trigger a handful more one-time scratch-growth
	// allocations than the half workload. Allow those growth events but
	// nothing proportional to the extra bid count (347 here).
	if extra := allocsFull - allocsHalf; extra > 8 {
		t.Fatalf("run over %d bids costs %.1f more allocs than over %d bids; steady state is not allocation-free",
			len(tasks), extra, len(half))
	}
}
