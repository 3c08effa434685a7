package config_test

// End-to-end integration tests across the whole stack: determinism,
// cross-algorithm welfare ordering, failure recovery and multi-zone
// routing, on clusters built the way every binary builds them.

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/baseline"
	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
	"github.com/pdftsp/pdftsp/internal/zones"
)

// newCluster is config.NewCluster over A100 and A40 node counts, failing
// the test on an error.
func newCluster(t *testing.T, h timeslot.Horizon, model lora.ModelConfig, a100, a40 int) *cluster.Cluster {
	t.Helper()
	groups := []config.NodeGroup{{GPU: gpu.A100.Name, Count: a100}}
	if a40 > 0 {
		groups = append(groups, config.NodeGroup{GPU: gpu.A40.Name, Count: a40})
	}
	cl, err := config.NewCluster(h, model, groups)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// integrationWorkload builds a moderately loaded shared scenario.
func integrationWorkload(t *testing.T) ([]task.Task, lora.ModelConfig, timeslot.Horizon, *vendor.Marketplace) {
	t.Helper()
	model := lora.GPT2Small()
	h := timeslot.NewHorizon(72)
	cfg := trace.DefaultConfig()
	cfg.Horizon = h
	cfg.RatePerSlot = 4
	cfg.Seed = 77
	tasks, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mkt, err := vendor.Standard(4, 77)
	if err != nil {
		t.Fatal(err)
	}
	return tasks, model, h, mkt
}

func runAlgo(t *testing.T, mk func(cl *cluster.Cluster, tasks []task.Task) (sim.Scheduler, error)) *sim.Result {
	t.Helper()
	tasks, model, h, mkt := integrationWorkload(t)
	cl := newCluster(t, h, model, 2, 2)
	sched, err := mk(cl, tasks)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cl, sched, tasks, sim.Config{Model: model, Market: mkt})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pdFTSP is the calibrated pdFTSP scheduler on cl.
func pdFTSP(cl *cluster.Cluster, tasks []task.Task) (sim.Scheduler, error) {
	return core.New(cl, core.CalibrateDuals(tasks, lora.GPT2Small(), cl, nil))
}

func TestIntegrationDeterminism(t *testing.T) {
	a, b := runAlgo(t, pdFTSP), runAlgo(t, pdFTSP)
	if a.Welfare != b.Welfare || a.Admitted != b.Admitted || a.Revenue != b.Revenue {
		t.Fatalf("non-deterministic runs: %v/%d/%v vs %v/%d/%v",
			a.Welfare, a.Admitted, a.Revenue, b.Welfare, b.Admitted, b.Revenue)
	}
}

func TestIntegrationWelfareOrdering(t *testing.T) {
	pd := runAlgo(t, pdFTSP)
	titan := runAlgo(t, func(*cluster.Cluster, []task.Task) (sim.Scheduler, error) {
		return baseline.NewTitan(baseline.TitanOptions{Seed: 1, SolveBudget: 40 * time.Millisecond}), nil
	})
	eft := runAlgo(t, func(*cluster.Cluster, []task.Task) (sim.Scheduler, error) { return baseline.NewEFT(), nil })
	ntm := runAlgo(t, func(*cluster.Cluster, []task.Task) (sim.Scheduler, error) { return baseline.NewNTM(1), nil })

	// The evaluation's headline ordering at moderate load. Titan and
	// pdFTSP can be close; EFT and NTM must trail.
	if pd.Welfare <= eft.Welfare {
		t.Errorf("pdFTSP %v not above EFT %v", pd.Welfare, eft.Welfare)
	}
	if pd.Welfare <= ntm.Welfare {
		t.Errorf("pdFTSP %v not above NTM %v", pd.Welfare, ntm.Welfare)
	}
	if eft.Welfare <= ntm.Welfare {
		t.Errorf("EFT %v not above NTM %v (multi-LoRA sharing)", eft.Welfare, ntm.Welfare)
	}
	if titan.Welfare <= ntm.Welfare {
		t.Errorf("Titan %v not above NTM %v", titan.Welfare, ntm.Welfare)
	}
}

func TestIntegrationAdaptiveCloseToOracle(t *testing.T) {
	oracle := runAlgo(t, pdFTSP)
	adaptive := runAlgo(t, func(cl *cluster.Cluster, _ []task.Task) (sim.Scheduler, error) {
		return core.NewAdaptive(cl, core.Options{}, 1.3)
	})
	if adaptive.Welfare < 0.5*oracle.Welfare {
		t.Fatalf("adaptive welfare %v collapsed versus oracle %v", adaptive.Welfare, oracle.Welfare)
	}
}

func TestIntegrationTitanWithFailures(t *testing.T) {
	tasks, model, h, mkt := integrationWorkload(t)
	cl := newCluster(t, h, model, 3, 0)
	titan := baseline.NewTitan(baseline.TitanOptions{Seed: 1, SolveBudget: 30 * time.Millisecond})
	res, err := sim.Run(cl, titan, tasks, sim.Config{
		Model:  model,
		Market: mkt,
		Failures: []sim.Failure{
			{Node: 0, From: 30, To: 50},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailuresInjected != 1 {
		t.Fatal("failure not injected through batch scheduler path")
	}
	// Downed node truly empty during the outage.
	for tt := 30; tt <= 50; tt++ {
		if cl.UsedWork(0, tt) != 0 {
			t.Fatalf("work remains on downed node at slot %d", tt)
		}
	}
}

func TestIntegrationZonesThroughStack(t *testing.T) {
	_, _, h, mkt := integrationWorkload(t)
	mkZone := func(model lora.ModelConfig) *zones.Zone {
		// Welfare-checked EFT: the plain baseline admits welfare-negative
		// tasks by design, which would make total zone welfare sign-noisy.
		var sched sim.Scheduler = baseline.NewEFT().WithWelfareCheck()
		return &zones.Zone{Model: model, Cluster: newCluster(t, h, model, 2, 0), Scheduler: sched, Market: mkt}
	}
	r, err := zones.NewRouter(mkZone(lora.GPT2Small()), mkZone(lora.GPT2Medium()))
	if err != nil {
		t.Fatal(err)
	}
	wcfg := trace.DefaultConfig()
	wcfg.Horizon = h
	wcfg.RatePerSlot = 3
	wcfg.Models = []trace.ModelShare{
		{Model: lora.GPT2Small(), Weight: 0.5},
		{Model: lora.GPT2Medium(), Weight: 0.5},
	}
	tasks, err := trace.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := zones.Run(r, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unroutable != 0 || res.TotalWelfare <= 0 {
		t.Fatalf("zones run broken: %+v", res)
	}
}

// TestIntegrationBaselines: each Section 5.1 baseline admits bids on a
// small workload.
func TestIntegrationBaselines(t *testing.T) {
	model := lora.GPT2Small()
	h := timeslot.NewHorizon(24)
	cfg := trace.DefaultConfig()
	cfg.Horizon = h
	cfg.RatePerSlot = 2
	tasks, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mkt, err := vendor.Standard(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sim.Scheduler{
		baseline.NewEFT(), baseline.NewNTM(1),
		baseline.NewTitan(baseline.TitanOptions{Seed: 1, SolveBudget: 25 * time.Millisecond}),
	} {
		res, err := sim.Run(newCluster(t, h, model, 2, 0), s, tasks, sim.Config{Model: model, Market: mkt})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Admitted == 0 {
			t.Fatalf("%s admitted nothing", s.Name())
		}
	}
}

// TestIntegrationRunCanceled: a canceled sim.Config.Context stops the
// replay with its error, and a live one runs it through.
func TestIntegrationRunCanceled(t *testing.T) {
	model := lora.GPT2Small()
	h := timeslot.NewHorizon(24)
	cl := newCluster(t, h, model, 2, 0)
	cfg := trace.DefaultConfig()
	cfg.Horizon = h
	cfg.RatePerSlot = 2
	cfg.PrepProb = 0
	tasks, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := pdFTSP(cl, tasks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Run(cl, sch, tasks, sim.Config{Context: ctx, Model: model}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	res, err := sim.Run(cl, sch, tasks, sim.Config{Context: context.Background(), Model: model})
	if err != nil || res.Admitted == 0 {
		t.Fatalf("live run: res=%+v err=%v", res, err)
	}
}
