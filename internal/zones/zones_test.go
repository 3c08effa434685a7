package zones

import (
	"testing"

	"github.com/pdftsp/pdftsp/internal/baseline"
	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

func makeZone(t *testing.T, model lora.ModelConfig, nodes int, mkt *vendor.Marketplace) *Zone {
	t.Helper()
	h := timeslot.NewHorizon(48)
	cl, err := cluster.New(cluster.Config{
		Horizon:     h,
		BaseModelGB: lora.BaseMemoryGB(model),
	}, cluster.Uniform(nodes, gpu.A100, lora.NodeCapUnits(model, gpu.A100, h), gpu.A100.MemGB))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.New(cl, core.Options{Alpha: 2, Beta: 10})
	if err != nil {
		t.Fatal(err)
	}
	return &Zone{Model: model, Cluster: cl, Scheduler: sched, Market: mkt}
}

func multiModelWorkload(t *testing.T) []task.Task {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Horizon = timeslot.NewHorizon(48)
	cfg.RatePerSlot = 3
	cfg.Seed = 5
	cfg.PrepProb = 0
	cfg.Models = []trace.ModelShare{
		{Model: lora.GPT2Small(), Weight: 0.7},
		{Model: lora.GPT2Medium(), Weight: 0.3},
	}
	tasks, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(); err == nil {
		t.Fatal("empty router accepted")
	}
	if _, err := NewRouter(&Zone{}); err == nil {
		t.Fatal("incomplete zone accepted")
	}
	mkt, _ := vendor.Standard(2, 1)
	z := makeZone(t, lora.GPT2Small(), 2, mkt)
	if _, err := NewRouter(z, makeZone(t, lora.GPT2Small(), 2, mkt)); err == nil {
		t.Fatal("duplicate model zones accepted")
	}
	// A model the catalog does not hold has no code to route a task by.
	llama := lora.GPT2Medium()
	llama.Name = "llama-7b"
	if _, err := NewRouter(z, makeZone(t, llama, 2, mkt)); err == nil {
		t.Fatal("a zone serving an uncatalogued model accepted")
	}
}

func TestRouterRoutesByModel(t *testing.T) {
	mkt, _ := vendor.Standard(2, 1)
	small := makeZone(t, lora.GPT2Small(), 2, mkt)
	medium := makeZone(t, lora.GPT2Medium(), 2, mkt)
	r, err := NewRouter(small, medium)
	if err != nil {
		t.Fatal(err)
	}
	tk := task.Task{ID: 1, Arrival: 0, Deadline: 10, Work: 10, MemGB: 4, Batch: 16, Bid: 50, ModelName: lora.ModelGPT2Medium}
	if zi := r.Place(&tk); zi < 0 || r.zones[zi] != medium {
		t.Fatal("medium zone not found")
	}
	// The zero model routes to the default (first) zone.
	tk.ModelName = 0
	if zi := r.Place(&tk); zi < 0 || r.zones[zi] != small {
		t.Fatal("default zone wrong")
	}
	if names := r.ZoneNames(); len(names) != 2 || names[0] != "gpt2-small" {
		t.Fatalf("zone names %v", names)
	}
}

func TestRouterRejectsUnknownModel(t *testing.T) {
	mkt, _ := vendor.Standard(2, 1)
	r, err := NewRouter(makeZone(t, lora.GPT2Small(), 2, mkt))
	if err != nil {
		t.Fatal(err)
	}
	tk := task.Task{ID: 1, Arrival: 0, Deadline: 10, Work: 10, MemGB: 4, Batch: 16, Bid: 50, ModelName: lora.ModelGPT2Medium}
	d, zone := r.Offer(&tk)
	if d.Admitted || zone != "" {
		t.Fatal("unknown model task was routed")
	}
}

func TestMultiZoneRun(t *testing.T) {
	mkt, _ := vendor.Standard(2, 1)
	small := makeZone(t, lora.GPT2Small(), 3, mkt)
	medium := makeZone(t, lora.GPT2Medium(), 3, mkt)
	r, err := NewRouter(small, medium)
	if err != nil {
		t.Fatal(err)
	}
	tasks := multiModelWorkload(t)
	res, err := Run(r, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unroutable != 0 {
		t.Fatalf("%d tasks unroutable", res.Unroutable)
	}
	sSmall, sMedium := res.PerZone["gpt2-small"], res.PerZone["gpt2-medium"]
	if sSmall.Admitted == 0 || sMedium.Admitted == 0 {
		t.Fatalf("a zone admitted nothing: %+v / %+v", sSmall, sMedium)
	}
	if res.TotalWelfare <= 0 {
		t.Fatalf("total welfare %v", res.TotalWelfare)
	}
	sum := sSmall.Welfare + sMedium.Welfare
	if diff := sum - res.TotalWelfare; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("total %v != per-zone sum %v", res.TotalWelfare, sum)
	}
	// Zone isolation: tasks of one model never consume the other zone's
	// cluster.
	small2, medium2 := small.Cluster.Utilization(), medium.Cluster.Utilization()
	if small2 == 0 || medium2 == 0 {
		t.Fatal("a zone's cluster is untouched despite admissions")
	}
}

func TestRunRejectsUnsorted(t *testing.T) {
	mkt, _ := vendor.Standard(2, 1)
	r, err := NewRouter(makeZone(t, lora.GPT2Small(), 2, mkt))
	if err != nil {
		t.Fatal(err)
	}
	tasks := []task.Task{
		{ID: 0, Arrival: 5, Deadline: 8, Work: 5, MemGB: 2, Batch: 8, Bid: 10},
		{ID: 1, Arrival: 1, Deadline: 8, Work: 5, MemGB: 2, Batch: 8, Bid: 10},
	}
	if _, err := Run(r, tasks); err == nil {
		t.Fatal("unsorted tasks accepted")
	}
}

func TestZonesWorkWithBaselines(t *testing.T) {
	// Zones are scheduler-agnostic: EFT zones compose the same way.
	mkt, _ := vendor.Standard(2, 1)
	h := timeslot.NewHorizon(48)
	model := lora.GPT2Small()
	cl, err := cluster.New(cluster.Config{Horizon: h, BaseModelGB: lora.BaseMemoryGB(model)},
		cluster.Uniform(2, gpu.A100, lora.NodeCapUnits(model, gpu.A100, h), gpu.A100.MemGB))
	if err != nil {
		t.Fatal(err)
	}
	var sched sim.Scheduler = baseline.NewEFT()
	r, err := NewRouter(&Zone{Model: model, Cluster: cl, Scheduler: sched, Market: mkt})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Horizon = h
	cfg.RatePerSlot = 2
	cfg.PrepProb = 0
	tasks, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(r, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerZone["gpt2-small"].Admitted == 0 {
		t.Fatal("EFT zone admitted nothing")
	}
}
