package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/baseline"
	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

func smallWorkload(t *testing.T) ([]task.Task, trace.Config) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Horizon = timeslot.NewHorizon(36)
	cfg.RatePerSlot = 2
	cfg.Seed = 4
	tasks, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) == 0 {
		t.Fatal("no tasks")
	}
	return tasks, cfg
}

func simCluster(t *testing.T, nodes int, horizon timeslot.Horizon) *cluster.Cluster {
	t.Helper()
	model := lora.GPT2Small()
	cl, err := cluster.New(cluster.Config{
		Horizon:     horizon,
		BaseModelGB: lora.BaseMemoryGB(model),
	}, cluster.Uniform(nodes, gpu.A100, lora.NodeCapUnits(model, gpu.A100, horizon), gpu.A100.MemGB))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestRunValidatesInputs(t *testing.T) {
	if _, err := Run(nil, baseline.NewEFT(), nil, Config{}); err == nil {
		t.Fatal("nil cluster accepted")
	}
	cl := simCluster(t, 1, timeslot.NewHorizon(8))
	if _, err := Run(cl, nil, nil, Config{}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	// Unsorted tasks rejected.
	tasks := []task.Task{
		{ID: 0, Arrival: 5, Deadline: 6, Work: 1, MemGB: 1, Batch: 8, Bid: 1},
		{ID: 1, Arrival: 2, Deadline: 6, Work: 1, MemGB: 1, Batch: 8, Bid: 1},
	}
	if _, err := Run(cl, baseline.NewEFT(), tasks, Config{Model: lora.GPT2Small()}); err == nil {
		t.Fatal("unsorted tasks accepted")
	}
	// A non-finite bid is refused up front, before any task is offered: an
	// admitted +Inf bid would price every cell of its plan at λ = +Inf.
	tasks = []task.Task{
		{ID: 0, Arrival: 2, Deadline: 6, Work: 1, MemGB: 1, Batch: 8, Bid: 1},
		{ID: 1, Arrival: 5, Deadline: 6, Work: 1, MemGB: 1, Batch: 8, Bid: math.Inf(1)},
	}
	offered := 0
	sched := countingScheduler{baseline.NewEFT(), &offered}
	if _, err := Run(cl, sched, tasks, Config{Model: lora.GPT2Small()}); err == nil || offered != 0 {
		t.Fatalf("infinite bid: err %v after %d offers, want a refusal before the first", err, offered)
	}
}

// countingScheduler counts the bids that reach the scheduler.
type countingScheduler struct {
	Scheduler
	offered *int
}

func (c countingScheduler) Offer(env *schedule.TaskEnv) schedule.Decision {
	*c.offered++
	return c.Scheduler.Offer(env)
}

func TestRunAccountingConsistency(t *testing.T) {
	tasks, tc := smallWorkload(t)
	cl := simCluster(t, 3, tc.Horizon)
	mkt, err := vendor.Standard(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.New(cl, core.CalibrateDuals(tasks, tc.Model, cl, mkt))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cl, sched, tasks, Config{Model: tc.Model, Market: mkt, CollectDecisions: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted+res.Rejected != len(tasks) {
		t.Fatalf("admitted %d + rejected %d != %d tasks", res.Admitted, res.Rejected, len(tasks))
	}
	if res.Admitted == 0 {
		t.Fatal("pdFTSP admitted nothing on a lightly loaded cluster")
	}
	// Welfare equals the sum over collected decisions.
	sum := 0.0
	for i, d := range res.Decisions {
		sum += d.Welfare(tasks[i].Bid)
	}
	if diff := sum - res.Welfare; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("welfare %v != decision sum %v", res.Welfare, sum)
	}
	if res.OfferLatency.Count() != uint64(len(tasks)) {
		t.Fatalf("latency samples %d != %d tasks", res.OfferLatency.Count(), len(tasks))
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %v out of range", res.Utilization)
	}
	reasons := 0
	for _, n := range res.RejectReasons {
		reasons += n
	}
	if reasons != res.Rejected {
		t.Fatalf("reason tally %d != rejected %d", reasons, res.Rejected)
	}
}

func TestRunBatchSchedulerGetsWholeSlots(t *testing.T) {
	tasks, tc := smallWorkload(t)
	cl := simCluster(t, 3, tc.Horizon)
	mkt, _ := vendor.Standard(3, 2)
	titan := baseline.NewTitan(baseline.TitanOptions{Seed: 1, SolveBudget: 50 * time.Millisecond})
	res, err := Run(cl, titan, tasks, Config{Model: tc.Model, Market: mkt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatal("Titan admitted nothing")
	}
	if res.OfferLatency.Count() != uint64(len(tasks)) {
		t.Fatal("batch latency not amortized per task")
	}
}

func TestRunAcceptanceRate(t *testing.T) {
	r := &Result{Admitted: 3, Rejected: 1}
	if r.AcceptanceRate() != 0.75 {
		t.Fatalf("acceptance = %v", r.AcceptanceRate())
	}
	if (&Result{}).AcceptanceRate() != 0 {
		t.Fatal("empty result acceptance should be 0")
	}
}

// TestResultHoldsNoPerBidSlice: what a run keeps per bid is the opt-in
// Decisions and nothing else; a per-bid sample belongs in a fixed-size
// form, as OfferLatency's histogram is.
func TestResultHoldsNoPerBidSlice(t *testing.T) {
	res := reflect.TypeOf(Result{})
	for i := range res.NumField() {
		if f := res.Field(i); f.Type.Kind() == reflect.Slice && f.Name != "Decisions" {
			t.Errorf("Result.%s is a %s; only Decisions may grow with the bids", f.Name, f.Type)
		}
	}
}

func TestPdFTSPBeatsGreedyBaselinesUnderLoad(t *testing.T) {
	// The paper's headline claim at small scale: under contention,
	// pdFTSP's admission control wins over finish-ASAP greedy.
	tc := trace.DefaultConfig()
	tc.Horizon = timeslot.NewHorizon(48)
	tc.RatePerSlot = 6
	tc.Seed = 9
	tasks, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	mkt, _ := vendor.Standard(3, 2)

	welfare := map[string]float64{}
	// pdFTSP.
	cl := simCluster(t, 2, tc.Horizon)
	pd, err := core.New(cl, core.CalibrateDuals(tasks, tc.Model, cl, mkt))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cl, pd, tasks, Config{Model: tc.Model, Market: mkt})
	if err != nil {
		t.Fatal(err)
	}
	welfare["pdFTSP"] = res.Welfare
	// EFT.
	cl = simCluster(t, 2, tc.Horizon)
	res, err = Run(cl, baseline.NewEFT(), tasks, Config{Model: tc.Model, Market: mkt})
	if err != nil {
		t.Fatal(err)
	}
	welfare["EFT"] = res.Welfare
	// NTM.
	cl = simCluster(t, 2, tc.Horizon)
	res, err = Run(cl, baseline.NewNTM(1), tasks, Config{Model: tc.Model, Market: mkt})
	if err != nil {
		t.Fatal(err)
	}
	welfare["NTM"] = res.Welfare

	if welfare["pdFTSP"] <= welfare["EFT"] {
		t.Fatalf("pdFTSP %v should beat EFT %v under load", welfare["pdFTSP"], welfare["EFT"])
	}
	if welfare["EFT"] <= welfare["NTM"] {
		t.Fatalf("EFT %v should beat NTM %v (multi-LoRA sharing)", welfare["EFT"], welfare["NTM"])
	}
}
