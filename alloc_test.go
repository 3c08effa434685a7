package pdftsp

// Allocation-budget guards for the hot paths PR 4 tightened. These lock
// in the steady-state budgets so later PRs cannot silently regress them;
// the figure-scale wins are gated separately by `make bench-check`.

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// benchClusterForTest mirrors benchsuite's ten-node hybrid cluster.
func benchClusterForTest(t *testing.T, h timeslot.Horizon, model lora.ModelConfig) *cluster.Cluster {
	t.Helper()
	var nodes []cluster.Node
	for _, spec := range []gpu.Spec{gpu.A100, gpu.A40} {
		nodes = append(nodes, cluster.Uniform(5, spec, lora.NodeCapUnits(model, spec, h), spec.MemGB)...)
	}
	cl, err := cluster.New(cluster.Config{Horizon: h, BaseModelGB: lora.BaseMemoryGB(model)}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestOfferAllocBudget mirrors the OfferPdFTSP benchmark and asserts one
// warm Algorithm-1 offer, quote derivation for a fresh task ID included,
// stays within 6 allocations — the budget the acceptance criteria fix.
func TestOfferAllocBudget(t *testing.T) {
	model := lora.GPT2Small()
	h := timeslot.Day()
	cl := benchClusterForTest(t, h, model)
	mkt, err := vendor.Standard(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.RatePerSlot = 3
	tasks, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.New(cl, core.CalibrateDuals(tasks, model, cl, mkt))
	if err != nil {
		t.Fatal(err)
	}
	var env schedule.TaskEnv
	for i := 0; i < len(tasks)/2; i++ {
		env.Refill(&tasks[i], cl, model, mkt)
		sch.Offer(&env)
	}
	rest := tasks[len(tasks)/2:]
	var tk task.Task
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		tk = rest[n%len(rest)]
		tk.ID += 1_000_000 + n // fresh identity per offer
		n++
		env.Refill(&tk, cl, model, mkt)
		sch.Offer(&env)
	})
	if allocs > 6 {
		t.Fatalf("warm Offer averaged %.1f allocs, budget is 6", allocs)
	}
}

// TestCalibrateDualsAllocBudget asserts the Lemma-2 calibration is
// allocation-free from its first call: quotes are derived into a stack
// buffer.
func TestCalibrateDualsAllocBudget(t *testing.T) {
	model := lora.GPT2Small()
	h := timeslot.Day()
	cl := benchClusterForTest(t, h, model)
	cfg := trace.DefaultConfig()
	cfg.RatePerSlot = 10
	tasks, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mkt, err := vendor.Standard(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		core.CalibrateDuals(tasks, model, cl, mkt)
	})
	if allocs > 0 {
		t.Fatalf("CalibrateDuals averaged %.1f allocs, budget is 0", allocs)
	}
}

// TestTraceGenerateAllocBudget asserts workload generation allocates what
// it returns and little else: at the reject-flood rate (625/slot, ~76k
// tasks) 2 allocations — arrival counts and the tasks; both seeded streams
// are lfg.Sources on Generate's stack — within 2% of the returned slice's
// own bytes, which is sized exactly. Grouping it by slot afterwards is one
// more allocation, not a second copy of the workload.
func TestTraceGenerateAllocBudget(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.RatePerSlot = 625
	var tasks []task.Task
	generate := func() {
		var err error
		if tasks, err = trace.Generate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// The process's first GC cycles start the runtime's mark workers, and
	// their allocations count in whichever window those cycles fall in.
	// A 40-byte Task no longer crosses the first heap goal in
	// AllocsPerRun's warm-up call, so run a cycle before measuring.
	runtime.GC()
	if allocs := testing.AllocsPerRun(3, generate); allocs > 2 {
		t.Fatalf("Generate averaged %.1f allocs, budget is 2", allocs)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	generate()
	runtime.ReadMemStats(&m1)
	payload := uint64(len(tasks)) * uint64(unsafe.Sizeof(task.Task{}))
	if got := m1.TotalAlloc - m0.TotalAlloc; float64(got) > 1.02*float64(payload) {
		t.Fatalf("Generate allocated %d B to return %d B of tasks, budget is 1.02x", got, payload)
	}
	if cap(tasks) != len(tasks) {
		t.Fatalf("Generate returned cap %d for %d tasks", cap(tasks), len(tasks))
	}

	allocs := testing.AllocsPerRun(20, func() {
		if _, err := trace.BySlot(tasks, cfg.Horizon.T); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("BySlot averaged %.1f allocs, budget is 1", allocs)
	}
}

// TestSubmitAllocBudget pins what one bid through an in-process
// SubmitBatch of one costs in steady state, slot close included: the
// whole round trip — enqueue, intake checks, hold, Step, a rejected
// offer, the answer — stays at the 13 allocations measured when the
// broker still had a pooled one-bid Submit: 7 are Step's control message
// and the slot close, 6 the submission, its outcome slice and its two
// buffered channels (a channel of errors allocates its buffer apart).
// The bid is priced to lose, so no plan is retained and the count does
// not drift as the cluster fills.
func TestSubmitAllocBudget(t *testing.T) {
	const runs = 200
	model := lora.GPT2Small()
	h := timeslot.NewHorizon(runs + 16)
	cl := benchClusterForTest(t, h, model)
	mkt, err := vendor.Standard(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.RatePerSlot = 3
	tasks, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.New(cl, core.CalibrateDuals(tasks, model, cl, mkt))
	if err != nil {
		t.Fatal(err)
	}
	b, err := service.New(service.Options{
		Cluster: cl, Scheduler: sch, Model: model, Market: mkt,
		VirtualClock: true, DropLosingPlans: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Kill()

	bid := task.Task{ID: -1, Arrival: -1, Deadline: int32(h.T - 1), Work: 5, MemGB: 2, Batch: 8, Bid: 1e-9}
	work := make(chan struct{})
	results := make(chan error)
	go func() {
		tasks := make([]task.Task, 1)
		for range work {
			tasks[0] = bid // intake stamps the assigned ID and slot into it
			outs, err := b.SubmitBatch(context.Background(), tasks)
			if err == nil {
				if err = outs[0].Err; err == nil && outs[0].Decision.Admitted {
					t.Error("the losing bid was admitted; the budget assumes a rejection")
				}
			}
			results <- err
		}
	}()
	defer close(work)
	// SubmitBatch blocks until its slot closes, so the submitter is a second
	// goroutine; stepping until its result is in keeps the loop correct
	// however the two interleave (AllocsPerRun pins GOMAXPROCS to 1, where
	// it is one Step per bid).
	allocs := testing.AllocsPerRun(runs, func() {
		work <- struct{}{}
		for {
			runtime.Gosched()
			select {
			case err := <-results:
				if err != nil {
					t.Fatal(err)
				}
				return
			default:
			}
			if _, err := b.Step(1); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 13 {
		t.Fatalf("one-bid SubmitBatch round trip averaged %.0f allocs, budget is 13", allocs)
	}
}
