package sim

import (
	"runtime"
	"testing"

	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// rejectAll loses every bid for surplus, keeping no plan: the outcome a
// flooded auction gives nearly every bid.
type rejectAll struct{}

func (rejectAll) Name() string { return "reject-all" }

func (rejectAll) Offer(env *schedule.TaskEnv) schedule.Decision {
	return schedule.Decision{TaskID: env.Task.ID, F: -1, Reason: schedule.ReasonSurplus}
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRunDecisionsMemoryBudget holds what a run with CollectDecisions
// retains to 41 B per rejected bid: its 40-byte Decision in
// Result.Decisions, which is sized exactly, and nothing per bid beside it,
// since a losing bid's decision carries no Terms. With payment, vendor
// and energy cost inline a Decision was 56 B.
func TestRunDecisionsMemoryBudget(t *testing.T) {
	const n, budget = 100_000, 41
	h := timeslot.NewHorizon(100)
	cl := simCluster(t, 1, h)
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Task{ID: i, Arrival: int32(i * h.T / n), Deadline: int32(h.T - 1), Work: 1, MemGB: 1, Batch: 8, Bid: 1}
	}
	before := liveHeap()
	res, err := Run(cl, rejectAll{}, tasks, Config{Model: lora.GPT2Small(), CollectDecisions: true})
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(tasks) // what Run was given is the caller's, not the run's
	if res.Rejected != n || len(res.Decisions) != n || res.Decisions[n-1].TaskID != n-1 {
		t.Fatalf("%d rejected, %d decisions kept; want %d of each", res.Rejected, len(res.Decisions), n)
	}
	if got := (float64(after) - float64(before)) / n; got > budget {
		t.Errorf("%.1f B retained per rejected bid, budget %d", got, budget)
	} else {
		t.Logf("%.1f B retained per rejected bid", got)
	}
}
