package offline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/milp"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

func smallCluster(t *testing.T, nodes, slots int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Horizon:     timeslot.NewHorizon(slots),
		BaseModelGB: 2,
		Price:       gpu.FlatPrice(1),
	}, cluster.Uniform(nodes, gpu.A100, 86, 80))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// oneSlotTask occupies exactly one A100 slot at batch 16 (speed 10).
func oneSlotTask(id, slot int, mem, bid float64) task.Task {
	return task.Task{
		ID: id, Arrival: int32(slot), Deadline: int32(slot), DatasetSamples: 9000, Epochs: 3,
		Work: 10, MemGB: mem, Rank: 8, Batch: 16, Bid: bid, TrueValue: bid,
	}
}

func TestBuildRejectsEmptyInstance(t *testing.T) {
	cl := smallCluster(t, 1, 4)
	if _, err := Build(Instance{Cluster: cl, Model: lora.GPT2Small()}); err == nil {
		t.Fatal("empty instance accepted")
	}
	if _, err := Build(Instance{Tasks: []task.Task{oneSlotTask(0, 1, 5, 10)}, Model: lora.GPT2Small()}); err == nil {
		t.Fatal("nil cluster accepted")
	}
}

func TestBuildRejectsPrepWithoutMarket(t *testing.T) {
	cl := smallCluster(t, 1, 4)
	tk := oneSlotTask(0, 1, 5, 10)
	tk.NeedsPrep = true
	if _, err := Build(Instance{Cluster: cl, Tasks: []task.Task{tk}, Model: lora.GPT2Small()}); err == nil {
		t.Fatal("prep task without marketplace accepted")
	}
}

func TestMemoryConflictPicksHigherBid(t *testing.T) {
	// Two tasks, same single-slot window, each needing 40 GB of the
	// 78 GB task memory: only one fits, and OPT must take the 100-bid.
	cl := smallCluster(t, 1, 4)
	tasks := []task.Task{
		oneSlotTask(0, 2, 40, 60),
		oneSlotTask(1, 2, 40, 100),
	}
	res, err := Solve(Instance{Cluster: cl, Tasks: tasks, Model: lora.GPT2Small()}, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	energy := cl.EnergyCost(0, 2, 10)
	want := 100 - energy
	if math.Abs(res.Welfare-want) > 1e-6 {
		t.Fatalf("welfare %v, want %v", res.Welfare, want)
	}
	if res.Admitted[0] || !res.Admitted[1] {
		t.Fatalf("admitted = %v, want only task 1", res.Admitted)
	}
}

func TestBothFitWhenMemoryAllows(t *testing.T) {
	cl := smallCluster(t, 1, 4)
	tasks := []task.Task{
		oneSlotTask(0, 2, 20, 60),
		oneSlotTask(1, 2, 20, 100),
	}
	res, err := Solve(Instance{Cluster: cl, Tasks: tasks, Model: lora.GPT2Small()}, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compute capacity 86 hosts both 28-unit tasks; memory 40 ≤ 78.
	energy := cl.EnergyCost(0, 2, 10)
	want := 160 - 2*energy
	if res.Status != milp.Optimal || math.Abs(res.Welfare-want) > 1e-6 {
		t.Fatalf("status %v welfare %v, want optimal %v", res.Status, res.Welfare, want)
	}
}

func TestImpossibleDeadlineRejected(t *testing.T) {
	cl := smallCluster(t, 1, 6)
	tk := oneSlotTask(0, 2, 10, 100)
	tk.Work = 1000 // one slot can do at most 10 units
	res, err := Solve(Instance{Cluster: cl, Tasks: []task.Task{tk}, Model: lora.GPT2Small()}, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Welfare != 0 || res.Admitted[0] {
		t.Fatalf("impossible task admitted: welfare %v", res.Welfare)
	}
}

func TestNegativeValueTaskRejected(t *testing.T) {
	cl := smallCluster(t, 1, 6)
	tk := oneSlotTask(0, 2, 10, 0.5) // bid below the ~19.5 energy cost
	res, err := Solve(Instance{Cluster: cl, Tasks: []task.Task{tk}, Model: lora.GPT2Small()}, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Welfare != 0 || res.Admitted[0] {
		t.Fatal("welfare-negative task admitted offline")
	}
}

func TestPrepTaskPaysCheapestWorkableVendor(t *testing.T) {
	cl := smallCluster(t, 1, 12)
	mkt, err := vendor.Standard(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	tk := task.Task{
		ID: 0, Arrival: 1, Deadline: 10, DatasetSamples: 9000, Epochs: 3,
		Work: 10, MemGB: 10, Rank: 8, Batch: 16, NeedsPrep: true, Bid: 100, TrueValue: 100,
	}
	res, err := Solve(Instance{Cluster: cl, Tasks: []task.Task{tk}, Model: lora.GPT2Small(), Market: mkt}, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.Optimal || !res.Admitted[0] {
		t.Fatalf("prep task not admitted: %v", res.Status)
	}
	// With a wide window every vendor is workable, so OPT uses the
	// cheapest quote and the cheapest slot.
	quotes := mkt.QuotesFor(0)
	cheapest := math.Inf(1)
	for _, q := range quotes {
		if q.Price < cheapest {
			cheapest = q.Price
		}
	}
	energy := cl.EnergyCost(0, 2, 10) // flat price: same for all slots
	want := 100 - cheapest - energy
	if math.Abs(res.Welfare-want) > 1e-6 {
		t.Fatalf("welfare %v, want %v", res.Welfare, want)
	}
}

func TestOfflineBoundDominatesOnline(t *testing.T) {
	// The defining property behind Figure 12: the offline bound is an
	// upper bound on any online algorithm's welfare.
	rng := rand.New(rand.NewSource(33))
	cl := smallCluster(t, 2, 16)
	var tasks []task.Task
	for i := 0; i < 14; i++ {
		a := rng.Intn(10)
		tasks = append(tasks, task.Task{
			ID: i, Arrival: int32(a), Deadline: int32(a + 2 + rng.Intn(5)),
			DatasetSamples: 8000, Epochs: 2, Work: int32(15 + rng.Intn(50)),
			MemGB: 5 + 10*rng.Float64(), Rank: 8, Batch: 16,
			Bid: 30 + rng.Float64()*120,
		})
		tasks[i].TrueValue = tasks[i].Bid
	}
	// Online run.
	onlineCl := cl.Clone()
	sched, err := core.New(onlineCl, core.Options{Alpha: 10, Beta: 40})
	if err != nil {
		t.Fatal(err)
	}
	online := 0.0
	for i := range tasks {
		env := schedule.NewTaskEnv(&tasks[i], onlineCl, lora.GPT2Small(), nil)
		d := sched.Offer(env)
		online += d.Welfare(tasks[i].Bid)
	}
	// Offline bound.
	res, err := Solve(Instance{Cluster: cl, Tasks: tasks, Model: lora.GPT2Small()},
		milp.Options{MaxNodes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if online > res.Bound+1e-6 {
		t.Fatalf("online welfare %v exceeds offline bound %v", online, res.Bound)
	}
	if res.Welfare < 0 {
		t.Fatalf("offline incumbent welfare negative: %v", res.Welfare)
	}
}

// TestBuildOwnsItsQuotes checks the model keeps its own copy of every
// task's quotes: they outlive the build, so no two tasks may share a
// buffer that a later derivation overwrote.
func TestBuildOwnsItsQuotes(t *testing.T) {
	cl := smallCluster(t, 2, 12)
	mkt, err := vendor.Standard(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]task.Task, 3)
	for i := range tasks {
		tasks[i] = task.Task{
			ID: i, Arrival: 1, Deadline: 10, DatasetSamples: 9000, Epochs: 3,
			Work: 10, MemGB: 10, Rank: 8, Batch: 16, NeedsPrep: true, Bid: 100, TrueValue: 100,
		}
	}
	m, err := Build(Instance{Cluster: cl, Tasks: tasks, Model: lora.GPT2Small(), Market: mkt})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		if want := mkt.QuotesFor(i); !reflect.DeepEqual(m.Quotes[i], want) {
			t.Fatalf("task %d: model quotes %+v, want %+v", i, m.Quotes[i], want)
		}
		for j := 0; j < i; j++ {
			if &m.Quotes[i][0] == &m.Quotes[j][0] {
				t.Fatalf("tasks %d and %d share one quote buffer", j, i)
			}
		}
	}
}
