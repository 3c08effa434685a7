package zones

import (
	"math"
	"testing"

	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

func testTask(id int) task.Task {
	return task.Task{
		ID: id, Arrival: 0, Deadline: 20, Work: 40,
		MemGB: 4, Batch: 16, Bid: 50,
	}
}

// Two fresh replica shards publish identical duals (all zero), so every
// bid is an exact tie. The tie-break must be deterministic and must
// spread load across the tied shards instead of collapsing onto the
// first.
func TestPlaceSpreadsExactTies(t *testing.T) {
	mkt, _ := vendor.Standard(2, 1)
	a := makeZone(t, lora.GPT2Small(), 2, mkt)
	b := makeZone(t, lora.GPT2Small(), 2, mkt)
	a.Key, b.Key = "shard/0", "shard/1"
	r, err := NewRouter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for id := 0; id < 100; id++ {
		tk := testTask(id)
		zi := r.Place(&tk)
		if zi < 0 {
			t.Fatalf("task %d unroutable", id)
		}
		counts[zi]++
		// Determinism: the same task re-placed under the same quotes
		// lands on the same shard.
		if again := r.Place(&tk); again != zi {
			t.Fatalf("task %d placed on %d then %d", id, zi, again)
		}
		// Exact ties spread by ID.
		if want := id % 2; zi != want {
			t.Fatalf("task %d: tie-break chose shard %d, want %d", id, zi, want)
		}
	}
	if counts[0] != 50 || counts[1] != 50 {
		t.Fatalf("tie-break did not spread load: %v", counts)
	}
}

// Once one shard's duals rise, the other shard's quote wins outright.
func TestPlaceFollowsDualPrices(t *testing.T) {
	mkt, _ := vendor.Standard(2, 1)
	a := makeZone(t, lora.GPT2Small(), 2, mkt)
	b := makeZone(t, lora.GPT2Small(), 2, mkt)
	a.Key, b.Key = "shard/0", "shard/1"
	r, err := NewRouter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate shard 0's compute price by hand and republish.
	sched := a.Scheduler.(*core.Scheduler)
	ds := sched.SnapshotDuals()
	for k := range ds.Lambda {
		for s := range ds.Lambda[k] {
			ds.Lambda[k][s] = 5
		}
	}
	if err := sched.RestoreDuals(ds); err != nil {
		t.Fatal(err)
	}
	r.RefreshQuotes()
	for id := 0; id < 20; id++ {
		tk := testTask(id)
		if zi := r.Place(&tk); zi != 1 {
			t.Fatalf("task %d placed on expensive shard %d", id, zi)
		}
	}
}

// A bid no shard can feasibly host is still placed (the zone auction
// records the rejection) and the rejections spread deterministically.
func TestPlaceInfeasibleSpreads(t *testing.T) {
	mkt, _ := vendor.Standard(2, 1)
	a := makeZone(t, lora.GPT2Small(), 2, mkt)
	b := makeZone(t, lora.GPT2Small(), 2, mkt)
	a.Key, b.Key = "shard/0", "shard/1"
	r, err := NewRouter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 10; id++ {
		tk := testTask(id)
		tk.MemGB = 1e9 // larger than any node's cap
		if got := r.quotes[0].Surplus(&tk); !math.IsInf(got, -1) {
			t.Fatalf("surplus %v for an infeasible task, want -Inf", got)
		}
		if zi := r.Place(&tk); zi != id%2 {
			t.Fatalf("infeasible task %d placed on %d, want %d", id, zi, id%2)
		}
	}
}

// Surplus prices the feasibility window: a task whose deadline leaves
// too few slots is infeasible, and higher duals strictly lower the
// surplus.
func TestSurplusWindowAndDuals(t *testing.T) {
	mkt, _ := vendor.Standard(2, 1)
	z := makeZone(t, lora.GPT2Small(), 1, mkt)
	r, err := NewRouter(z)
	if err != nil {
		t.Fatal(err)
	}
	q := r.quotes[0]
	tk := testTask(0)
	base := q.Surplus(&tk)
	if math.IsInf(base, -1) {
		t.Fatal("feasible task quoted -Inf")
	}
	tight := tk
	tight.Deadline = tk.Arrival // one slot for 40 units of work
	if got := q.Surplus(&tight); !math.IsInf(got, -1) {
		t.Fatalf("deadline-infeasible task quoted %v, want -Inf", got)
	}
	ds := zoneDuals(z.Scheduler)
	for k := range ds.Lambda {
		for s := range ds.Lambda[k] {
			ds.Lambda[k][s] = 1
		}
	}
	priced := q.WithDuals(ds)
	if got := priced.Surplus(&tk); got >= base {
		t.Fatalf("surplus %v did not drop under positive duals (was %v)", got, base)
	}
}
