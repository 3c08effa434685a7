package schedule_test

import (
	"math"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// classNodes is a heterogeneous fleet: three GPU types, interleaved, with
// A100s of two compute and two memory capacities.
func classNodes() []cluster.Node {
	return []cluster.Node{
		{Spec: gpu.A100, CapWork: 86, CapMemGB: 80},
		{Spec: gpu.A40, CapWork: 40, CapMemGB: 48},
		{Spec: gpu.A100, CapWork: 60, CapMemGB: 80},
		{Spec: gpu.V100, CapWork: 30, CapMemGB: 32},
		{Spec: gpu.A100, CapWork: 86, CapMemGB: 24},
		{Spec: gpu.A40, CapWork: 40, CapMemGB: 48},
		{Spec: gpu.A100, CapWork: 86, CapMemGB: 80},
	}
}

// TestClassCostsMatchPerNodeFormulas checks that the per-class energy rows
// and Refill's per-class throughputs are, bit for bit, what the per-node
// formulas give — on a fresh cluster, a clone, after Reset, and after a
// Snapshot/Restore round trip — and that CalibrateDuals' mean unit cost,
// summed node by node and slot by slot, is unchanged too.
func TestClassCostsMatchPerNodeFormulas(t *testing.T) {
	nodes := classNodes()
	h := timeslot.Day()
	price := gpu.DefaultDiurnal()
	model := lora.GPT2Small()
	const base = 2.0
	cl, err := cluster.New(cluster.Config{Horizon: h, BaseModelGB: base, Price: price}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cl.NumClasses(), 5; got != want {
		t.Fatalf("%d node classes, want %d", got, want)
	}
	for k, want := range []int{0, 1, 2, 3, 4, 1, 0} {
		if got := cl.Class(k); got != want {
			t.Fatalf("node %d in class %d, want %d", k, got, want)
		}
	}

	unit := func(k, ts int) float64 {
		return gpu.OpCostPerSlot(nodes[k].Spec, price, h, ts) / float64(nodes[k].CapWork)
	}
	tasks := []task.Task{
		{ID: 0, Arrival: 0, Deadline: 40, Work: 90, MemGB: 5, Batch: 16, Bid: 400},
		{ID: 1, Arrival: 3, Deadline: 60, Work: 40, MemGB: 30, Batch: 32, Bid: 300},
	}
	check := func(label string, c *cluster.Cluster) {
		t.Helper()
		for k := range nodes {
			if c.Class(k) != cl.Class(k) {
				t.Fatalf("%s: node %d in class %d, want %d", label, k, c.Class(k), cl.Class(k))
			}
			for ts := 0; ts < h.T; ts++ {
				want := unit(k, ts)
				if got := c.UnitEnergyCost(k, ts); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: UnitEnergyCost(%d,%d) = %v, per-node formula %v", label, k, ts, got, want)
				}
				for _, w := range []int{1, 7, 29} {
					if got, want := c.EnergyCost(k, ts, w), float64(w)*want; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: EnergyCost(%d,%d,%d) = %v, per-node formula %v", label, k, ts, w, got, want)
					}
				}
			}
		}
		var env schedule.TaskEnv
		for i := range tasks {
			tk := &tasks[i]
			env.Refill(tk, c, model, nil)
			for k, n := range nodes {
				want := lora.TaskUnitsPerSlot(model, n.Spec, int(tk.Batch), h)
				if tk.MemGB > n.CapMemGB-base {
					want = 0
				}
				if env.Speed[k] != want {
					t.Fatalf("%s: task %d speed on node %d = %d, per-node formula %d", label, tk.ID, k, env.Speed[k], want)
				}
			}
		}
	}
	check("fresh", cl)

	// Load the ledger, then clone, reset and round-trip it.
	for k := range nodes {
		for ts := 0; ts < h.T; ts += 1 + k {
			cl.Commit(k, ts, 1+k, 1)
		}
	}
	cl.SetDown(3, 10, 20)
	check("clone", cl.Clone())
	snap := cl.Snapshot()
	fresh, err := cluster.New(cluster.Config{Horizon: h, BaseModelGB: base, Price: price}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check("restore", fresh)
	cl.Reset()
	check("reset", cl)

	// CalibrateDuals' α for a one-task, no-prep workload is
	// (b − meanUnit·M)/M, with meanUnit summed over nodes, then slots.
	meanUnit, cells := 0.0, 0
	for k := range nodes {
		for ts := 0; ts < h.T; ts++ {
			meanUnit += unit(k, ts)
			cells++
		}
	}
	meanUnit /= float64(cells)
	tk := tasks[0]
	opts := core.CalibrateDuals([]task.Task{tk}, model, cl, nil)
	want := (tk.Bid - meanUnit*float64(tk.Work)) / float64(tk.Work)
	if math.Float64bits(opts.Alpha) != math.Float64bits(want) {
		t.Fatalf("alpha = %v, per-node mean unit cost gives %v", opts.Alpha, want)
	}
}
