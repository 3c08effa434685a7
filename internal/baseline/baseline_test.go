package baseline

import (
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

func testCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Horizon:     timeslot.NewHorizon(24),
		BaseModelGB: 2,
		Price:       gpu.FlatPrice(1),
	}, cluster.Uniform(nodes, gpu.A100, 86, 80))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func testTask(id int) *task.Task {
	return &task.Task{
		ID: id, Arrival: 1, Deadline: 12, DatasetSamples: 10000, Epochs: 3,
		Work: 30, MemGB: 5, Rank: 8, Batch: 16, Bid: 70, TrueValue: 70,
	}
}

func envFor(t *testing.T, tk *task.Task, cl *cluster.Cluster, mkt *vendor.Marketplace) *schedule.TaskEnv {
	t.Helper()
	return schedule.NewTaskEnv(tk, cl, lora.GPT2Small(), mkt)
}

func TestEFTAdmitsAndFinishesEarliest(t *testing.T) {
	cl := testCluster(t, 2)
	eft := NewEFT()
	env := envFor(t, testTask(0), cl, nil)
	d := eft.Offer(env)
	if !d.Admitted {
		t.Fatalf("EFT rejected a feasible task: %s", d.Reason)
	}
	if err := d.Schedule.Validate(env); err != nil {
		t.Fatalf("EFT plan invalid: %v", err)
	}
	// Finish-ASAP: the first placement must be at the arrival slot and
	// placements must be consecutive from there.
	for i, p := range d.Schedule.Placements {
		if p.Slot != int(env.Task.Arrival)+i {
			t.Fatalf("EFT placement %d at slot %d, want %d", i, p.Slot, int(env.Task.Arrival)+i)
		}
	}
}

func TestEFTPicksFastestVendor(t *testing.T) {
	cl := testCluster(t, 2)
	mkt, err := vendor.Standard(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	tk := testTask(0)
	tk.NeedsPrep = true
	env := envFor(t, tk, cl, mkt)
	d := NewEFT().Offer(env)
	if !d.Admitted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	minDelay := env.Quotes[0].DelaySlots
	for _, q := range env.Quotes {
		if q.DelaySlots < minDelay {
			minDelay = q.DelaySlots
		}
	}
	if d.Schedule.VendorDelay != minDelay {
		t.Fatalf("EFT chose delay %d, fastest is %d", d.Schedule.VendorDelay, minDelay)
	}
}

func TestEFTAdmitsUnprofitableWithoutWelfareCheck(t *testing.T) {
	// EFT has no price signal (Section 5.1): it admits any feasible
	// task, even a welfare-negative one.
	cl := testCluster(t, 1)
	tk := testTask(0)
	tk.Bid = 0.01
	d := NewEFT().Offer(envFor(t, tk, cl, nil))
	if !d.Admitted {
		t.Fatalf("plain EFT rejected a feasible task: %q", d.Reason)
	}
}

func TestWelfareCheckRejectsUnprofitable(t *testing.T) {
	cl := testCluster(t, 1)
	tk := testTask(0)
	tk.Bid = 0.01
	d := NewEFT().WithWelfareCheck().Offer(envFor(t, tk, cl, nil))
	if d.Admitted || d.Reason != schedule.ReasonSurplus {
		t.Fatalf("admitted=%v reason=%q", d.Admitted, d.Reason)
	}
	if cl.Utilization() != 0 {
		t.Fatal("rejected task left commitments in the ledger")
	}
}

func TestEFTRejectsImpossible(t *testing.T) {
	cl := testCluster(t, 1)
	tk := testTask(0)
	tk.Work = 10000
	d := NewEFT().Offer(envFor(t, tk, cl, nil))
	if d.Admitted || d.Reason != schedule.ReasonNoSchedule {
		t.Fatalf("admitted=%v reason=%q", d.Admitted, d.Reason)
	}
}

func TestNTMExclusivity(t *testing.T) {
	cl := testCluster(t, 1)
	ntm := NewNTM(1)
	d1 := ntm.Offer(envFor(t, testTask(0), cl, nil))
	if !d1.Admitted {
		t.Fatalf("first NTM task rejected: %s", d1.Reason)
	}
	d2 := ntm.Offer(envFor(t, testTask(1), cl, nil))
	if d2.Admitted {
		// Allowed only if it shares no slot with task 0.
		used := map[int]bool{}
		for _, p := range d1.Schedule.Placements {
			used[p.Slot] = true
		}
		for _, p := range d2.Schedule.Placements {
			if used[p.Slot] {
				t.Fatal("NTM co-located two tasks on one node-slot")
			}
		}
	}
	// The single node must never host two tasks in any slot.
	for tt := 0; tt < 24; tt++ {
		if cl.TasksOn(0, tt) > 1 {
			t.Fatalf("NTM ledger shows %d tasks at slot %d", cl.TasksOn(0, tt), tt)
		}
	}
}

func TestNTMUnderperformsEFTUnderContention(t *testing.T) {
	// With many concurrent tasks on few nodes, no-merging must admit
	// (weakly) fewer tasks — the multi-LoRA sharing advantage.
	run := func(s interface {
		Offer(*schedule.TaskEnv) schedule.Decision
	}) int {
		cl := testCluster(t, 2)
		admitted := 0
		for i := 0; i < 12; i++ {
			if d := s.Offer(envFor(t, testTask(i), cl, nil)); d.Admitted {
				admitted++
			}
		}
		return admitted
	}
	eft, ntm := run(NewEFT()), run(NewNTM(1))
	if ntm > eft {
		t.Fatalf("NTM admitted %d > EFT %d under contention", ntm, eft)
	}
	if ntm == 0 {
		t.Fatal("NTM admitted nothing at all")
	}
}

func TestTitanBatchAdmitsProfitableTasks(t *testing.T) {
	cl := testCluster(t, 2)
	titan := NewTitan(TitanOptions{Seed: 1})
	envs := []*schedule.TaskEnv{
		envFor(t, testTask(0), cl, nil),
		envFor(t, testTask(1), cl, nil),
		envFor(t, testTask(2), cl, nil),
	}
	ds := titan.BatchOffer(envs)
	admitted := 0
	for i, d := range ds {
		if d.Admitted {
			admitted++
			if err := d.Schedule.Validate(envs[i]); err != nil {
				t.Fatalf("titan plan %d invalid: %v", i, err)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("Titan admitted nothing on an empty cluster")
	}
	// Ledger consistent with decisions.
	total := 0
	for _, d := range ds {
		if d.Admitted {
			total += len(d.Schedule.Placements)
		}
	}
	got := 0
	for k := 0; k < 2; k++ {
		for tt := 0; tt < 24; tt++ {
			got += cl.TasksOn(k, tt)
		}
	}
	if got != total {
		t.Fatalf("ledger has %d task-slots, decisions say %d", got, total)
	}
}

func TestTitanRespectsExistingLoad(t *testing.T) {
	cl := testCluster(t, 1)
	// Fill slots 1..12 almost completely.
	for tt := 1; tt <= 12; tt++ {
		cl.Commit(0, tt, 80, 70)
	}
	titan := NewTitan(TitanOptions{Seed: 2})
	d := titan.Offer(envFor(t, testTask(0), cl, nil))
	if d.Admitted {
		t.Fatal("Titan overcommitted a nearly full node")
	}
	for tt := 1; tt <= 12; tt++ {
		if cl.UsedWork(0, tt) > 86 {
			t.Fatalf("capacity exceeded at slot %d", tt)
		}
	}
}

func TestTitanPrepTaskDelaysExecution(t *testing.T) {
	cl := testCluster(t, 2)
	mkt, err := vendor.Standard(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	titan := NewTitan(TitanOptions{Seed: 3})
	tk := testTask(0)
	tk.NeedsPrep = true
	env := envFor(t, tk, cl, mkt)
	d := titan.Offer(env)
	if !d.Admitted {
		t.Skipf("titan rejected prep task (random vendor may be too slow): %s", d.Reason)
	}
	if err := d.Schedule.Validate(env); err != nil {
		t.Fatalf("titan prep plan invalid: %v", err)
	}
}

// TestTitanGroupsByNodeClass runs Titan on two A100 nodes that differ
// only in memory. Node 0 cannot hold the task next to the base model and
// node 1 can, so they are two classes. Grouped by GPU name instead, both
// nodes form one pool priced by node 0's zero speed, and the task is
// refused.
func TestTitanGroupsByNodeClass(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Horizon: timeslot.NewHorizon(24), BaseModelGB: 2, Price: gpu.FlatPrice(1)},
		[]cluster.Node{{Spec: gpu.A100, CapWork: 86, CapMemGB: 24}, {Spec: gpu.A100, CapWork: 86, CapMemGB: 80}})
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumClasses() != 2 {
		t.Fatalf("%d node classes, want 2", cl.NumClasses())
	}
	tk := testTask(0)
	tk.MemGB = 30
	env := envFor(t, tk, cl, nil)
	if env.Speed[0] != 0 || env.Speed[1] <= 0 {
		t.Fatalf("speeds %v, want 0 on the small node only", env.Speed)
	}
	d := NewTitan(TitanOptions{Seed: 1, GroupByType: true}).Offer(env)
	if !d.Admitted {
		t.Fatalf("Titan refused a task the large node can run: %s", d.Reason)
	}
	if err := d.Schedule.Validate(env); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Schedule.Placements {
		if p.Node != 1 {
			t.Fatalf("placement %+v on the node that cannot hold the task", p)
		}
	}
}

func TestTitanEmptyBatch(t *testing.T) {
	titan := NewTitan(TitanOptions{})
	if ds := titan.BatchOffer(nil); len(ds) != 0 {
		t.Fatal("empty batch should return no decisions")
	}
}

func TestVendorPolicies(t *testing.T) {
	cl := testCluster(t, 2)
	mkt, err := vendor.Standard(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	tk := testTask(0)
	tk.NeedsPrep = true
	env := envFor(t, tk, cl, mkt)

	cheap := NewGreedy("cheap", CheapestVendor, false, 1)
	d := cheap.Offer(env)
	if !d.Admitted {
		t.Fatalf("cheapest-vendor greedy rejected: %s", d.Reason)
	}
	minPrice := env.Quotes[0].Price
	for _, q := range env.Quotes {
		if q.Price < minPrice {
			minPrice = q.Price
		}
	}
	if d.Schedule.VendorPrice != minPrice {
		t.Fatalf("cheapest policy chose %v, min is %v", d.Schedule.VendorPrice, minPrice)
	}
}

func TestGreedyNames(t *testing.T) {
	if NewEFT().Name() != "EFT" || NewNTM(1).Name() != "NTM" || NewTitan(TitanOptions{}).Name() != "Titan" {
		t.Fatal("scheduler names wrong")
	}
}
