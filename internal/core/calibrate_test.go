package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// testModel returns the shared model used by core tests.
func testModel() lora.ModelConfig { return lora.GPT2Small() }

func TestCalibrateDualsBasics(t *testing.T) {
	cl := testCluster(t, 2)
	mkt, err := vendor.Standard(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	tasks := []task.Task{
		*testTask(0),
		*testTask(1),
	}
	tasks[1].Bid = 200
	tasks[1].Work = 20
	tasks[1].NeedsPrep = true
	opts := CalibrateDuals(tasks, testModel(), cl, mkt)
	if err := opts.Validate(); err != nil {
		t.Fatalf("calibrated options invalid: %v", err)
	}
	// Raising the top bid raises alpha.
	tasks[1].Bid = 400
	opts2 := CalibrateDuals(tasks, testModel(), cl, mkt)
	if opts2.Alpha <= opts.Alpha {
		t.Fatalf("alpha did not grow with the top bid: %v vs %v", opts2.Alpha, opts.Alpha)
	}
}

func TestCalibrateDualsAllNegativeStaysPositive(t *testing.T) {
	cl := testCluster(t, 1)
	tk := *testTask(0)
	tk.Bid = 0.0001 // net value negative for every task
	opts := CalibrateDuals([]task.Task{tk}, testModel(), cl, nil)
	if opts.Alpha <= 0 || opts.Beta <= 0 {
		t.Fatalf("degenerate workload must still give positive coefficients: %+v", opts)
	}
	if _, err := New(cl, opts); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateDualsEmptyWorkload(t *testing.T) {
	cl := testCluster(t, 1)
	opts := CalibrateDuals(nil, testModel(), cl, nil)
	if err := opts.Validate(); err != nil {
		t.Fatalf("empty workload calibration invalid: %v", err)
	}
}

// referenceCalibrate is CalibrateDuals as it stood before it pruned: every
// prep task's quotes derived, nothing skipped early. It is the oracle the
// pruned loop must equal to the last bit.
func referenceCalibrate(tasks []task.Task, model lora.ModelConfig, cl *cluster.Cluster, mkt *vendor.Marketplace) Options {
	const floor = 1e-6
	h := cl.Horizon()
	meanUnit := 0.0
	cells := 0
	for k := 0; k < cl.NumNodes(); k++ {
		for t := 0; t < h.T; t++ {
			meanUnit += cl.UnitEnergyCost(k, t)
			cells++
		}
	}
	if cells > 0 {
		meanUnit /= float64(cells)
	}
	speeds := map[int]int{}
	fastest := func(batch int) int {
		if s, ok := speeds[batch]; ok {
			return s
		}
		best := 1
		for k := 0; k < cl.NumNodes(); k++ {
			if s := lora.TaskUnitsPerSlot(model, cl.Node(k).Spec, batch, h); s > best {
				best = s
			}
		}
		speeds[batch] = best
		return best
	}
	alpha, beta := floor, floor
	var quoteBuf [16]vendor.Quote
	for i := range tasks {
		t := &tasks[i]
		net := t.Bid - meanUnit*float64(t.Work)
		if t.NeedsPrep && mkt != nil {
			cheapest := -1.0
			for _, q := range mkt.AppendQuotes(quoteBuf[:0], t.ID) {
				if cheapest < 0 || q.Price < cheapest {
					cheapest = q.Price
				}
			}
			if cheapest > 0 {
				net -= cheapest
			}
		}
		if net <= 0 {
			continue
		}
		if a := net / float64(t.Work); a > alpha {
			alpha = a
		}
		minSlots := (int(t.Work) + fastest(int(t.Batch)) - 1) / fastest(int(t.Batch))
		if minSlots < 1 {
			minSlots = 1
		}
		if b := net / (t.MemGB * float64(minSlots)); b > beta {
			beta = b
		}
	}
	return Options{Alpha: alpha, Beta: beta}
}

// hybridCluster is half A100s, half A40s on a one-day horizon, the shape
// every serving binary and benchmark workload calibrates against.
func hybridCluster(t *testing.T, a100, a40 int) *cluster.Cluster {
	t.Helper()
	model, h := testModel(), timeslot.Day()
	nodes := cluster.Uniform(a100, gpu.A100, lora.NodeCapUnits(model, gpu.A100, h), gpu.A100.MemGB)
	nodes = append(nodes, cluster.Uniform(a40, gpu.A40, lora.NodeCapUnits(model, gpu.A40, h), gpu.A40.MemGB)...)
	cl, err := cluster.New(cluster.Config{Horizon: h, BaseModelGB: lora.BaseMemoryGB(model)}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestCalibrateDualsMatchesReference holds the pruned loop to the
// unpruned one bit for bit: over generated workloads spanning the arrival
// kinds, deadline policies, PrepProb 0/0.5/1, a multi-model mix, the
// reject-flood rate and seeds 1/7/42, on three cluster shapes, with and
// without a marketplace; and over hand-built orders where the pruning
// bound is least slack.
func TestCalibrateDualsMatchesReference(t *testing.T) {
	workloads := map[string][]task.Task{}
	gen := func(name string, mut func(*trace.Config)) {
		cfg := trace.DefaultConfig()
		cfg.RatePerSlot = 6
		mut(&cfg)
		tasks, err := trace.Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		workloads[name] = tasks
	}
	seeds := []int64{1, 7, 42}
	preps := []float64{0.5, 0, 1}
	i := 0
	for _, kind := range []trace.ArrivalKind{trace.Poisson, trace.MLaaSLike, trace.PhillyLike, trace.HeliosLike} {
		for _, pol := range []trace.DeadlinePolicy{trace.TightDeadlines, trace.MediumDeadlines, trace.SlackDeadlines} {
			seed, prep := seeds[i%3], preps[(i/3)%3]
			gen(fmt.Sprintf("%v/%v/seed%d/prep%v", kind, pol, seed, prep), func(c *trace.Config) {
				c.Arrivals, c.Deadlines, c.Seed, c.PrepProb = kind, pol, seed, prep
			})
			i++
		}
	}
	gen("rate625", func(c *trace.Config) { c.RatePerSlot = 625 })
	gen("multi-model", func(c *trace.Config) {
		c.Seed = 7
		c.Models = []trace.ModelShare{{Model: lora.GPT2Small(), Weight: 3}, {Model: lora.GPT2Medium(), Weight: 1}}
	})
	gen("cutoff50/values", func(c *trace.Config) {
		c.ArrivalCutoff, c.Seed, c.ValuePerUnitMin, c.ValuePerUnitMax = 50, 42, 0.2, 3
	})

	// Adversarial orders. The maxima are set by the very last task; by a
	// prep task whose quote decides whether it beats the leader (its
	// quote-free density is above the leader's, its quoted one may not
	// be); and by a prep task the quote takes below zero.
	base := *testTask(0)
	last := []task.Task{base, base, base}
	for i := range last {
		last[i].ID = i
	}
	last[2].Bid = 500
	workloads["max-reached-last"] = last
	var quoted []task.Task
	for id := 0; id < 64; id++ {
		tk := base
		tk.ID = id
		if id%2 == 1 {
			// 0–6 money units above the leader before the quote; vendor
			// prices are of that order, so some ids land either side.
			tk.NeedsPrep = true
			tk.Bid = base.Bid + float64(id%7)
		}
		quoted = append(quoted, tk)
	}
	workloads["quote-decides"] = quoted
	sunk := base
	sunk.ID, sunk.NeedsPrep, sunk.Work, sunk.Bid = 1, true, 1, 2
	workloads["quote-sinks-net"] = []task.Task{base, sunk, base}
	// Speeds by batch: more distinct batches than the menu's four (and
	// than the eight the speed cache once held), and batches outside the
	// speed table (64 and up, zero, negative) on its per-task path, each
	// seen twice. Density grows with the index, so later tasks keep
	// setting new maxima and the last of them, batch 4096, sets β through
	// its speed. Alone, a task whose Work is MaxInt32 sets both.
	var batches []task.Task
	sizes := []int16{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 32, 63, 0, -3, 64, 100, 4096}
	for i := 0; i < 2*len(sizes); i++ {
		tk := base
		tk.ID, tk.Batch = i, sizes[i%len(sizes)]
		tk.Work = int32(20 + 37*i%400)
		tk.Bid = float64(tk.Work) * (1.1 + 0.1*float64(i))
		tk.NeedsPrep = i%3 == 0
		batches = append(batches, tk)
	}
	workloads["batch-sizes"] = batches
	huge := base
	huge.Work, huge.Bid = math.MaxInt32, 1e10
	workloads["work-maxint32"] = []task.Task{huge}

	mkt, err := vendor.Standard(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	clusters := map[string]*cluster.Cluster{
		"hybrid-4":   hybridCluster(t, 2, 2),
		"hybrid-128": hybridCluster(t, 64, 64),
		"a100-10":    hybridCluster(t, 10, 0),
	}
	for wname, tasks := range workloads {
		for cname, cl := range clusters {
			for mname, m := range map[string]*vendor.Marketplace{"market": mkt, "no-market": nil} {
				got := CalibrateDuals(tasks, testModel(), cl, m)
				want := referenceCalibrate(tasks, testModel(), cl, m)
				if math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) ||
					math.Float64bits(got.Beta) != math.Float64bits(want.Beta) {
					t.Errorf("%s on %s, %s: α, β = %v, %v; reference %v, %v",
						wname, cname, mname, got.Alpha, got.Beta, want.Alpha, want.Beta)
				}
			}
		}
	}
}

// TestCalibrateDualsRefusesUnpriceable: pdftsp.Calibrate is public and
// takes caller-built tasks, so a task with no work or no memory (which
// Task.Validate refuses) must not turn α or β into +Inf, and options that
// are non-finite by any other route must not validate.
func TestCalibrateDualsRefusesUnpriceable(t *testing.T) {
	cl := testCluster(t, 1)
	noWork, noMem := *testTask(1), *testTask(2)
	noWork.Work = 0
	noMem.MemGB = 0
	want := CalibrateDuals([]task.Task{*testTask(0)}, testModel(), cl, nil)
	for _, c := range []struct {
		name  string
		tasks []task.Task
	}{
		{"zero work", []task.Task{*testTask(0), noWork}},
		{"zero memory", []task.Task{*testTask(0), noMem}},
		{"both, first", []task.Task{noWork, noMem, *testTask(0)}},
	} {
		got := CalibrateDuals(c.tasks, testModel(), cl, nil)
		if got != want {
			t.Errorf("%s: α, β = %v, %v, want the valid task's %v, %v", c.name, got.Alpha, got.Beta, want.Alpha, want.Beta)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, o := range []Options{
		{Alpha: inf, Beta: 1}, {Alpha: 1, Beta: inf},
		{Alpha: nan, Beta: 1}, {Alpha: 1, Beta: nan},
		{Alpha: -inf, Beta: 1},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("options %+v validated", o)
		}
		if _, err := New(cl, o); err == nil {
			t.Errorf("scheduler built on options %+v", o)
		}
	}
}

func TestSchedulerAccessors(t *testing.T) {
	cl := testCluster(t, 1)
	s := newScheduler(t, cl, testOptions())
	if s.Name() != "pdFTSP" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.Options().Alpha != testOptions().Alpha {
		t.Fatal("Options accessor wrong")
	}
	if s.Cluster() != cl {
		t.Fatal("Cluster accessor wrong")
	}
	ad, err := NewAdaptive(cl, Options{}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Name() != "pdFTSP-adaptive" || ad.inner == nil {
		t.Fatal("adaptive accessors wrong")
	}
}
