package core

import (
	"math"
	"math/rand"
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

func testOptions() Options { return Options{Alpha: 3.5, Beta: 60} }

func newScheduler(t *testing.T, cl *cluster.Cluster, opts Options) *Scheduler {
	t.Helper()
	s, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testTask(id int) *task.Task {
	return &task.Task{
		ID: id, Arrival: 1, Deadline: 12, Work: 30, MemGB: 5, Batch: 16, Bid: 70,
	}
}

func envFor(t *testing.T, tk *task.Task, cl *cluster.Cluster, mkt *vendor.Marketplace) *schedule.TaskEnv {
	t.Helper()
	return schedule.NewTaskEnv(tk, cl, lora.GPT2Small(), mkt)
}

func TestNewValidatesOptions(t *testing.T) {
	cl := testCluster(t, 1)
	if _, err := New(cl, Options{Alpha: 0, Beta: 1}); err == nil {
		t.Fatal("zero alpha accepted")
	}
	if _, err := New(cl, Options{Alpha: 1, Beta: -1}); err == nil {
		t.Fatal("negative beta accepted")
	}
	if _, err := New(cl, Options{Alpha: 1, Beta: 1, DualRule: DualRule(9)}); err == nil {
		t.Fatal("unknown dual rule accepted")
	}
}

func TestOfferAdmitsProfitableTask(t *testing.T) {
	cl := testCluster(t, 2)
	s := newScheduler(t, cl, testOptions())
	env := envFor(t, testTask(0), cl, nil)
	d := s.Offer(env)
	if !d.Admitted {
		t.Fatalf("profitable task rejected: reason=%s F=%v", d.Reason, d.F)
	}
	if err := d.Schedule.Validate(env); err != nil {
		t.Fatalf("admitted plan invalid: %v", err)
	}
	if d.F <= 0 {
		t.Fatalf("admitted with F = %v", d.F)
	}
	// First task sees zero prices: payment = vendor (0) + 0 + 0.
	if d.Payment() != 0 {
		t.Fatalf("first winner should pay the zero marginal price, got %v", d.Payment())
	}
	if d.EnergyCost() <= 0 {
		t.Fatalf("energy cost %v not positive", d.EnergyCost())
	}
	// The ledger reflects the plan.
	for _, p := range d.Schedule.Placements {
		if cl.UsedWork(p.Node, p.Slot) == 0 {
			t.Fatal("admitted plan not committed to the ledger")
		}
	}
}

func TestOfferRejectsLowBid(t *testing.T) {
	cl := testCluster(t, 1)
	s := newScheduler(t, cl, testOptions())
	tk := testTask(0)
	tk.Bid = 0.001 // below even the energy cost
	d := s.Offer(envFor(t, tk, cl, nil))
	if d.Admitted {
		t.Fatal("unprofitable task admitted")
	}
	if d.Reason != schedule.ReasonSurplus {
		t.Fatalf("reason = %q, want surplus", d.Reason)
	}
	// Rejection without dual update (Algorithm 1, line 13).
	for k := 0; k < cl.NumNodes(); k++ {
		for tt := 0; tt < cl.Horizon().T; tt++ {
			if s.Lambda(k, tt) != 0 || s.Phi(k, tt) != 0 {
				t.Fatal("surplus rejection moved dual prices")
			}
		}
	}
}

func TestOfferRejectsImpossibleDeadline(t *testing.T) {
	cl := testCluster(t, 1)
	s := newScheduler(t, cl, testOptions())
	tk := testTask(0)
	tk.Work = 1000 // cannot finish in 12 slots at ~28 units/slot
	d := s.Offer(envFor(t, tk, cl, nil))
	if d.Admitted || d.Reason != schedule.ReasonNoSchedule {
		t.Fatalf("impossible task: admitted=%v reason=%q", d.Admitted, d.Reason)
	}
}

func TestOfferRejectsPrepTaskWithoutVendors(t *testing.T) {
	cl := testCluster(t, 1)
	s := newScheduler(t, cl, testOptions())
	tk := testTask(0)
	tk.NeedsPrep = true
	d := s.Offer(envFor(t, tk, cl, nil)) // nil marketplace → no quotes
	if d.Admitted || d.Reason != schedule.ReasonNoSchedule {
		t.Fatalf("prep task without vendors: admitted=%v reason=%q", d.Admitted, d.Reason)
	}
}

func TestOfferSelectsVendorAndDelaysExecution(t *testing.T) {
	cl := testCluster(t, 2)
	s := newScheduler(t, cl, testOptions())
	mkt, err := vendor.Standard(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	tk := testTask(0)
	tk.NeedsPrep = true
	env := envFor(t, tk, cl, mkt)
	d := s.Offer(env)
	if !d.Admitted {
		t.Fatalf("prep task rejected: %s", d.Reason)
	}
	if d.Schedule.Vendor == schedule.NoVendor {
		t.Fatal("no vendor selected for prep task")
	}
	if d.VendorCost() != d.Schedule.VendorPrice || d.VendorCost() <= 0 {
		t.Fatalf("vendor cost %v inconsistent with plan price %v", d.VendorCost(), d.Schedule.VendorPrice)
	}
	q := env.Quotes[d.Schedule.Vendor]
	for _, p := range d.Schedule.Placements {
		if p.Slot < int(tk.Arrival)+q.DelaySlots {
			t.Fatal("execution started before pre-processing finished")
		}
	}
	// Winning bid pays at least the vendor price through (14).
	if d.Payment() < d.VendorCost() {
		t.Fatalf("payment %v below vendor cost %v", d.Payment(), d.VendorCost())
	}
}

func TestDualsMonotoneNonDecreasing(t *testing.T) {
	cl := testCluster(t, 2)
	s := newScheduler(t, cl, testOptions())
	rng := rand.New(rand.NewSource(5))
	prevL := make([]float64, cl.NumNodes()*cl.Horizon().T)
	prevP := make([]float64, cl.NumNodes()*cl.Horizon().T)
	for i := 0; i < 30; i++ {
		tk := testTask(i)
		tk.Arrival = int32(rng.Intn(10))
		tk.Deadline = tk.Arrival + int32(4+rng.Intn(8))
		tk.Work = int32(10 + rng.Intn(60))
		tk.Bid = 20 + rng.Float64()*120
		s.Offer(envFor(t, tk, cl, nil))
		idx := 0
		for k := 0; k < cl.NumNodes(); k++ {
			for tt := 0; tt < cl.Horizon().T; tt++ {
				if s.Lambda(k, tt) < prevL[idx] || s.Phi(k, tt) < prevP[idx] {
					t.Fatalf("dual price decreased at (%d,%d) after task %d", k, tt, i)
				}
				prevL[idx], prevP[idx] = s.Lambda(k, tt), s.Phi(k, tt)
				idx++
			}
		}
	}
}

func TestDualsRiseOnlyOnTouchedCells(t *testing.T) {
	cl := testCluster(t, 2)
	s := newScheduler(t, cl, testOptions())
	env := envFor(t, testTask(0), cl, nil)
	d := s.Offer(env)
	if !d.Admitted {
		t.Fatal("setup: task rejected")
	}
	touched := map[[2]int]bool{}
	for _, p := range d.Schedule.Placements {
		touched[[2]int{p.Node, p.Slot}] = true
		if s.Lambda(p.Node, p.Slot) <= 0 || s.Phi(p.Node, p.Slot) <= 0 {
			t.Fatal("touched cell has zero dual price")
		}
	}
	for k := 0; k < cl.NumNodes(); k++ {
		for tt := 0; tt < cl.Horizon().T; tt++ {
			if !touched[[2]int{k, tt}] && (s.Lambda(k, tt) != 0 || s.Phi(k, tt) != 0) {
				t.Fatalf("untouched cell (%d,%d) has non-zero price", k, tt)
			}
		}
	}
}

func TestPaymentIndependentOfBid(t *testing.T) {
	// Theorem 3's mechanism: the payment depends only on consumed
	// resources, never on the winning bid amount.
	run := func(bid float64) (bool, float64) {
		cl := testCluster(t, 2)
		s := newScheduler(t, cl, testOptions())
		// Load the cluster first so prices are non-trivial.
		for i := 0; i < 6; i++ {
			s.Offer(envFor(t, testTask(i), cl, nil))
		}
		tk := testTask(99)
		tk.Bid = bid
		d := s.Offer(envFor(t, tk, cl, nil))
		return d.Admitted, d.Payment()
	}
	ok1, p1 := run(70)
	ok2, p2 := run(300)
	if !ok1 || !ok2 {
		t.Fatal("setup: focal task rejected")
	}
	if math.Abs(p1-p2) > 1e-9 {
		t.Fatalf("payment depends on bid: %v vs %v", p1, p2)
	}
}

func TestLemma2CapacitySaturation(t *testing.T) {
	// Once a (k,t) pair is at or above capacity, the dual price must be
	// high enough that no future task gets scheduled there.
	cl := testCluster(t, 1)
	// Oracle α, β for the workload we are about to submit.
	opts := Options{Alpha: 200.0 / 10.0, Beta: 200.0 / 5.0}
	s := newScheduler(t, cl, opts)
	admitted := 0
	for i := 0; i < 60; i++ {
		tk := testTask(i)
		tk.Arrival = 1
		tk.Deadline = 3 // squeeze everyone into slots 1..3
		tk.Work = 10
		tk.MemGB = 5
		tk.Bid = 200
		d := s.Offer(envFor(t, tk, cl, nil))
		if d.Admitted {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("setup: nothing admitted")
	}
	// The ledger must never exceed capacity (the admission check), and
	// the window must be effectively closed to newcomers now.
	for tt := 1; tt <= 3; tt++ {
		if cl.UsedWork(0, tt) > cl.Node(0).CapWork {
			t.Fatalf("ledger exceeded capacity at slot %d", tt)
		}
	}
	tk := testTask(1000)
	tk.Arrival, tk.Deadline, tk.Work, tk.Bid = 1, 3, 10, 200
	d := s.Offer(envFor(t, tk, cl, nil))
	if d.Admitted {
		t.Fatal("task admitted into a saturated window")
	}
}

func TestMaskFullCellsRoutesAroundLoad(t *testing.T) {
	// Fill node 0 completely at slots 1..12; with masking the DP must
	// place the newcomer on node 1.
	cl := testCluster(t, 2)
	for tt := 1; tt <= 12; tt++ {
		cl.Commit(0, tt, 86, 70)
	}
	s := newScheduler(t, cl, Options{Alpha: 3.5, Beta: 60, MaskFullCells: true})
	d := s.Offer(envFor(t, testTask(0), cl, nil))
	if !d.Admitted {
		t.Fatalf("masked scheduler rejected: %s", d.Reason)
	}
	for _, p := range d.Schedule.Placements {
		if p.Node == 0 {
			t.Fatal("masked DP placed work on a full node")
		}
	}
}

func TestCapacityRejectionStillUpdatesDuals(t *testing.T) {
	// Algorithm 1 updates duals on F>0 even when line 8 rejects: the
	// almost-feasible solution of Lemma 1 includes the task.
	cl := testCluster(t, 1)
	for tt := 0; tt < 24; tt++ {
		cl.Commit(0, tt, 86, 70) // node totally full, duals still zero
	}
	s := newScheduler(t, cl, testOptions())
	d := s.Offer(envFor(t, testTask(0), cl, nil))
	if d.Admitted {
		t.Fatal("task admitted into a full cluster")
	}
	if d.Reason != schedule.ReasonCapacity {
		t.Fatalf("reason = %q, want capacity", d.Reason)
	}
	moved := false
	for tt := 0; tt < 24; tt++ {
		if s.Lambda(0, tt) > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("capacity rejection should still raise dual prices")
	}
}

func TestChargeEnergyMakesFEqualBidMinusPayment(t *testing.T) {
	cl := testCluster(t, 2)
	s := newScheduler(t, cl, Options{Alpha: 3.5, Beta: 60, ChargeEnergy: true})
	tk := testTask(0)
	d := s.Offer(envFor(t, tk, cl, nil))
	if !d.Admitted {
		t.Fatal("setup: rejected")
	}
	if math.Abs(d.F-(tk.Bid-d.Payment())) > 1e-9 {
		t.Fatalf("with ChargeEnergy, F (%v) should equal bid − payment (%v)", d.F, tk.Bid-d.Payment())
	}
}

func TestTruthfulBidMaximizesUtility(t *testing.T) {
	// Sweep the bid around the true valuation; utility(v) must be the max.
	trueValue := 70.0
	utility := func(bid float64) float64 {
		cl := testCluster(t, 2)
		s := newScheduler(t, cl, testOptions())
		for i := 0; i < 8; i++ { // competitive background load
			s.Offer(envFor(t, testTask(i), cl, nil))
		}
		tk := testTask(99)
		tk.Bid = bid
		d := s.Offer(envFor(t, tk, cl, nil))
		if !d.Admitted {
			return 0
		}
		return trueValue - d.Payment()
	}
	truthful := utility(trueValue)
	for _, bid := range []float64{1, 10, 30, 50, 69, 71, 100, 200, 500} {
		if u := utility(bid); u > truthful+1e-9 {
			t.Fatalf("bidding %v yields utility %v > truthful %v", bid, u, truthful)
		}
	}
}

func TestIndividualRationalityOnRandomWorkload(t *testing.T) {
	cl := testCluster(t, 3)
	s := newScheduler(t, cl, testOptions())
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		tk := testTask(i)
		tk.Arrival = int32(rng.Intn(16))
		tk.Deadline = tk.Arrival + int32(2+rng.Intn(8))
		tk.Work = int32(5 + rng.Intn(80))
		tk.Bid = 5 + rng.Float64()*200
		d := s.Offer(envFor(t, tk, cl, nil))
		if d.Admitted && d.Payment() > tk.Bid+1e-9 {
			t.Fatalf("task %d pays %v above its bid %v", i, d.Payment(), tk.Bid)
		}
	}
}

// bruteForceBest enumerates all plans over a tiny window to verify the DP.
func bruteForceBest(env *schedule.TaskEnv, s *Scheduler, window timeslot.Window) (float64, bool) {
	K := env.Cluster.NumNodes()
	L := window.Len()
	best := math.Inf(1)
	found := false
	// Each slot chooses idle (K) or a node (0..K-1): (K+1)^L options.
	total := 1
	for i := 0; i < L; i++ {
		total *= K + 1
	}
	for mask := 0; mask < total; mask++ {
		m := mask
		cost := 0.0
		work := 0
		for i := 0; i < L; i++ {
			choice := m % (K + 1)
			m /= K + 1
			if choice == K {
				continue
			}
			slot := window.Start + i
			sk := env.Speed[choice]
			cost += float64(sk)*s.Lambda(choice, slot) +
				env.Task.MemGB*s.Phi(choice, slot) +
				env.Cluster.EnergyCost(choice, slot, sk)
			work += sk
		}
		if work >= int(env.Task.Work) && cost < best {
			best = cost
			found = true
		}
	}
	return best, found
}

func TestDPOptimalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		cl, err := cluster.New(cluster.Config{
			Horizon:     timeslot.NewHorizon(8),
			BaseModelGB: 2,
			Price:       gpu.DefaultDiurnal(),
		}, cluster.Uniform(2, gpu.A100, 86, 80))
		if err != nil {
			t.Fatal(err)
		}
		s := newScheduler(t, cl, testOptions())
		// Random non-trivial dual prices.
		for k := 0; k < 2; k++ {
			for tt := 0; tt < 8; tt++ {
				s.lambda[k][tt] = rng.Float64() * 2
				s.phi[k][tt] = rng.Float64() * 3
			}
		}
		tk := testTask(trial)
		tk.Arrival = int32(rng.Intn(3))
		tk.Deadline = tk.Arrival + int32(3+rng.Intn(4))
		if tk.Deadline > 7 {
			tk.Deadline = 7
		}
		tk.Work = int32(20 + rng.Intn(60))
		env := envFor(t, tk, cl, nil)
		plan, ok := s.findSchedule(env, vendor.Quote{Vendor: schedule.NoVendor}, s.candidateNodes())
		window := tk.ExecWindow(cl.Horizon(), 0)
		bfCost, bfFound := bruteForceBest(env, s, window)
		if !ok {
			if bfFound {
				t.Fatalf("trial %d: DP found nothing, brute force cost %v", trial, bfCost)
			}
			continue
		}
		if err := plan.Validate(env); err != nil {
			t.Fatalf("trial %d: DP plan invalid: %v", trial, err)
		}
		// DP plan cost under the same Δ model.
		cost := 0.0
		for _, p := range plan.Placements {
			sk := env.Speed[p.Node]
			cost += float64(sk)*s.Lambda(p.Node, p.Slot) +
				tk.MemGB*s.Phi(p.Node, p.Slot) +
				cl.EnergyCost(p.Node, p.Slot, sk)
		}
		if !bfFound {
			t.Fatalf("trial %d: DP found a plan brute force missed", trial)
		}
		if cost > bfCost+1e-9 {
			t.Fatalf("trial %d: DP cost %v worse than brute force %v", trial, cost, bfCost)
		}
	}
}

func TestDualRuleAblationsAllSchedule(t *testing.T) {
	for _, rule := range []DualRule{PaperRule, AdditiveOnly, MultiplicativeOnly} {
		cl := testCluster(t, 2)
		s := newScheduler(t, cl, Options{Alpha: 3.5, Beta: 60, DualRule: rule})
		admitted := 0
		for i := 0; i < 10; i++ {
			if d := s.Offer(envFor(t, testTask(i), cl, nil)); d.Admitted {
				admitted++
			}
		}
		if admitted == 0 {
			t.Errorf("rule %v admitted nothing", rule)
		}
	}
	if PaperRule.String() != "paper" || AdditiveOnly.String() != "additive" ||
		MultiplicativeOnly.String() != "multiplicative" || DualRule(9).String() == "" {
		t.Error("DualRule strings wrong")
	}
}

func TestSchedulerPrefersCheapSlots(t *testing.T) {
	// With a diurnal cost curve and a wide window, the DP should place
	// work on the cheaper slots when prices are otherwise zero.
	cl, err := cluster.New(cluster.Config{
		Horizon:     timeslot.Day(),
		BaseModelGB: 2,
		Price:       gpu.DefaultDiurnal(),
	}, cluster.Uniform(1, gpu.A100, 86, 80))
	if err != nil {
		t.Fatal(err)
	}
	s := newScheduler(t, cl, testOptions())
	tk := testTask(0)
	tk.Arrival, tk.Deadline = 0, 143 // whole day available
	tk.Work = 30
	env := envFor(t, tk, cl, nil)
	d := s.Offer(env)
	if !d.Admitted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	// Mean unit cost of chosen slots must be at most the day's mean.
	mean := 0.0
	for tt := 0; tt < 144; tt++ {
		mean += cl.UnitEnergyCost(0, tt)
	}
	mean /= 144
	chosen := 0.0
	for _, p := range d.Schedule.Placements {
		chosen += cl.UnitEnergyCost(0, p.Slot)
	}
	chosen /= float64(len(d.Schedule.Placements))
	if chosen > mean {
		t.Fatalf("scheduler chose slots costing %v on average, day mean %v", chosen, mean)
	}
}

func TestCandidatePruningDisabledScansAll(t *testing.T) {
	cl := testCluster(t, 4)
	s := newScheduler(t, cl, testOptions())
	if got := len(s.candidateNodes()); got != 4 {
		t.Fatalf("candidates = %d, want all 4 nodes", got)
	}
}
