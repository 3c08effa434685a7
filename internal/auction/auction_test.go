package auction

import (
	"testing"

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

func testScenario(t *testing.T) *Scenario {
	t.Helper()
	model := lora.GPT2Small()
	h := timeslot.NewHorizon(36)
	mkt, err := vendor.Standard(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.DefaultConfig()
	tc.Horizon = h
	// Contention without lockout: demand ≈ 70% of the two nodes'
	// capacity, so prices are non-trivial but capacity still exists.
	tc.RatePerSlot = 1.5
	tc.Seed = 17
	background, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	makeCluster := func() (*cluster.Cluster, error) {
		return cluster.New(cluster.Config{
			Horizon:     h,
			BaseModelGB: lora.BaseMemoryGB(model),
		}, cluster.Uniform(2, gpu.A100, lora.NodeCapUnits(model, gpu.A100, h), gpu.A100.MemGB))
	}
	cl0, err := makeCluster()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.CalibrateDuals(background, model, cl0, mkt)
	// Route around committed load so the focal bid's outcome depends on
	// prices (the property under test), not on incidental full cells.
	opts.MaskFullCells = true
	focal := task.Task{
		ID: 100000, Arrival: 20, Deadline: 30, Work: 30, MemGB: 5, Batch: 16, Bid: 60,
	}
	return &Scenario{
		MakeCluster: makeCluster,
		MakeScheduler: func(cl *cluster.Cluster) (Offerer, error) {
			return core.New(cl, opts)
		},
		Background: background,
		Focal:      focal,
		TrueValue:  focal.Bid,
		Model:      model,
		Market:     mkt,
	}
}

func TestTruthfulnessSweep(t *testing.T) {
	sc := testScenario(t)
	bids := []float64{0, 5, 10, 20, 30, 45, 60, 80, 120, 240}
	points, err := TruthfulnessSweep(sc, bids)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(bids) {
		t.Fatalf("got %d points", len(points))
	}
	// Zero bid must lose; there must be some winning bid; utility is
	// constant across winning bids (payment is bid-independent).
	if points[0].Won {
		t.Fatal("zero bid won")
	}
	var winUtility float64
	won := 0
	for _, pt := range points {
		if pt.Won {
			won++
			winUtility = pt.Utility
		} else if pt.Utility != 0 {
			t.Fatal("losing bid has non-zero utility")
		}
	}
	if won == 0 {
		t.Fatal("no bid won the sweep")
	}
	for _, pt := range points {
		if pt.Won && pt.Utility != winUtility {
			t.Fatalf("winning utilities differ: %v vs %v", pt.Utility, winUtility)
		}
	}
	// Truthful utility is maximal.
	truthful, err := sc.RunFocal(sc.TrueValue)
	if err != nil {
		t.Fatal(err)
	}
	tu := 0.0
	if truthful.Admitted {
		tu = sc.TrueValue - truthful.Payment()
	}
	if err := VerifyTruthful(points, sc.TrueValue, tu, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyTruthfulDetectsViolation(t *testing.T) {
	points := []SweepPoint{{Bid: 10, Won: true, Utility: 5}}
	if err := VerifyTruthful(points, 8, 3, 1e-9); err == nil {
		t.Fatal("violation not detected")
	}
}

func TestRationalityAuditAndVerifyIR(t *testing.T) {
	sc := testScenario(t)
	cl, err := sc.MakeCluster()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sc.MakeScheduler(cl)
	if err != nil {
		t.Fatal(err)
	}
	decisions := make([]schedule.Decision, len(sc.Background))
	for i := range sc.Background {
		env := schedule.NewTaskEnv(&sc.Background[i], cl, sc.Model, sc.Market)
		decisions[i] = sched.Offer(env)
	}
	pairs, err := RationalityAudit(decisions, sc.Background, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no winners audited")
	}
	if len(pairs) > 10 {
		t.Fatalf("sampled %d > 10", len(pairs))
	}
	if err := VerifyIR(pairs, 1e-9); err != nil {
		t.Fatal(err)
	}
	// Sampling more than available returns all winners.
	all, err := RationalityAudit(decisions, sc.Background, 1<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, d := range decisions {
		if d.Admitted {
			want++
		}
	}
	if len(all) != want {
		t.Fatalf("audit of all winners returned %d, want %d", len(all), want)
	}
	// A decision log paired with the wrong task list is an error, not a
	// silent truncation.
	if _, err := RationalityAudit(decisions, sc.Background[:len(sc.Background)-1], 10, 1); err == nil {
		t.Fatal("length mismatch not reported")
	}
}

func TestVerifyIRDetectsViolation(t *testing.T) {
	if err := VerifyIR([]IRPair{{TaskID: 1, Bid: 5, Payment: 6}}, 1e-9); err == nil {
		t.Fatal("IR violation not detected")
	}
}
