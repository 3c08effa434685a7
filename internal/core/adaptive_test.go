package core

import (
	"math/rand"
	"testing"

	"github.com/pdftsp/pdftsp/internal/vendor"
)

func TestAdaptiveLearnsCoefficients(t *testing.T) {
	cl := testCluster(t, 2)
	ad, err := NewAdaptive(cl, Options{}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	a0, b0 := ad.Coefficients()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		tk := testTask(i)
		tk.Bid = 40 + rng.Float64()*100
		ad.Offer(envFor(t, tk, cl, nil))
	}
	a1, b1 := ad.Coefficients()
	if a1 <= a0 || b1 <= b0 {
		t.Fatalf("coefficients did not grow: α %v→%v, β %v→%v", a0, a1, b0, b1)
	}
	if ad.Seen() != 30 {
		t.Fatalf("seen %d, want 30", ad.Seen())
	}
}

func TestAdaptiveEstimatesTrackOracle(t *testing.T) {
	// After seeing the whole workload, the adaptive α should be within
	// the safety factor of the oracle net-density maximum.
	cl := testCluster(t, 2)
	const safety = 1.5
	ad, err := NewAdaptive(cl, Options{}, safety)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	oracleAlpha := 0.0
	for i := 0; i < 50; i++ {
		tk := testTask(i)
		tk.Work = int32(10 + rng.Intn(60))
		tk.Bid = 30 + rng.Float64()*80
		env := envFor(t, tk, cl, nil)
		net := tk.Bid - ad.meanUnitCost*float64(tk.Work)
		if net > 0 && net/float64(tk.Work) > oracleAlpha {
			oracleAlpha = net / float64(tk.Work)
		}
		ad.Offer(env)
	}
	a, _ := ad.Coefficients()
	if a < oracleAlpha || a > safety*oracleAlpha+1e-9 {
		t.Fatalf("adaptive α %v outside [oracle %v, safety·oracle %v]", a, oracleAlpha, safety*oracleAlpha)
	}
}

func TestAdaptiveSafetyClamp(t *testing.T) {
	cl := testCluster(t, 1)
	ad, err := NewAdaptive(cl, Options{}, 0.2) // clamped to 1
	if err != nil {
		t.Fatal(err)
	}
	if ad.safety != 1 {
		t.Fatalf("safety = %v, want 1", ad.safety)
	}
}

func TestAdaptiveIgnoresWelfareNegativeBids(t *testing.T) {
	cl := testCluster(t, 1)
	ad, err := NewAdaptive(cl, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a0, b0 := ad.Coefficients()
	tk := testTask(0)
	tk.Bid = 0.0001 // far below operational cost
	ad.Offer(envFor(t, tk, cl, nil))
	a1, b1 := ad.Coefficients()
	if a1 != a0 || b1 != b0 {
		t.Fatal("negative-net bid moved the estimates")
	}
}

func TestAdaptiveStillIndividuallyRational(t *testing.T) {
	cl := testCluster(t, 2)
	ad, err := NewAdaptive(cl, Options{}, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	mkt, err := vendor.Standard(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 60; i++ {
		tk := testTask(i)
		tk.Arrival = int32(rng.Intn(12))
		tk.Deadline = tk.Arrival + int32(3+rng.Intn(8))
		tk.Bid = 10 + rng.Float64()*150
		tk.NeedsPrep = rng.Intn(2) == 0
		d := ad.Offer(envFor(t, tk, cl, mkt))
		if d.Admitted && d.Payment() > tk.Bid+1e-9 {
			t.Fatalf("task %d pays %v above bid %v under adaptive pricing", i, d.Payment(), tk.Bid)
		}
	}
}

func TestSetCoefficientsIgnoresNonPositive(t *testing.T) {
	cl := testCluster(t, 1)
	s := newScheduler(t, cl, Options{Alpha: 2, Beta: 3})
	s.SetCoefficients(-1, 0)
	if s.opts.Alpha != 2 || s.opts.Beta != 3 {
		t.Fatal("non-positive coefficients should be ignored")
	}
	s.SetCoefficients(5, 7)
	if s.opts.Alpha != 5 || s.opts.Beta != 7 {
		t.Fatal("positive coefficients not applied")
	}
}
