package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pdftsp/pdftsp/internal/vendor"
)

// TestLedgerNeverExceedsCapacityProperty is the central safety invariant:
// whatever bids arrive, Algorithm 1's admitted commitments respect (4f)
// and (4g) on every (node, slot) cell.
func TestLedgerNeverExceedsCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := testCluster(t, 1+rng.Intn(3))
		s, err := New(cl, Options{Alpha: 0.5 + rng.Float64()*5, Beta: 2 + rng.Float64()*50})
		if err != nil {
			return false
		}
		mkt, err := vendor.Standard(1+rng.Intn(3), seed)
		if err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			tk := testTask(i)
			tk.Arrival = int32(rng.Intn(20))
			tk.Deadline = tk.Arrival + int32(rng.Intn(12))
			tk.Work = int32(1 + rng.Intn(120))
			tk.MemGB = 1 + rng.Float64()*30
			tk.Bid = rng.Float64() * 250
			tk.NeedsPrep = rng.Intn(3) == 0
			tk.Batch = []int16{4, 8, 16, 32}[rng.Intn(4)]
			s.Offer(envFor(t, tk, cl, mkt))
		}
		for k := 0; k < cl.NumNodes(); k++ {
			for tt := 0; tt < cl.Horizon().T; tt++ {
				if cl.UsedWork(k, tt) > cl.Node(k).CapWork {
					return false
				}
				if cl.UsedMem(k, tt) > cl.TaskMemCap(k)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAdmittedPlansAlwaysValidProperty: every admitted schedule satisfies
// constraints (4a)-(4e) per schedule.Validate.
func TestAdmittedPlansAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := testCluster(t, 2)
		s, err := New(cl, testOptions())
		if err != nil {
			return false
		}
		mkt, err := vendor.Standard(3, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 25; i++ {
			tk := testTask(i)
			tk.Arrival = int32(rng.Intn(16))
			tk.Deadline = tk.Arrival + int32(1+rng.Intn(8))
			tk.Work = int32(5 + rng.Intn(80))
			tk.NeedsPrep = rng.Intn(2) == 0
			env := envFor(t, tk, cl, mkt)
			d := s.Offer(env)
			if d.Admitted {
				if err := d.Schedule.Validate(env); err != nil {
					t.Logf("invalid admitted plan: %v", err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPaymentNonNegativeAndBoundedProperty: payments are never negative
// and never exceed bids for admitted tasks (individual rationality side).
func TestPaymentNonNegativeAndBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := testCluster(t, 2)
		s, err := New(cl, testOptions())
		if err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			tk := testTask(i)
			tk.Arrival = int32(rng.Intn(16))
			tk.Deadline = tk.Arrival + int32(2+rng.Intn(6))
			tk.Bid = rng.Float64() * 200
			d := s.Offer(envFor(t, tk, cl, nil))
			if d.Payment() < 0 {
				return false
			}
			if d.Admitted && d.Payment() > tk.Bid+1e-9 {
				return false
			}
			if !d.Admitted && d.Payment() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSurplusMatchesDefinition recomputes F(il) from the returned plan and
// the pre-offer dual prices.
func TestSurplusMatchesDefinition(t *testing.T) {
	cl := testCluster(t, 2)
	s := newScheduler(t, cl, testOptions())
	// Load the system so prices are non-zero.
	for i := 0; i < 5; i++ {
		s.Offer(envFor(t, testTask(i), cl, nil))
	}
	tk := testTask(99)
	env := envFor(t, tk, cl, nil)
	// Snapshot prices before the offer.
	K, T := cl.NumNodes(), cl.Horizon().T
	lam := make([][]float64, K)
	phi := make([][]float64, K)
	for k := 0; k < K; k++ {
		lam[k] = make([]float64, T)
		phi[k] = make([]float64, T)
		for tt := 0; tt < T; tt++ {
			lam[k][tt], phi[k][tt] = s.Lambda(k, tt), s.phi[k][tt]
		}
	}
	d := s.Offer(env)
	if d.Schedule == nil {
		t.Fatal("no plan returned")
	}
	maxL, maxP := 0.0, 0.0
	for _, p := range d.Schedule.Placements {
		if lam[p.Node][p.Slot] > maxL {
			maxL = lam[p.Node][p.Slot]
		}
		if phi[p.Node][p.Slot] > maxP {
			maxP = phi[p.Node][p.Slot]
		}
	}
	want := d.Schedule.WelfareIncrement(env) -
		maxL*float64(d.Schedule.TotalWork(env)) -
		maxP*d.Schedule.TotalMem(env)
	if diff := d.F - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("F = %v, recomputed %v", d.F, want)
	}
	// And the payment (14) from the same snapshot.
	if d.Admitted {
		wantPay := d.Schedule.VendorPrice +
			maxL*float64(d.Schedule.TotalWork(env)) +
			maxP*d.Schedule.TotalMem(env)
		if diff := d.Payment() - wantPay; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("payment = %v, recomputed %v", d.Payment(), wantPay)
		}
	}
}
