package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// bruteForceCost solves problem (12) by exhaustive enumeration: every slot
// in the execution window either idles or runs on one node, and a plan is
// feasible when the accumulated work reaches W. It returns the minimum
// price-adjusted cost Σ Δ_kt over feasible plans.
func bruteForceCost(s *Scheduler, env *schedule.TaskEnv, q vendor.Quote) (float64, bool) {
	t := env.Task
	window := t.ExecWindow(s.cl.Horizon(), q.DelaySlots)
	L := window.Len()
	W := t.Work
	K := len(env.Speed)
	best, found := math.Inf(1), false
	// choice[tau] in 0..K: 0 = idle, j>0 = run on node j-1.
	choice := make([]int, L)
	for {
		cost, work := 0.0, 0
		valid := true
		for tau := 0; tau < L; tau++ {
			j := choice[tau]
			if j == 0 {
				continue
			}
			k := j - 1
			sk := env.Speed[k]
			if sk <= 0 {
				valid = false
				break
			}
			slot := window.Start + tau
			cost += float64(sk)*s.lambda[k][slot] +
				t.MemGB*s.phi[k][slot] +
				s.cl.EnergyCost(k, slot, sk)
			work += sk
		}
		if valid && work >= int(W) && cost < best {
			best, found = cost, true
		}
		// Advance the mixed-radix counter.
		tau := 0
		for ; tau < L; tau++ {
			choice[tau]++
			if choice[tau] <= K {
				break
			}
			choice[tau] = 0
		}
		if tau == L {
			break
		}
	}
	return best, found
}

// TestFindScheduleMatchesBruteForce differentially checks the Algorithm-2
// DP against exhaustive enumeration on small random instances: ≤3 nodes,
// ≤6-slot windows, heterogeneous speeds including zero-speed nodes,
// work saturation (per-slot speed overshooting W), random positive duals,
// and vendor delays that shrink or empty the window.
func TestFindScheduleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cl := testCluster(t, 3)
	s := newScheduler(t, cl, testOptions())
	candidates := []int{0, 1, 2}

	for trial := 0; trial < 400; trial++ {
		// Random shadow prices (duals are always non-negative).
		for k := range s.lambda {
			for tt := range s.lambda[k] {
				s.lambda[k][tt] = rng.Float64() * 2
				s.phi[k][tt] = rng.Float64() * 0.4
			}
		}
		arrival := rng.Intn(4)
		winLen := rng.Intn(6) + 1
		tk := &task.Task{
			ID: trial, Arrival: int32(arrival), Deadline: int32(arrival + winLen - 1),
			Work: int32(rng.Intn(10) + 1), MemGB: 5, Batch: 16, Bid: 50,
		}
		speeds := make([]int, 3)
		for k := range speeds {
			speeds[k] = rng.Intn(4) // 0 = task cannot run there
		}
		env := &schedule.TaskEnv{Task: tk, Cluster: cl, Speed: speeds}
		// Delays up to winLen+1 cover shrunken and empty windows.
		q := vendor.Quote{Vendor: 0, Price: 1, DelaySlots: rng.Intn(winLen + 2)}

		plan, ok := s.findSchedule(env, q, candidates)
		want, wantOK := bruteForceCost(s, env, q)
		if ok != wantOK {
			t.Fatalf("trial %d: DP feasible=%v, brute force=%v (W=%d speeds=%v win=%v delay=%d)",
				trial, ok, wantOK, tk.Work, speeds, tk.ExecWindow(cl.Horizon(), q.DelaySlots), q.DelaySlots)
		}
		if !ok {
			continue
		}
		got := s.planCost(env, &plan)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: DP cost %v != brute-force optimum %v (W=%d speeds=%v)",
				trial, got, want, tk.Work, speeds)
		}
		// The plan itself must be consistent: inside the window, on
		// runnable nodes, and accumulating enough work.
		window := tk.ExecWindow(cl.Horizon(), q.DelaySlots)
		work := 0
		for _, p := range plan.Placements {
			if p.Slot < window.Start || p.Slot > window.End {
				t.Fatalf("trial %d: placement slot %d outside window %v", trial, p.Slot, window)
			}
			if speeds[p.Node] <= 0 {
				t.Fatalf("trial %d: placed on zero-speed node %d", trial, p.Node)
			}
			work += speeds[p.Node]
		}
		if work < int(tk.Work) {
			t.Fatalf("trial %d: plan accumulates %d of %d work units", trial, work, tk.Work)
		}
	}
}

// TestDecisionDualsUpdated pins the Lemma-1 bookkeeping: admitted bids and
// capacity rejections moved the duals; surplus rejections never reached
// the update step.
func TestDecisionDualsUpdated(t *testing.T) {
	// Admission updates duals.
	cl := testCluster(t, 2)
	s := newScheduler(t, cl, testOptions())
	d := s.Offer(envFor(t, testTask(0), cl, nil))
	if !d.Admitted || !d.DualsUpdated {
		t.Fatalf("admitted bid should report DualsUpdated, got admitted=%v updated=%v", d.Admitted, d.DualsUpdated)
	}

	// Capacity rejection (full cluster, zero duals): duals still move.
	cl = testCluster(t, 1)
	for tt := 0; tt < 24; tt++ {
		cl.Commit(0, tt, 86, 70)
	}
	s = newScheduler(t, cl, testOptions())
	d = s.Offer(envFor(t, testTask(1), cl, nil))
	if d.Admitted || d.Reason != schedule.ReasonCapacity {
		t.Fatalf("setup: want capacity rejection, got admitted=%v reason=%q", d.Admitted, d.Reason)
	}
	if !d.DualsUpdated {
		t.Fatal("capacity rejection (Lemma 1) should report DualsUpdated")
	}

	// Surplus rejection: a worthless bid never updates duals.
	cl = testCluster(t, 2)
	s = newScheduler(t, cl, testOptions())
	tk := testTask(2)
	tk.Bid, tk.TrueValue = 0.001, 0.001
	d = s.Offer(envFor(t, tk, cl, nil))
	if d.Admitted || d.Reason != schedule.ReasonSurplus {
		t.Fatalf("setup: want surplus rejection, got admitted=%v reason=%q", d.Admitted, d.Reason)
	}
	if d.DualsUpdated {
		t.Fatal("surplus rejection must not report DualsUpdated")
	}
}
