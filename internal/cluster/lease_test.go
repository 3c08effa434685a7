package cluster

import (
	"testing"

	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

func leaseCluster(t *testing.T, nodes, slots int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Horizon:     timeslot.NewHorizon(slots),
		BaseModelGB: 2,
		Price:       gpu.FlatPrice(1),
	}, Uniform(nodes, gpu.A100, 40, 80))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// TestElasticLeaseLifecycle: an elastic node's cells open only under a
// lease, leasing bumps Generation (new capacity appeared), and ending a
// lease withdraws the cells without a bump.
func TestElasticLeaseLifecycle(t *testing.T) {
	cl := leaseCluster(t, 3, 12)
	if cl.IsElastic(1) || !cl.Available(1, 0) {
		t.Fatal("fresh cluster should be all on-demand")
	}
	cl.MarkElastic(1)
	if !cl.IsElastic(1) || cl.IsElastic(0) {
		t.Fatal("MarkElastic scoped wrong")
	}
	for s := 0; s < 12; s++ {
		if cl.Available(1, s) {
			t.Fatalf("unleased elastic slot %d available", s)
		}
		if !cl.Available(0, s) {
			t.Fatalf("on-demand node lost slot %d", s)
		}
	}
	if cl.CanPlace(1, 3, 1, 1) || cl.RemainingWork(1, 3) != 0 || cl.RemainingMem(1, 3) != 0 {
		t.Fatal("unleased elastic cell still places work")
	}

	gen := cl.Generation()
	cl.Lease(1, 2, 20) // clips to [2, 11]
	if cl.Generation() == gen {
		t.Fatal("lease opened capacity without a generation bump")
	}
	if cl.Available(1, 1) || !cl.Available(1, 2) || !cl.Available(1, 11) {
		t.Fatal("lease window wrong")
	}
	if !cl.CanPlace(1, 3, 1, 1) || cl.RemainingWork(1, 3) == 0 {
		t.Fatal("leased elastic cell refuses work")
	}

	gen = cl.Generation()
	cl.EndLease(1, 5, 7)
	if cl.Generation() != gen {
		t.Fatal("ending a lease must not bump the generation")
	}
	for s := 2; s < 12; s++ {
		want := s < 5 || s > 7
		if cl.Available(1, s) != want {
			t.Fatalf("slot %d availability %v after partial withdrawal", s, !want)
		}
	}

	// Lease/EndLease on a non-elastic node are no-ops.
	gen = cl.Generation()
	cl.Lease(0, 0, 5)
	cl.EndLease(0, 0, 5)
	if cl.Generation() != gen || !cl.Available(0, 3) {
		t.Fatal("on-demand node reacted to lease calls")
	}
}

// TestElasticSurvivesReset: elasticity is structural, leases are state.
func TestElasticSurvivesReset(t *testing.T) {
	cl := leaseCluster(t, 2, 8)
	cl.MarkElastic(1)
	cl.Lease(1, 0, 7)
	cl.Reset()
	if !cl.IsElastic(1) {
		t.Fatal("Reset dropped the elastic mark")
	}
	if cl.Available(1, 0) {
		t.Fatal("Reset kept a lease alive")
	}
}

// TestElasticClone: Clone carries both planes and detaches them.
func TestElasticClone(t *testing.T) {
	cl := leaseCluster(t, 2, 8)
	cl.MarkElastic(1)
	cl.Lease(1, 2, 4)
	cp := cl.Clone()
	if !cp.IsElastic(1) || !cp.Available(1, 3) || cp.Available(1, 5) {
		t.Fatal("clone lost lease state")
	}
	cp.EndLease(1, 2, 4)
	if !cl.Available(1, 3) {
		t.Fatal("clone shares the leased plane with its source")
	}
}
