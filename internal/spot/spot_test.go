package spot

import (
	"reflect"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

func spotCluster(t *testing.T, nodes, slots int) *cluster.Cluster {
	t.Helper()
	model := lora.GPT2Small()
	h := timeslot.NewHorizon(slots)
	cl, err := cluster.New(cluster.Config{
		Horizon:     h,
		BaseModelGB: lora.BaseMemoryGB(model),
	}, cluster.Uniform(nodes, gpu.A100, lora.NodeCapUnits(model, gpu.A100, h), gpu.A100.MemGB))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// stubSched publishes a flat λ so the provider's implied-value test is
// controllable from the test: λ × CapWork per node-slot.
type stubSched struct{ lambda float64 }

func (s stubSched) Name() string                                  { return "stub" }
func (s stubSched) Offer(env *schedule.TaskEnv) schedule.Decision { return schedule.Decision{} }
func (s stubSched) Lambda(k, t int) float64                       { return s.lambda }

// flatTrace builds a constant-price trace with explicit reclaims.
func flatTrace(slots int, price float64, reclaims map[int][]int) *Trace {
	tr := &Trace{Prices: make([]float64, slots), Reclaims: make([][]int, slots), Base: price}
	for t := range tr.Prices {
		tr.Prices[t] = price
		tr.Reclaims[t] = reclaims[t]
	}
	return tr
}

// boundProvider wires a provider over the last node of a fresh cluster.
func boundProvider(t *testing.T, cl *cluster.Cluster, opts Options) (*Provider, *sim.FailureTracker) {
	t.Helper()
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ft := sim.NewEmptyFailureTracker(cl)
	if err := p.Bind(cl, ft); err != nil {
		t.Fatal(err)
	}
	return p, ft
}

func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := TraceConfig{Seed: 9, Slots: 48, Nodes: []int{2, 3}, BasePrice: 1.5}
	a, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different traces")
	}
	cfg.Seed = 10
	c, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Prices, c.Prices) {
		t.Fatal("different seeds generated identical price walks")
	}
}

func TestGenerateTraceShape(t *testing.T) {
	cfg := TraceConfig{Seed: 3, Slots: 96, Nodes: []int{1, 4}, BasePrice: 2, ReclaimProb: 0.5}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Prices) != 96 || len(tr.Reclaims) != 96 || tr.Base != 2 {
		t.Fatalf("trace shape: %d prices, %d reclaim slots, base %v", len(tr.Prices), len(tr.Reclaims), tr.Base)
	}
	sawReclaim := false
	for s, price := range tr.Prices {
		if price < cfg.BasePrice/4 {
			t.Fatalf("slot %d price %v under the %v floor", s, price, cfg.BasePrice/4)
		}
		for i, k := range tr.Reclaims[s] {
			sawReclaim = true
			if k != 1 && k != 4 {
				t.Fatalf("slot %d reclaims node %d, not in config", s, k)
			}
			if i > 0 && tr.Reclaims[s][i-1] >= k {
				t.Fatalf("slot %d reclaims not ascending: %v", s, tr.Reclaims[s])
			}
		}
	}
	if !sawReclaim {
		t.Fatal("reclaim prob 0.5 over 96 slots produced no reclaims")
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	if _, err := GenerateTrace(TraceConfig{Slots: 0, BasePrice: 1}); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := GenerateTrace(TraceConfig{Slots: 8, BasePrice: 0}); err == nil {
		t.Fatal("zero base price accepted")
	}
}

func TestReferencePrice(t *testing.T) {
	cl := spotCluster(t, 3, 24)
	ref := ReferencePrice(cl)
	if ref <= 0 {
		t.Fatalf("reference price %v for a live cluster", ref)
	}
	// A100-only fleet on a flat default curve: every (k,t) has the same
	// cost, so the mean equals any single cell.
	want := cl.UnitEnergyCost(0, 0) * float64(cl.Node(0).CapWork)
	if cl.UnitEnergyCost(0, 0) == cl.UnitEnergyCost(0, 12) && ref != want {
		t.Fatalf("uniform fleet reference %v, want %v", ref, want)
	}
}

func TestProviderValidation(t *testing.T) {
	tr := flatTrace(8, 1, nil)
	bad := []Options{
		{Nodes: []int{1}},                          // no trace
		{Trace: tr},                                // no nodes
		{Trace: tr, Nodes: []int{1}, Budget: -1},   // negative budget
		{Trace: tr, Nodes: []int{1}, LeaseLen: -2}, // bad lease length
	}
	for i, opts := range bad {
		if _, err := New(opts); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	p, err := New(Options{Trace: tr, Nodes: []int{1}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	cl := spotCluster(t, 2, 8)
	if err := p.Bind(cl, nil); err == nil {
		t.Fatal("bind without a failure tracker accepted")
	}
	p2, _ := New(Options{Trace: tr, Nodes: []int{9}, Budget: 10})
	if err := p2.Bind(cl, sim.NewEmptyFailureTracker(cl)); err == nil {
		t.Fatal("out-of-range elastic node accepted")
	}
}

// TestProviderRentsAndCharges: with demand (λ) far above a cheap quote
// the provider leases its node, the cluster opens the leased cells, and
// rent moves welfare and SpotSpend in lockstep.
func TestProviderRentsAndCharges(t *testing.T) {
	cl := spotCluster(t, 2, 12)
	tr := flatTrace(12, 0.5, nil)
	p, _ := boundProvider(t, cl, Options{Trace: tr, Nodes: []int{1}, Budget: 100, LeaseLen: 4})
	if cl.Available(1, 3) {
		t.Fatal("elastic node available before any lease")
	}
	res := sim.NewResult("spot-test")
	p.AdvanceTo(0, stubSched{lambda: 10}, res)
	if res.SpotLeases != 1 {
		t.Fatalf("leases %d, want 1", res.SpotLeases)
	}
	if !cl.Available(1, 0) || !cl.Available(1, 3) || cl.Available(1, 4) {
		t.Fatal("lease does not cover exactly [0,3]")
	}
	if res.SpotLeasedSlots != 1 || res.SpotSpend != 0.5 || res.Welfare != -0.5 {
		t.Fatalf("after slot 0: slots=%d spend=%v welfare=%v", res.SpotLeasedSlots, res.SpotSpend, res.Welfare)
	}
	p.AdvanceTo(3, stubSched{lambda: 10}, res)
	if res.SpotSpend != 2 || res.Welfare != -2 || res.SpotLeasedSlots != 4 {
		t.Fatalf("after slot 3: slots=%d spend=%v welfare=%v", res.SpotLeasedSlots, res.SpotSpend, res.Welfare)
	}
	if p.spent != res.SpotSpend {
		t.Fatalf("provider spent %v, result says %v", p.spent, res.SpotSpend)
	}
}

// TestProviderDemandGate: zero duals imply zero marginal welfare — the
// provider must never rent, whatever the price.
func TestProviderDemandGate(t *testing.T) {
	cl := spotCluster(t, 2, 12)
	p, _ := boundProvider(t, cl, Options{Trace: flatTrace(12, 0.01, nil), Nodes: []int{1}, Budget: 100})
	res := sim.NewResult("spot-test")
	p.AdvanceTo(11, stubSched{lambda: 0}, res)
	if res.SpotLeases != 0 || res.SpotSpend != 0 {
		t.Fatalf("rented %d leases with zero demand", res.SpotLeases)
	}
}

// TestProviderSpikeHold: quotes above SpikeHold×Base block new rentals.
func TestProviderSpikeHold(t *testing.T) {
	cl := spotCluster(t, 2, 12)
	tr := flatTrace(12, 1, nil)
	for s := range tr.Prices {
		tr.Prices[s] = 10 // 10× base with default SpikeHold=2
	}
	p, _ := boundProvider(t, cl, Options{Trace: tr, Nodes: []int{1}, Budget: 1000})
	res := sim.NewResult("spot-test")
	p.AdvanceTo(11, stubSched{lambda: 1000}, res)
	if res.SpotLeases != 0 {
		t.Fatalf("rented %d leases during a permanent spike", res.SpotLeases)
	}
}

// TestProviderBudget: a budget below even a single slot's quote blocks
// renting entirely (lease windows clip at the horizon, so anything that
// covers one slot's rent could still buy a tail lease).
func TestProviderBudget(t *testing.T) {
	cl := spotCluster(t, 2, 12)
	p, _ := boundProvider(t, cl, Options{Trace: flatTrace(12, 1, nil), Nodes: []int{1}, Budget: 0.5, LeaseLen: 4})
	res := sim.NewResult("spot-test")
	p.AdvanceTo(11, stubSched{lambda: 100}, res)
	if res.SpotLeases != 0 {
		t.Fatalf("rented %d leases with budget under one projection", res.SpotLeases)
	}
}

// TestProviderReclaim: a market reclaim during a live lease withdraws the
// cells and counts a revocation.
func TestProviderReclaim(t *testing.T) {
	cl := spotCluster(t, 2, 12)
	tr := flatTrace(12, 0.5, map[int][]int{2: {1}})
	p, _ := boundProvider(t, cl, Options{Trace: tr, Nodes: []int{1}, Budget: 100, LeaseLen: 6})
	res := sim.NewResult("spot-test")
	p.AdvanceTo(1, stubSched{lambda: 10}, res)
	if res.SpotLeases != 1 || !cl.Available(1, 4) {
		t.Fatal("lease not established before the reclaim")
	}
	p.AdvanceTo(2, stubSched{lambda: 0}, res)
	if res.SpotRevocations != 1 {
		t.Fatalf("revocations %d, want 1", res.SpotRevocations)
	}
	for s := 2; s <= 5; s++ {
		if cl.Available(1, s) {
			t.Fatalf("slot %d still available after the reclaim", s)
		}
	}
	if cl.Available(1, 1) != true {
		t.Fatal("pre-reclaim leased slot must stay in the ledger's past")
	}
}

// TestProviderPredictiveAvoidsReclaim: a predictive provider truncates
// its lease just short of a known reclaim, so the revocation never fires;
// the oblivious provider walks into it.
func TestProviderPredictiveAvoidsReclaim(t *testing.T) {
	run := func(predictive bool) *sim.Result {
		cl := spotCluster(t, 2, 12)
		tr := flatTrace(12, 0.5, map[int][]int{3: {1}})
		p, _ := boundProvider(t, cl, Options{
			Trace: tr, Nodes: []int{1}, Budget: 100, LeaseLen: 6, Predictive: predictive,
		})
		res := sim.NewResult("spot-test")
		for s := 0; s <= 11; s++ {
			p.AdvanceTo(s, stubSched{lambda: 10}, res)
		}
		return res
	}
	if res := run(false); res.SpotRevocations == 0 {
		t.Fatal("oblivious provider dodged a reclaim it cannot see")
	}
	if res := run(true); res.SpotRevocations != 0 {
		t.Fatalf("predictive provider ate %d revocations it knew about", res.SpotRevocations)
	}
}
