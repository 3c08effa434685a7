package benchsuite

import (
	"testing"

	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/spot"
)

// The spot benchmarks track the elastic-capacity tier added for the
// spot market: SpotAdvance is the per-slot market step sim.Engine runs
// at every slot close (quote the market, reclaim, release, rent,
// charge), and SpotTraceGen is the seeded price-walk generation a
// provider boots from.

// spotDuals stands in for the live scheduler: a flat positive λ keeps
// the provider on its rent-and-charge path every slot, which is the
// per-slot cost the benchmark tracks (a fresh scheduler's duals are
// zero, which would starve the rental branch entirely).
type spotDuals struct{}

func (spotDuals) Name() string                                  { return "bench-duals" }
func (spotDuals) Offer(env *schedule.TaskEnv) schedule.Decision { return schedule.Decision{} }
func (spotDuals) Lambda(k, t int) float64                       { return 5 }

// spotProvider wires a provider over the last bench-cluster node with a
// generous budget so the rent path — not budget exhaustion — dominates.
func spotProvider(b *testing.B, reclaimProb float64) (*spot.Provider, sim.Scheduler, *sim.FailureTracker) {
	b.Helper()
	cl := servingStacks(b, 1)[0].Cluster
	elastic := cl.NumNodes() - 1
	tr, err := spot.GenerateTrace(spot.TraceConfig{
		Seed:        7,
		Slots:       servingSlots,
		Nodes:       []int{elastic},
		BasePrice:   spot.ReferencePrice(cl) * 0.4,
		ReclaimProb: reclaimProb,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := spot.New(spot.Options{Trace: tr, Nodes: []int{elastic}, Budget: 1e12})
	if err != nil {
		b.Fatal(err)
	}
	ft := sim.NewEmptyFailureTracker(cl)
	if err := p.Bind(cl, ft); err != nil {
		b.Fatal(err)
	}
	return p, spotDuals{}, ft
}

// SpotAdvance measures one provider slot-step against live duals. One op
// is one slot of market activity; the provider rewinds (cursor reset,
// leases dropped) each time the trace is consumed.
func SpotAdvance(b *testing.B) {
	p, sched, _ := spotProvider(b, 0.05)
	res := sim.NewResult("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % servingSlots
		if s == 0 && i > 0 {
			b.StopTimer()
			if err := p.RestoreState(nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		p.AdvanceTo(s, sched, res)
	}
	if res.SpotLeasedSlots == 0 {
		b.Fatal("provider never rented; the benchmark is vacuous")
	}
}

// SpotTraceGen measures seeded market generation for a full horizon.
func SpotTraceGen(b *testing.B) {
	cl := servingStacks(b, 1)[0].Cluster
	cfg := spot.TraceConfig{
		Seed:        7,
		Slots:       servingSlots,
		Nodes:       []int{cl.NumNodes() - 1},
		BasePrice:   spot.ReferencePrice(cl) * 0.4,
		ReclaimProb: 0.05,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spot.GenerateTrace(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
