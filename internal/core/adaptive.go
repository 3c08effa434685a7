package core

import (
	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/schedule"
)

// Adaptive wraps a Scheduler and learns the Lemma-2 coefficients online
// instead of requiring the oracle maxima over the whole workload. This
// addresses the gap the paper leaves open: α = max_i b_i/M_i and
// β = max_i b_i/r_i quantify over *all* tasks, including future ones,
// which an online provider cannot know.
//
// The estimator keeps running maxima of the observed net value densities
// (the same quantities CalibrateDuals computes) multiplied by a safety
// headroom, and refreshes the inner scheduler's coefficients before each
// offer. Because the coefficients only rescale how fast prices grow —
// never the payment rule, which uses realized prices — truthfulness and
// individual rationality are unaffected; only the competitive-ratio
// constant degrades by the estimation error. The ablation benchmarks
// compare adaptive against oracle calibration.
type Adaptive struct {
	inner *Scheduler
	// safety ≥ 1 inflates the running maxima so early underestimates do
	// not let low-value tasks grab capacity too cheaply.
	safety float64
	// meanUnitCost approximates the per-unit operational cost used to
	// net bids (same role as in CalibrateDuals).
	meanUnitCost float64
	alpha, beta  float64
	seen         int
}

// NewAdaptive creates the adaptive wrapper. safety is clamped below at 1.
func NewAdaptive(cl *cluster.Cluster, opts Options, safety float64) (*Adaptive, error) {
	if safety < 1 {
		safety = 1
	}
	if opts.Alpha <= 0 {
		opts.Alpha = 1e-6
	}
	if opts.Beta <= 0 {
		opts.Beta = 1e-6
	}
	inner, err := New(cl, opts)
	if err != nil {
		return nil, err
	}
	mean, cells := 0.0, 0
	h := cl.Horizon()
	for k := 0; k < cl.NumNodes(); k++ {
		for t := 0; t < h.T; t++ {
			mean += cl.UnitEnergyCost(k, t)
			cells++
		}
	}
	if cells > 0 {
		mean /= float64(cells)
	}
	return &Adaptive{
		inner:        inner,
		safety:       safety,
		meanUnitCost: mean,
		alpha:        opts.Alpha,
		beta:         opts.Beta,
	}, nil
}

// Name identifies the scheduler in experiment output.
func (a *Adaptive) Name() string { return "pdFTSP-adaptive" }

// Coefficients returns the current α, β estimates.
func (a *Adaptive) Coefficients() (alpha, beta float64) { return a.alpha, a.beta }

// Seen returns how many bids have informed the estimates.
func (a *Adaptive) Seen() int { return a.seen }

// Inner exposes the wrapped scheduler (for dual-price inspection).
func (a *Adaptive) Inner() *Scheduler { return a.inner }

// Offer updates the coefficient estimates from the arriving bid, then
// delegates to the inner pdFTSP scheduler.
//
// Note on incentives: the estimate uses the *declared* bid, so an
// extremely large overbid could inflate future prices. It cannot help the
// overbidder — its own payment still uses the pre-update prices — so
// truthfulness for the bidder itself is preserved; the effect is limited
// to externalities on later bids, which the safety cap bounds.
func (a *Adaptive) Offer(env *schedule.TaskEnv) schedule.Decision {
	a.observe(env)
	return a.inner.Offer(env)
}

// observe folds one task into the running maxima.
func (a *Adaptive) observe(env *schedule.TaskEnv) {
	t := env.Task
	a.seen++
	net := t.Bid - a.meanUnitCost*float64(t.Work)
	if t.NeedsPrep && len(env.Quotes) > 0 {
		cheapest := env.Quotes[0].Price
		for _, q := range env.Quotes[1:] {
			if q.Price < cheapest {
				cheapest = q.Price
			}
		}
		net -= cheapest
	}
	if net <= 0 {
		return
	}
	if aa := a.safety * net / float64(t.Work); aa > a.alpha {
		a.alpha = aa
	}
	// Fastest available speed determines the minimum slot footprint.
	best := 1
	for _, s := range env.Speed {
		if s > best {
			best = s
		}
	}
	minSlots := (int(t.Work) + best - 1) / best
	if minSlots < 1 {
		minSlots = 1
	}
	if bb := a.safety * net / (t.MemGB * float64(minSlots)); bb > a.beta {
		a.beta = bb
	}
	a.inner.SetCoefficients(a.alpha, a.beta)
}

// SetCoefficients replaces the dual-update coefficients. Prices already
// accumulated are untouched; only future updates use the new values.
func (s *Scheduler) SetCoefficients(alpha, beta float64) {
	if alpha > 0 {
		s.opts.Alpha = alpha
	}
	if beta > 0 {
		s.opts.Beta = beta
	}
}
