package obs

import (
	"expvar"
	"sync"
)

// Metrics aggregates live counters and gauges over the event stream:
// offers and admissions (by rejection reason), money flows, committed
// work per node, and the running per-slot maxima of the dual prices.
// It is safe for concurrent use and can be exposed via expvar (Expose)
// for scraping during live runs.
type Metrics struct {
	mu sync.Mutex

	Offers   int64
	Admitted int64
	Rejected map[string]int64 // rejection reason → count

	Welfare     float64
	Revenue     float64
	VendorSpend float64
	EnergySpend float64

	Runs      int64
	RunsEnded int64

	// NodeWork is the committed work units per node index, summed across
	// runs, and NodeCap the matching capacity·slots denominator, so
	// NodeWork[k]/NodeCap[k] is node k's mean utilization.
	NodeWork []int64
	NodeCap  []int64

	// MaxLambda and MaxPhi track the highest dual price seen per slot
	// across all runs — a cheap skyline of how hard each slot is priced.
	MaxLambda []float64
	MaxPhi    []float64

	// DualMoves counts individual (k,t) dual updates observed.
	DualMoves int64

	// Failure-injection aggregates: applied outages, plans broken by
	// them, recoveries, refunds, and the total bid value refunded.
	Failures       int64
	FailureBroken  int64
	FailureRecov   int64
	FailureRefunds int64
	RefundedValue  float64
}

// NewMetrics returns an empty metrics aggregator.
func NewMetrics() *Metrics {
	return &Metrics{Rejected: make(map[string]int64)}
}

func growInt64(s []int64, n int) []int64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

func growFloat(s []float64, n int) []float64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

// OnRunStart implements Observer.
func (m *Metrics) OnRunStart(e *RunStartEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Runs++
	m.NodeWork = growInt64(m.NodeWork, e.Nodes)
	m.NodeCap = growInt64(m.NodeCap, e.Nodes)
	m.MaxLambda = growFloat(m.MaxLambda, e.Slots)
	m.MaxPhi = growFloat(m.MaxPhi, e.Slots)
	for k, cap := range e.CapWork {
		if k < len(m.NodeCap) {
			m.NodeCap[k] += int64(cap) * int64(e.Slots)
		}
	}
}

// OnBid implements Observer.
func (m *Metrics) OnBid(*BidEvent) {
	m.mu.Lock()
	m.Offers++
	m.mu.Unlock()
}

// OnVendor implements Observer.
func (m *Metrics) OnVendor(*VendorEvent) {}

// OnDual implements Observer.
func (m *Metrics) OnDual(e *DualEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.DualMoves++
	m.MaxLambda = growFloat(m.MaxLambda, e.Slot+1)
	m.MaxPhi = growFloat(m.MaxPhi, e.Slot+1)
	if e.LambdaAfter > m.MaxLambda[e.Slot] {
		m.MaxLambda[e.Slot] = e.LambdaAfter
	}
	if e.PhiAfter > m.MaxPhi[e.Slot] {
		m.MaxPhi[e.Slot] = e.PhiAfter
	}
}

// OnPayment implements Observer.
func (m *Metrics) OnPayment(*PaymentEvent) {}

// OnOutcome implements Observer.
func (m *Metrics) OnOutcome(e *OutcomeEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !e.Admitted {
		reason := e.Reason.String()
		if e.Reason == 0 {
			reason = "unknown"
		}
		m.Rejected[reason]++
		return
	}
	m.Admitted++
	m.Welfare += e.Bid - e.VendorCost - e.EnergyCost
	m.Revenue += e.Payment
	m.VendorSpend += e.VendorCost
	m.EnergySpend += e.EnergyCost
	for _, p := range e.Placements {
		m.NodeWork = growInt64(m.NodeWork, p.Node+1)
		m.NodeWork[p.Node] += int64(p.Work)
	}
}

// OnFailure implements FailureObserver.
func (m *Metrics) OnFailure(e *FailureEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Failures++
	m.FailureBroken += int64(e.Broken)
	m.FailureRecov += int64(e.Recovered)
	m.FailureRefunds += int64(e.Refunded)
	m.RefundedValue += e.RefundedValue
}

// OnRunEnd implements Observer.
func (m *Metrics) OnRunEnd(*RunEndEvent) {
	m.mu.Lock()
	m.RunsEnded++
	m.mu.Unlock()
}

// Snapshot returns a deep copy of the current aggregates.
func (m *Metrics) Snapshot() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	rejected := make(map[string]int64, len(m.Rejected))
	totalRejected := int64(0)
	for r, n := range m.Rejected {
		rejected[r] = n
		totalRejected += n
	}
	util := make([]float64, len(m.NodeWork))
	for k := range m.NodeWork {
		if k < len(m.NodeCap) && m.NodeCap[k] > 0 {
			util[k] = float64(m.NodeWork[k]) / float64(m.NodeCap[k])
		}
	}
	return map[string]any{
		"offers":           m.Offers,
		"admitted":         m.Admitted,
		"rejected":         totalRejected,
		"rejected_reasons": rejected,
		"welfare":          m.Welfare,
		"revenue":          m.Revenue,
		"vendor_spend":     m.VendorSpend,
		"energy_spend":     m.EnergySpend,
		"runs":             m.Runs,
		"runs_ended":       m.RunsEnded,
		"dual_moves":       m.DualMoves,
		"failures":         m.Failures,
		"failure_broken":   m.FailureBroken,
		"failure_recov":    m.FailureRecov,
		"failure_refunds":  m.FailureRefunds,
		"refunded_value":   m.RefundedValue,
		"node_utilization": util,
		"max_lambda":       append([]float64(nil), m.MaxLambda...),
		"max_phi":          append([]float64(nil), m.MaxPhi...),
	}
}

// Expose publishes the aggregates under the given expvar name (e.g.
// "pdftsp"). Publishing the same name twice is a no-op rather than the
// panic expvar.Publish would raise, so tests and repeated runs in one
// process are safe.
func (m *Metrics) Expose(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}
