// Package obs is the observability and invariant-audit layer of the
// decision path: a structured event stream emitted by the schedulers
// (internal/core, internal/baseline) and the simulation engine
// (internal/sim), with pluggable consumers — a JSONL trace sink, live
// counters/gauges exported via expvar, and an online auditor that checks
// the paper's own invariants (Theorems 3–4, constraints (4a)–(4g)) as
// events stream by.
//
// The layer is strictly opt-in: a nil Observer costs the hot path nothing
// (every emission site is guarded by a nil check and builds no event), so
// the Algorithm-1 offer loop stays allocation-free when nobody listens.
//
// Event vocabulary, in decision order:
//
//	RunStart  — one trace-driven run begins (cluster shape, scheduler)
//	Bid       — a task arrives and is offered (Algorithm 1 loop head)
//	Vendor    — one vendor quote's Algorithm-2 DP outcome (window,
//	            candidate count, price-adjusted cost, surplus F(il_n))
//	Dual      — one (k,t) dual-price move of equations (7)–(8),
//	            before and after
//	Payment   — a winner's payment (14) broken into its vendor,
//	            compute, memory (and optional energy) terms
//	Outcome   — the auction decision for one bid (admit/reject, reason,
//	            money flows, the committed placements)
//	Failure   — one applied node outage and its recovery outcome
//	            (optional: observers opt in via FailureObserver)
//	RunEnd    — the run's final accounting (welfare, revenue, counts)
//
// All events carry the run label and scheduler name so one sink can fan
// in several concurrent runs (the parallel experiment engine shares a
// single thread-safe observer across its workers).
package obs

import (
	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/schedule"
)

// Placement is one executed (node, slot) cell with the work units the
// task processes there — the trace-level mirror of schedule.Placement
// plus the s_ik the analyzer needs for utilization accounting.
type Placement struct {
	Node int `json:"n"`
	Slot int `json:"t"`
	Work int `json:"w"`
}

// RunStartEvent opens one trace-driven run.
type RunStartEvent struct {
	Run   string `json:"run"`
	Sched string `json:"sched"`
	Nodes int    `json:"nodes"`
	Slots int    `json:"slots"`
	// CapWork is C_kp per node, so trace analyzers can turn committed
	// work into utilization without the cluster object.
	CapWork []int `json:"cap_work,omitempty"`
}

// BidEvent is one arriving bid, before any scheduling work.
type BidEvent struct {
	Run       string  `json:"run"`
	Sched     string  `json:"sched"`
	TaskID    int     `json:"task"`
	Slot      int     `json:"slot"`
	Bid       float64 `json:"bid"`
	Work      int     `json:"work"`
	MemGB     float64 `json:"mem_gb"`
	NeedsPrep bool    `json:"needs_prep,omitempty"`
	Quotes    int     `json:"quotes,omitempty"`
}

// VendorEvent is the per-vendor Algorithm-2 outcome: the schedule-
// selection DP run for one quote {q_in, h_in}.
type VendorEvent struct {
	Run         string  `json:"run"`
	Sched       string  `json:"sched"`
	TaskID      int     `json:"task"`
	Vendor      int     `json:"vendor"`
	Price       float64 `json:"price"`
	DelaySlots  int     `json:"delay"`
	WindowStart int     `json:"win_start"`
	WindowEnd   int     `json:"win_end"`
	// Candidates is the node set the DP scanned.
	Candidates int `json:"candidates"`
	// Feasible reports whether the DP covered M_i inside the window.
	Feasible bool `json:"feasible"`
	// Cost is the plan's price-adjusted execution cost (objective of
	// problem (12)); Surplus is F(il_n) of equation (10). Both are zero
	// when infeasible.
	Cost    float64 `json:"cost"`
	Surplus float64 `json:"surplus"`
	// Best marks the quote that became the incumbent best plan.
	Best bool `json:"best,omitempty"`
}

// DualEvent is one (k,t) dual-price move of equations (7)–(8).
type DualEvent struct {
	Run          string  `json:"run"`
	Sched        string  `json:"sched"`
	TaskID       int     `json:"task"`
	Node         int     `json:"node"`
	Slot         int     `json:"slot"`
	LambdaBefore float64 `json:"lam0"`
	LambdaAfter  float64 `json:"lam1"`
	PhiBefore    float64 `json:"phi0"`
	PhiAfter     float64 `json:"phi1"`
}

// PaymentEvent is a winner's payment (14) broken into its terms:
// p_i = q_in + maxλ·Σs_kt + maxφ·Σr_kt (+ energy under ChargeEnergy).
type PaymentEvent struct {
	Run         string  `json:"run"`
	Sched       string  `json:"sched"`
	TaskID      int     `json:"task"`
	VendorTerm  float64 `json:"vendor_term"`
	ComputeTerm float64 `json:"compute_term"`
	MemoryTerm  float64 `json:"memory_term"`
	EnergyTerm  float64 `json:"energy_term"`
	Total       float64 `json:"total"`
	MaxLambda   float64 `json:"max_lambda"`
	MaxPhi      float64 `json:"max_phi"`
}

// OutcomeEvent is the auction decision for one bid. Env and Decision give
// validating observers the full context (schedule.Validate, the cluster
// ledger); sinks must not serialize them — the flat fields mirror
// everything a trace needs.
type OutcomeEvent struct {
	Run          string                `json:"run"`
	Sched        string                `json:"sched"`
	TaskID       int                   `json:"task"`
	Slot         int                   `json:"slot"`
	Bid          float64               `json:"bid"`
	Admitted     bool                  `json:"admitted"`
	Reason       schedule.RejectReason `json:"reason,omitempty"`
	Surplus      float64               `json:"surplus"`
	Payment      float64               `json:"payment"`
	VendorCost   float64               `json:"vendor_cost"`
	EnergyCost   float64               `json:"energy_cost"`
	DualsUpdated bool                  `json:"duals_updated,omitempty"`
	Placements   []Placement           `json:"placements,omitempty"`

	Env      *schedule.TaskEnv  `json:"-"`
	Decision *schedule.Decision `json:"-"`
}

// RunEndEvent closes one run with its final accounting. Cluster lets
// validating observers audit the whole ledger once; sinks must not
// serialize it.
type RunEndEvent struct {
	Run         string  `json:"run"`
	Sched       string  `json:"sched"`
	Welfare     float64 `json:"welfare"`
	Revenue     float64 `json:"revenue"`
	VendorSpend float64 `json:"vendor_spend"`
	EnergySpend float64 `json:"energy_spend"`
	Admitted    int     `json:"admitted"`
	Rejected    int     `json:"rejected"`
	Utilization float64 `json:"utilization"`
	Failures    int     `json:"failures,omitempty"`

	Cluster *cluster.Cluster `json:"-"`
}

// FailureEvent reports one applied node outage and its recovery
// outcome: how many committed plans the outage broke, how many were
// re-planned onto surviving nodes, how many were refunded (with the
// total bid value returned). Broken plans that had already finished
// their work count in Broken only.
type FailureEvent struct {
	Run   string `json:"run"`
	Sched string `json:"sched"`
	Node  int    `json:"node"`
	From  int    `json:"from"`
	To    int    `json:"to"`

	Broken        int     `json:"broken"`
	Recovered     int     `json:"recovered"`
	Refunded      int     `json:"refunded"`
	RefundedValue float64 `json:"refunded_value"`
}

// Observer consumes the decision-path event stream. Implementations used
// with the parallel experiment engine must be safe for concurrent use;
// event pointers are only valid for the duration of the call.
type Observer interface {
	OnRunStart(e *RunStartEvent)
	OnBid(e *BidEvent)
	OnVendor(e *VendorEvent)
	OnDual(e *DualEvent)
	OnPayment(e *PaymentEvent)
	OnOutcome(e *OutcomeEvent)
	OnRunEnd(e *RunEndEvent)
}

// FailureObserver is the optional extension an Observer implements to
// receive failure-injection events. It is a separate interface so
// existing Observer implementations (including those outside this
// module) keep compiling; emitters type-assert via EmitFailure.
type FailureObserver interface {
	OnFailure(e *FailureEvent)
}

// EmitFailure forwards e to o when o also implements FailureObserver;
// otherwise the event is dropped. Nil o is fine.
func EmitFailure(o Observer, e *FailureEvent) {
	if fo, ok := o.(FailureObserver); ok {
		fo.OnFailure(e)
	}
}

// Observable is implemented by schedulers that can emit their internal
// events (DP outcomes, dual moves, payment breakdowns) to an observer.
// The simulation engine attaches its stamped observer to any scheduler
// implementing it.
type Observable interface {
	SetObserver(Observer)
}

// Base is a no-op Observer for embedding: concrete observers override
// only the events they consume.
type Base struct{}

// OnRunStart implements Observer.
func (Base) OnRunStart(*RunStartEvent) {}

// OnBid implements Observer.
func (Base) OnBid(*BidEvent) {}

// OnVendor implements Observer.
func (Base) OnVendor(*VendorEvent) {}

// OnDual implements Observer.
func (Base) OnDual(*DualEvent) {}

// OnPayment implements Observer.
func (Base) OnPayment(*PaymentEvent) {}

// OnOutcome implements Observer.
func (Base) OnOutcome(*OutcomeEvent) {}

// OnRunEnd implements Observer.
func (Base) OnRunEnd(*RunEndEvent) {}

// multi fans events out to several observers in order.
type multi struct {
	obs []Observer
}

// Multi combines observers; nils are dropped. With zero or one non-nil
// observer it returns nil or that observer unwrapped.
func Multi(os ...Observer) Observer {
	var kept []Observer
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multi{obs: kept}
}

func (m *multi) OnRunStart(e *RunStartEvent) {
	for _, o := range m.obs {
		o.OnRunStart(e)
	}
}

func (m *multi) OnBid(e *BidEvent) {
	for _, o := range m.obs {
		o.OnBid(e)
	}
}

func (m *multi) OnVendor(e *VendorEvent) {
	for _, o := range m.obs {
		o.OnVendor(e)
	}
}

func (m *multi) OnDual(e *DualEvent) {
	for _, o := range m.obs {
		o.OnDual(e)
	}
}

func (m *multi) OnPayment(e *PaymentEvent) {
	for _, o := range m.obs {
		o.OnPayment(e)
	}
}

func (m *multi) OnOutcome(e *OutcomeEvent) {
	for _, o := range m.obs {
		o.OnOutcome(e)
	}
}

func (m *multi) OnRunEnd(e *RunEndEvent) {
	for _, o := range m.obs {
		o.OnRunEnd(e)
	}
}

// OnFailure fans the optional failure event out to the members that
// implement FailureObserver.
func (m *multi) OnFailure(e *FailureEvent) {
	for _, o := range m.obs {
		EmitFailure(o, e)
	}
}

// stamper fills the run label and scheduler name into every event before
// forwarding, so schedulers need not know which run they serve.
type stamper struct {
	next       Observer
	run, sched string
}

// Stamp wraps an observer so every forwarded event carries the given run
// label and scheduler name. The simulation engine wraps the configured
// observer once per run and hands the wrapper to the scheduler.
func Stamp(next Observer, run, sched string) Observer {
	if next == nil {
		return nil
	}
	return &stamper{next: next, run: run, sched: sched}
}

func (s *stamper) OnRunStart(e *RunStartEvent) {
	e.Run, e.Sched = s.run, s.sched
	s.next.OnRunStart(e)
}

func (s *stamper) OnBid(e *BidEvent) {
	e.Run, e.Sched = s.run, s.sched
	s.next.OnBid(e)
}

func (s *stamper) OnVendor(e *VendorEvent) {
	e.Run, e.Sched = s.run, s.sched
	s.next.OnVendor(e)
}

func (s *stamper) OnDual(e *DualEvent) {
	e.Run, e.Sched = s.run, s.sched
	s.next.OnDual(e)
}

func (s *stamper) OnPayment(e *PaymentEvent) {
	e.Run, e.Sched = s.run, s.sched
	s.next.OnPayment(e)
}

func (s *stamper) OnOutcome(e *OutcomeEvent) {
	e.Run, e.Sched = s.run, s.sched
	s.next.OnOutcome(e)
}

func (s *stamper) OnRunEnd(e *RunEndEvent) {
	e.Run, e.Sched = s.run, s.sched
	s.next.OnRunEnd(e)
}

// OnFailure stamps and forwards the optional failure event.
func (s *stamper) OnFailure(e *FailureEvent) {
	e.Run, e.Sched = s.run, s.sched
	EmitFailure(s.next, e)
}
