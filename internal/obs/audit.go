package obs

import (
	"fmt"
	"strings"
	"sync"
)

// auditTol absorbs float rounding in money comparisons; it matches the
// tolerance the auction rationality audit uses.
const auditTol = 1e-9

// Audit validates the paper's invariants online as events stream:
//
//   - every admitted plan passes schedule.Validate against its TaskEnv
//     (constraints (4a)–(4e));
//   - every winner satisfies individual rationality, payment ≤ bid
//     (Theorem 4), and payments are never negative;
//   - payment breakdowns are internally consistent: non-negative terms
//     that sum to the charged total (equation (14));
//   - dual prices never decrease (equations (7)–(8) only add
//     non-negative increments);
//   - rejections always carry a reason, and capacity rejections record
//     their Lemma-1 dual movement;
//   - at run end the committed ledger respects C_kp and C_km
//     (constraints (4f)–(4g)).
//
// Violations accumulate (up to MaxRecorded details) instead of panicking,
// so a full experiment suite can run to completion and report everything
// it found. Audit is safe for concurrent use.
type Audit struct {
	// MaxRecorded bounds the stored violation messages (the count is
	// always exact). Zero means the default of 100.
	MaxRecorded int

	mu         sync.Mutex
	count      int64
	violations []string
}

// NewAudit returns an empty auditor.
func NewAudit() *Audit { return &Audit{} }

func (a *Audit) violate(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.count++
	max := a.MaxRecorded
	if max == 0 {
		max = 100
	}
	if len(a.violations) < max {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	}
}

// Err returns nil when no invariant was violated, otherwise an error
// summarizing the count and listing the first few recorded violations.
func (a *Audit) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.count == 0 {
		return nil
	}
	show := a.violations
	if len(show) > 5 {
		show = show[:5]
	}
	return fmt.Errorf("obs: %d invariant violation(s):\n  %s",
		a.count, strings.Join(show, "\n  "))
}

// OnRunStart implements Observer.
func (a *Audit) OnRunStart(*RunStartEvent) {}

// OnBid implements Observer.
func (a *Audit) OnBid(*BidEvent) {}

// OnVendor implements Observer.
func (a *Audit) OnVendor(e *VendorEvent) {
	if e.Feasible && e.WindowEnd < e.WindowStart {
		a.violate("%s/%s task %d vendor %d: feasible plan from empty window [%d,%d]",
			e.Run, e.Sched, e.TaskID, e.Vendor, e.WindowStart, e.WindowEnd)
	}
}

// OnDual implements Observer. Dual updates (7)–(8) only ever add
// non-negative increments, so a price that moved down is a bug.
func (a *Audit) OnDual(e *DualEvent) {
	if e.LambdaAfter < e.LambdaBefore-auditTol {
		a.violate("%s/%s task %d: λ[%d][%d] decreased %.9g → %.9g",
			e.Run, e.Sched, e.TaskID, e.Node, e.Slot, e.LambdaBefore, e.LambdaAfter)
	}
	if e.PhiAfter < e.PhiBefore-auditTol {
		a.violate("%s/%s task %d: φ[%d][%d] decreased %.9g → %.9g",
			e.Run, e.Sched, e.TaskID, e.Node, e.Slot, e.PhiBefore, e.PhiAfter)
	}
}

// OnPayment implements Observer.
func (a *Audit) OnPayment(e *PaymentEvent) {
	for _, term := range []struct {
		name string
		v    float64
	}{
		{"vendor", e.VendorTerm},
		{"compute", e.ComputeTerm},
		{"memory", e.MemoryTerm},
		{"energy", e.EnergyTerm},
	} {
		if term.v < -auditTol {
			a.violate("%s/%s task %d: negative %s payment term %.9g",
				e.Run, e.Sched, e.TaskID, term.name, term.v)
		}
	}
	sum := e.VendorTerm + e.ComputeTerm + e.MemoryTerm + e.EnergyTerm
	if diff := sum - e.Total; diff > 1e-6 || diff < -1e-6 {
		a.violate("%s/%s task %d: payment terms sum %.9g != total %.9g",
			e.Run, e.Sched, e.TaskID, sum, e.Total)
	}
}

// OnOutcome implements Observer.
func (a *Audit) OnOutcome(e *OutcomeEvent) {
	if !e.Admitted {
		if e.Reason == 0 {
			a.violate("%s/%s task %d: rejected without a reason", e.Run, e.Sched, e.TaskID)
		}
		if e.Payment != 0 {
			a.violate("%s/%s task %d: losing bid charged %.9g", e.Run, e.Sched, e.TaskID, e.Payment)
		}
		return
	}
	// Theorem 4 (individual rationality): a winner never pays more than
	// it bid. Payments are also never negative.
	if e.Payment > e.Bid+auditTol {
		a.violate("%s/%s task %d: IR violated, payment %.9g > bid %.9g",
			e.Run, e.Sched, e.TaskID, e.Payment, e.Bid)
	}
	if e.Payment < -auditTol {
		a.violate("%s/%s task %d: negative payment %.9g", e.Run, e.Sched, e.TaskID, e.Payment)
	}
	if e.Env != nil && e.Decision != nil && e.Decision.Schedule != nil {
		// Constraints (4a)–(4e) on the committed plan.
		if err := e.Decision.Schedule.Validate(e.Env); err != nil {
			a.violate("%s/%s task %d: admitted plan invalid: %v", e.Run, e.Sched, e.TaskID, err)
		}
		// Constraints (4f)–(4g): the post-commit ledger must respect the
		// capacities on every cell the plan touches.
		cl := e.Env.Cluster
		for _, p := range e.Decision.Schedule.Placements {
			if cl.UsedWork(p.Node, p.Slot) > cl.Node(p.Node).CapWork {
				a.violate("%s/%s task %d: node %d slot %d work ledger %d exceeds C_kp %d",
					e.Run, e.Sched, e.TaskID, p.Node, p.Slot,
					cl.UsedWork(p.Node, p.Slot), cl.Node(p.Node).CapWork)
			}
			if cl.UsedMem(p.Node, p.Slot) > cl.TaskMemCap(p.Node)+auditTol {
				a.violate("%s/%s task %d: node %d slot %d mem ledger %.6g exceeds C_km−r_b %.6g",
					e.Run, e.Sched, e.TaskID, p.Node, p.Slot,
					cl.UsedMem(p.Node, p.Slot), cl.TaskMemCap(p.Node))
			}
		}
	}
}

// OnFailure implements FailureObserver. Every broken plan either kept
// running (work already done), recovered, or was refunded, so the
// recovery counts can never exceed the broken count; refunded value is a
// sum of bids, never negative.
func (a *Audit) OnFailure(e *FailureEvent) {
	if e.From > e.To || e.Broken < 0 || e.Recovered < 0 || e.Refunded < 0 {
		a.violate("%s/%s: malformed failure event node %d [%d,%d] broken=%d recovered=%d refunded=%d",
			e.Run, e.Sched, e.Node, e.From, e.To, e.Broken, e.Recovered, e.Refunded)
	}
	if e.Recovered+e.Refunded > e.Broken {
		a.violate("%s/%s: failure on node %d recovered %d + refunded %d exceeds %d broken plans",
			e.Run, e.Sched, e.Node, e.Recovered, e.Refunded, e.Broken)
	}
	if e.RefundedValue < -auditTol {
		a.violate("%s/%s: failure on node %d refunded negative value %.9g",
			e.Run, e.Sched, e.Node, e.RefundedValue)
	}
	if e.Refunded == 0 && e.RefundedValue > auditTol {
		a.violate("%s/%s: failure on node %d refunded %.9g money across zero refunds",
			e.Run, e.Sched, e.Node, e.RefundedValue)
	}
}

// OnRunEnd implements Observer.
func (a *Audit) OnRunEnd(e *RunEndEvent) {
	if e.Cluster == nil {
		return
	}
	if err := e.Cluster.CheckLedger(); err != nil {
		a.violate("%s/%s: final ledger: %v", e.Run, e.Sched, err)
	}
}
