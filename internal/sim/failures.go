package sim

import (
	"fmt"
	"sort"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
)

// Failure takes one node down for an inclusive slot range. Failures become
// known online, at the beginning of slot From: committed plans touching
// the node during the outage lose those placements, and the provider
// re-plans the remaining work through the same scheduler. A task whose
// remaining work cannot be replanned before its deadline fails, and its
// bid is refunded (the welfare contribution is reversed; costs already
// sunk stay spent). A To at or past the horizon is clamped to the last
// slot — the ledger has no cells beyond it, and an outage that outlives
// the horizon is indistinguishable from one ending there.
type Failure struct {
	Node     int
	From, To int
}

// FailureTracker is the round engine's online node-outage state machine:
// admitted plans are tracked, outages surface lazily at the beginning of
// their From slot, broken plans release their future placements and are
// re-planned through the same Algorithm-2 scheduler, and unrecoverable
// tasks are refunded. The Engine owns the run's tracker, so a broker
// given a fault plan and sim.Run with the same Config.Failures run the
// same code.
//
// A nil *FailureTracker is valid and inert: every method is a no-op, so
// the failure-free hot path pays only a nil check.
type FailureTracker struct {
	cl      *cluster.Cluster
	pending []Failure
	next    int
	// records maps original task ID to its live commitment.
	records map[int]*commitRecord
	// contID allocates fresh IDs for continuation bids so vendor quotes
	// and dual bookkeeping never collide with real tasks.
	contID int

	// OnRefund, when set, is called with the ORIGINAL task ID of every
	// refunded task (a recovered task's continuation keeps its original
	// identity here). The broker uses it (Engine.OnRefund) to flip its
	// decided-outcome map as apply flips Result.Decisions.
	OnRefund func(origID int)
	// Obs, when non-nil, receives one FailureEvent per applied outage.
	Obs obs.Observer
}

// commitRecord is one admitted task's live plan.
type commitRecord struct {
	origID  int // the task ID the provider decided (map key; survives continuations)
	task    task.Task
	env     *schedule.TaskEnv
	plan    []schedule.Placement
	payment float64
	index   int // position in the offer stream (for decision updates and replay order)
}

// NewFailureTracker validates, clamps, and orders the failures. A nil or
// empty set returns a nil tracker (valid, inert).
func NewFailureTracker(fs []Failure, cl *cluster.Cluster) (*FailureTracker, error) {
	if len(fs) == 0 {
		return nil, nil
	}
	numNodes, horizon := cl.NumNodes(), cl.Horizon().T
	sorted := append([]Failure(nil), fs...)
	for i := range sorted {
		f := &sorted[i]
		if f.Node < 0 || f.Node >= numNodes {
			return nil, fmt.Errorf("sim: failure %d on unknown node %d", i, f.Node)
		}
		if f.From < 0 || f.To < f.From || f.From >= horizon {
			return nil, fmt.Errorf("sim: failure %d has bad range [%d,%d]", i, f.From, f.To)
		}
		// Clamp tails past the horizon (see the Failure doc) so fault
		// plans can never index past the ledger.
		f.To = cl.Horizon().Clamp(f.To)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].From < sorted[j].From })
	return &FailureTracker{
		cl:      cl,
		pending: sorted,
		records: map[int]*commitRecord{},
		contID:  1 << 30,
	}, nil
}

// NewEmptyFailureTracker returns a live tracker with no scheduled
// outages. Spot-market runs need one even when Config.Failures is empty:
// revocations reuse the tracker's plan-breaking machinery (Revoke), so
// the Engine must track admitted plans from the first bid on.
func NewEmptyFailureTracker(cl *cluster.Cluster) *FailureTracker {
	return &FailureTracker{
		cl:      cl,
		records: map[int]*commitRecord{},
		contID:  1 << 30,
	}
}

// Track remembers an admitted plan for possible recovery. idx is the
// bid's position in the offer stream; it orders recovery re-planning
// deterministically and indexes Result.Decisions in Run.
func (fs *FailureTracker) Track(idx int, env *schedule.TaskEnv, d *schedule.Decision) {
	if fs == nil || !d.Admitted {
		return
	}
	fs.records[env.Task.ID] = &commitRecord{
		origID:  env.Task.ID,
		task:    *env.Task,
		env:     env,
		plan:    append([]schedule.Placement(nil), d.Schedule.Placements...),
		payment: d.Payment(),
		index:   idx,
	}
}

// ApplyUpTo processes every failure with From ≤ now (beginning-of-slot
// semantics) and applies the welfare adjustments to res.
func (fs *FailureTracker) ApplyUpTo(now int, sched Scheduler, res *Result) {
	if fs == nil {
		return
	}
	for fs.next < len(fs.pending) && fs.pending[fs.next].From <= now {
		fs.apply(fs.pending[fs.next], sched, res)
		fs.next++
	}
}

// apply handles a single failure.
func (fs *FailureTracker) apply(f Failure, sched Scheduler, res *Result) {
	res.FailuresInjected++
	// The outage becomes visible to every subsequent planning decision.
	fs.cl.SetDown(f.Node, f.From, f.To)
	fs.breakPlans(f, sched, res)
}

// Revoke withdraws capacity like an outage but without marking the node
// down: a spot revocation is a lease ending early, and the node can be
// re-rented later. The caller must have already withdrawn the lease
// (cluster.EndLease) so recovery re-planning cannot land back on the
// revoked cells. Revocations tally Result.SpotRevocations, keeping
// FailuresInjected the pure count of Config.Failures outages.
func (fs *FailureTracker) Revoke(f Failure, sched Scheduler, res *Result) {
	if fs == nil {
		return
	}
	res.SpotRevocations++
	fs.breakPlans(f, sched, res)
}

// breakPlans releases, re-plans, or refunds every committed plan the
// capacity loss f intersects, and emits the failure event.
func (fs *FailureTracker) breakPlans(f Failure, sched Scheduler, res *Result) {
	cl := fs.cl

	// Recovery re-offers move duals and commit ledger cells, so when one
	// outage breaks several plans the processing order is part of the
	// auction outcome. Hit records are ordered by their position in the
	// offer stream — the Engine's offer index — never by map iteration
	// order.
	var hits []*commitRecord
	for _, rec := range fs.records {
		if fs.hit(rec, f) {
			hits = append(hits, rec)
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].index < hits[j].index })

	recovered, refunded := 0, 0
	refundedValue := 0.0
	for _, rec := range hits {
		// Release every future placement and measure executed work.
		executed := 0
		var released []schedule.Placement
		var kept []schedule.Placement
		for _, p := range rec.plan {
			if p.Slot < f.From {
				executed += rec.env.Speed[p.Node]
				kept = append(kept, p)
				continue
			}
			released = append(released, p)
		}
		releasedEnergy := 0.0
		for _, p := range released {
			cl.Release(p.Node, p.Slot, rec.env.Speed[p.Node], rec.task.MemGB)
			releasedEnergy += cl.EnergyCost(p.Node, p.Slot, rec.env.Speed[p.Node])
		}
		res.Welfare += releasedEnergy
		res.EnergySpend -= releasedEnergy

		remaining := int(rec.task.Work) - executed
		if remaining <= 0 {
			// Already sufficiently fine-tuned; nothing to recover.
			rec.plan = kept
			continue
		}

		// Re-plan the remainder as a fresh prep-free bid arriving now.
		cont := rec.task
		cont.ID = fs.contID
		fs.contID++
		cont.Arrival = int32(f.From)
		cont.Work = int32(remaining)
		cont.NeedsPrep = false
		env := &schedule.TaskEnv{
			Task:    &cont,
			Cluster: cl,
			Speed:   rec.env.Speed,
		}
		d := sched.Offer(env)
		if d.Admitted {
			res.RecoveredTasks++
			recovered++
			res.Welfare -= d.EnergyCost()
			res.EnergySpend += d.EnergyCost()
			rec.task = cont
			rec.env = env
			rec.plan = append(kept, d.Schedule.Placements...)
			continue
		}
		// Unrecoverable: refund the bid and the payment, reverse the
		// welfare claim; sunk vendor and energy costs stay spent.
		res.FailedTasks++
		refunded++
		res.Welfare -= rec.task.Bid
		res.RefundedValue += rec.task.Bid
		refundedValue += rec.task.Bid
		res.Revenue -= rec.payment
		if res.Decisions != nil && rec.index < len(res.Decisions) {
			res.Decisions[rec.index].Admitted = false
			res.Decisions[rec.index].Reason = schedule.ReasonFailedNode
		}
		if fs.OnRefund != nil {
			fs.OnRefund(rec.origID)
		}
		delete(fs.records, rec.origID)
	}
	if fs.Obs != nil {
		obs.EmitFailure(fs.Obs, &obs.FailureEvent{
			Node: f.Node, From: f.From, To: f.To,
			Broken: len(hits), Recovered: recovered,
			Refunded: refunded, RefundedValue: refundedValue,
		})
	}
}

// hit reports whether the record's plan intersects the outage.
func (fs *FailureTracker) hit(rec *commitRecord, f Failure) bool {
	for _, p := range rec.plan {
		if p.Node == f.Node && p.Slot >= f.From && p.Slot <= f.To {
			return true
		}
	}
	return false
}

// FailureTrackerState is the JSON persistence form of a FailureTracker:
// how far the outage schedule has been applied, the continuation-ID
// cursor, and every live committed plan. The broker embeds it in its
// checkpoint so a restore resumes recovery bit-identically; the fault
// plan itself is configuration and is not persisted.
type FailureTrackerState struct {
	Next    int             `json:"next"`
	ContID  int             `json:"cont_id"`
	Records []FailureRecord `json:"records,omitempty"`
}

// FailureRecord is one tracked commitment on the checkpoint wire.
type FailureRecord struct {
	OrigID  int                  `json:"orig_id"`
	Task    task.Task            `json:"task"`
	Plan    []schedule.Placement `json:"plan,omitempty"`
	Payment float64              `json:"payment"`
	Index   int                  `json:"index"`
}

// State snapshots the tracker for a checkpoint; records are ordered by
// offer index so the snapshot is deterministic.
func (fs *FailureTracker) State() FailureTrackerState {
	if fs == nil {
		return FailureTrackerState{}
	}
	st := FailureTrackerState{Next: fs.next, ContID: fs.contID}
	for _, rec := range fs.records {
		st.Records = append(st.Records, FailureRecord{
			OrigID:  rec.origID,
			Task:    rec.task,
			Plan:    append([]schedule.Placement(nil), rec.plan...),
			Payment: rec.payment,
			Index:   rec.index,
		})
	}
	sort.Slice(st.Records, func(i, j int) bool { return st.Records[i].Index < st.Records[j].Index })
	return st
}

// RestoreState rebuilds the tracker from a checkpoint snapshot. The
// per-record environments are re-derived from the cluster and model
// (node speeds are a pure function of both), matching what Track saw
// when the plan was admitted; recovery never reads quotes, so no
// marketplace is needed. A nil st resets the tracker to its initial
// state.
func (fs *FailureTracker) RestoreState(st *FailureTrackerState, model lora.ModelConfig) error {
	if fs == nil {
		if st == nil || (st.Next == 0 && len(st.Records) == 0) {
			return nil
		}
		return fmt.Errorf("sim: checkpoint carries failure state but no failures are configured")
	}
	fs.records = map[int]*commitRecord{}
	if st == nil {
		fs.next = 0
		fs.contID = 1 << 30
		return nil
	}
	if st.Next < 0 || st.Next > len(fs.pending) {
		return fmt.Errorf("sim: failure state applied %d of %d outages", st.Next, len(fs.pending))
	}
	fs.next = st.Next
	fs.contID = st.ContID
	if fs.contID < 1<<30 {
		fs.contID = 1 << 30
	}
	for i := range st.Records {
		rec := &st.Records[i]
		t := rec.Task
		fs.records[rec.OrigID] = &commitRecord{
			origID:  rec.OrigID,
			task:    t,
			env:     schedule.NewTaskEnv(&t, fs.cl, model, nil),
			plan:    append([]schedule.Placement(nil), rec.Plan...),
			payment: rec.Payment,
			index:   rec.Index,
		}
	}
	return nil
}
