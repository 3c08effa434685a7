// Package sim is the trace-driven simulation engine: it replays a workload
// against a cluster and a scheduler, slot by slot in arrival order, and
// accounts social welfare exactly as the objective (4) of the paper —
// Σ b_i u_i − Σ q_in z_in − Σ e_ikt x_ikt — along with revenue, cost, and
// latency breakdowns for the evaluation figures.
package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// Scheduler is the contract every algorithm implements: respond to one
// arriving bid, immediately and irrevocably (the paper's online model).
type Scheduler interface {
	Name() string
	Offer(env *schedule.TaskEnv) schedule.Decision
}

// BatchScheduler is implemented by algorithms that plan all of a slot's
// arrivals jointly (Titan solves one MILP per slot). The simulator prefers
// BatchOffer when available and amortizes the measured latency over the
// batch, matching the paper's Figure 13 methodology ("we average the
// Gurobi solver's runtime over the number of tasks").
type BatchScheduler interface {
	Scheduler
	BatchOffer(envs []*schedule.TaskEnv) []schedule.Decision
}

// Config parameterizes a run.
type Config struct {
	// Context, when non-nil, cancels the run between offers: Run returns
	// the context's error as soon as it observes cancellation. Decisions
	// already made stand (they are irrevocable); the partial result is
	// discarded. Nil means run to completion.
	Context context.Context
	// Model is the shared pre-trained model (drives s_ik and r_b).
	Model lora.ModelConfig
	// Market is the labor-vendor marketplace; nil only if no task needs
	// pre-processing.
	Market *vendor.Marketplace
	// CollectDecisions keeps every Decision in the result (memory-heavy
	// for large workloads; required by the pricing figures).
	CollectDecisions bool
	// Failures injects node outages; each becomes visible at the
	// beginning of its From slot and triggers recovery re-planning for
	// the committed plans it breaks. pdFTSP recovers best with
	// Options.MaskFullCells set, so its DP routes around downed nodes.
	// The schedule is known in advance, so only a replay takes one
	// (examples/failures); a serving broker's capacity is fixed.
	Failures []Failure
	// Spot, when non-nil, drives the elastic spot-capacity tier: the
	// provider is bound to the run's cluster and failure tracker before
	// the first bid and advanced at exactly the failure trigger points,
	// renting and revoking leases on the cluster's elastic nodes. See
	// SpotProvider and internal/spot. A replay's input, like Failures: the
	// trace is the whole horizon's market, known in advance.
	Spot SpotProvider
	// Observer, when non-nil, receives the run's full decision-path
	// event stream: RunStart/Bid/Outcome/RunEnd from the engine plus
	// Vendor/Dual/Payment from schedulers implementing obs.Observable.
	// An observer shared across parallel runs must be safe for
	// concurrent use.
	Observer obs.Observer
	// RunLabel names this run in emitted events (e.g.
	// "fig4/philly-100/seed7"); empty is fine for single runs.
	RunLabel string
}

// Result is the accounting of one run.
type Result struct {
	// Scheduler is the algorithm name.
	Scheduler string
	// Welfare is the realized social welfare (objective (4)).
	Welfare float64
	// Revenue is Σ p_i over winning bids (zero for non-auction
	// baselines).
	Revenue float64
	// VendorSpend is Σ q_in z_in paid to labor vendors.
	VendorSpend float64
	// EnergySpend is Σ e_ikt x_ikt.
	EnergySpend float64
	// Admitted and Rejected count bids.
	Admitted, Rejected int
	// RejectReasons tallies rejections by Decision.Reason.
	RejectReasons map[schedule.RejectReason]int
	// OfferLatency is the histogram of per-task scheduling latency (batch
	// latency is divided evenly across the batch), one sample a bid. Run
	// collects it; the engine hands each sample to its sink and keeps
	// none, so a serving broker's Result has nil here.
	OfferLatency *obs.Histogram
	// Utilization is the final fraction of cluster compute committed.
	Utilization float64
	// Decisions holds per-task outcomes when CollectDecisions is set,
	// indexed like the input tasks.
	Decisions []schedule.Decision
	// Failure-injection accounting (zero unless Config.Failures is set).
	FailuresInjected int
	RecoveredTasks   int
	FailedTasks      int
	RefundedValue    float64
	// Spot-market accounting (zero unless Config.Spot is set): rent paid,
	// leases taken, node-slots leased, and leases revoked by the market.
	SpotSpend       float64
	SpotLeases      int
	SpotLeasedSlots int
	SpotRevocations int
}

// AcceptanceRate returns admitted / total.
func (r *Result) AcceptanceRate() float64 {
	total := r.Admitted + r.Rejected
	if total == 0 {
		return 0
	}
	return float64(r.Admitted) / float64(total)
}

// Run replays tasks (already sorted by arrival) through the scheduler:
// it validates the workload, hands each arrival slot's bids to the round
// engine (see Engine for the per-bid discipline), and keeps what a batch
// replay wants from each decision — the event-log line and, with
// CollectDecisions, the decision itself. The cluster's ledger must be
// fresh; Run commits into it via the scheduler.
func Run(cl *cluster.Cluster, sched Scheduler, tasks []task.Task, cfg Config) (*Result, error) {
	if cl == nil || sched == nil {
		return nil, fmt.Errorf("sim: nil cluster or scheduler")
	}
	h := cl.Horizon()
	for i := range tasks {
		if i > 0 && tasks[i].Arrival < tasks[i-1].Arrival {
			return nil, fmt.Errorf("sim: tasks not sorted by arrival (task %d)", tasks[i].ID)
		}
		if err := tasks[i].Validate(h); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}

	var res *Result
	eng, err := NewEngine(cl, sched, EngineConfig{
		Model: cfg.Model, Market: cfg.Market,
		Failures: cfg.Failures, Spot: cfg.Spot,
		Observer: cfg.Observer, RunLabel: cfg.RunLabel,
	}, func(idx int, env *schedule.TaskEnv, d *schedule.Decision, lat time.Duration) {
		res.OfferLatency.Record(lat)
		if cfg.CollectDecisions {
			// Decisions outlive the offer loop, so the plan and the terms
			// are deep-copied: schedulers running with reused buffers (core
			// Options.ReusePlans) overwrite d.Schedule and d.Terms on the
			// next offer. Each gets its own allocation, so a caller that
			// drops the plan does not keep it alive through the terms.
			dc := *d
			if dc.Schedule != nil {
				sc := *dc.Schedule
				sc.Placements = append([]schedule.Placement(nil), sc.Placements...)
				dc.Schedule = &sc
			}
			dc.Terms = schedule.NewTerms(d.Payment(), d.VendorCost(), d.EnergyCost())
			res.Decisions[idx] = dc
		}
	})
	if err != nil {
		return nil, err
	}
	res = eng.Result()
	res.OfferLatency = new(obs.Histogram)
	if cfg.CollectDecisions {
		res.Decisions = make([]schedule.Decision, len(tasks))
	}
	eng.Start()
	defer eng.Detach()

	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var round []*task.Task
	for i := 0; i < len(tasks); {
		slot := tasks[i].Arrival
		round = round[:0]
		for ; i < len(tasks) && tasks[i].Arrival == slot; i++ {
			round = append(round, &tasks[i])
		}
		if err := eng.Round(ctx, int(slot), round); err != nil {
			return nil, fmt.Errorf("sim: canceled after %d of %d bids: %w", eng.Offered(), len(tasks), err)
		}
	}
	eng.Finish(true)
	return res, nil
}

// NewResult returns an empty accounting for one run of the named
// scheduler, ready for Account calls.
func NewResult(scheduler string) *Result {
	return &Result{
		Scheduler:     scheduler,
		RejectReasons: map[schedule.RejectReason]int{},
	}
}

// Account applies one auction decision to the run accounting: the
// welfare/revenue/spend sums and the admit/reject counters. The round
// engine is its only caller.
func (r *Result) Account(env *schedule.TaskEnv, d *schedule.Decision) {
	if d.Admitted {
		r.Admitted++
		r.Welfare += env.Task.Bid - d.VendorCost() - d.EnergyCost()
		r.Revenue += d.Payment()
		r.VendorSpend += d.VendorCost()
		r.EnergySpend += d.EnergyCost()
		return
	}
	r.Rejected++
	r.RejectReasons[d.Reason]++ // a rejection without a reason tallies under zero
}
