// Package auction hosts the economic-property harnesses behind Figures 10
// and 11 of the paper: counterfactual bid sweeps establishing truthfulness
// (Theorem 3) and bid-versus-payment audits establishing individual
// rationality (Theorem 4).
//
// Both harnesses replay a fixed background workload through a fresh
// scheduler for every counterfactual, so the focal bid faces exactly the
// same resource prices in every branch — the ceteris-paribus condition
// the theorems quantify over.
package auction

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/runner"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// Offerer is the minimal scheduler surface the harness needs.
type Offerer interface {
	Offer(env *schedule.TaskEnv) schedule.Decision
}

// Scenario fixes everything except the focal bid.
type Scenario struct {
	// MakeCluster builds a fresh cluster (fresh ledger) per branch.
	MakeCluster func() (*cluster.Cluster, error)
	// ReleaseCluster, when non-nil, takes the branch's cluster back once
	// its replay is done (e.g. to return it to a reuse pool). The decision
	// returned by RunFocal never references the cluster, so recycling is
	// safe.
	ReleaseCluster func(cl *cluster.Cluster)
	// MakeScheduler builds a fresh scheduler bound to the cluster.
	MakeScheduler func(cl *cluster.Cluster) (Offerer, error)
	// Background tasks are replayed, in order, before the focal bid.
	Background []task.Task
	// Focal is the bid under study; its Bid field is overridden by the
	// sweep.
	Focal task.Task
	// TrueValue is the focal bidder's private valuation v_i, held fixed
	// across the sweep. Only this harness knows it: the mechanism sees
	// the declared bid alone.
	TrueValue float64
	// Model and Market parameterize TaskEnv construction.
	Model  lora.ModelConfig
	Market *vendor.Marketplace
	// Parallelism bounds the workers TruthfulnessSweep fans its
	// counterfactual bid branches out on: 1 forces the sequential path,
	// 0 uses one worker per CPU. Every branch replays the background on
	// its own fresh cluster and scheduler, so the sweep is identical at
	// every parallelism level.
	Parallelism int
	// Context, when non-nil, cancels the sweep between branches (the
	// same cooperative path the experiment engine and service use).
	Context context.Context
}

// ctx resolves the scenario's cancellation context.
func (s *Scenario) ctx() context.Context {
	if s.Context != nil {
		return s.Context
	}
	return context.Background()
}

// RunFocal replays the background and then offers the focal task with the
// given bid, returning its decision.
func (s *Scenario) RunFocal(bid float64) (schedule.Decision, error) {
	cl, err := s.MakeCluster()
	if err != nil {
		return schedule.Decision{}, err
	}
	if s.ReleaseCluster != nil {
		defer s.ReleaseCluster(cl)
	}
	sched, err := s.MakeScheduler(cl)
	if err != nil {
		return schedule.Decision{}, err
	}
	// One env, refilled per bid: the scheduler contract says the env is
	// only read during Offer.
	var env schedule.TaskEnv
	for i := range s.Background {
		env.Refill(&s.Background[i], cl, s.Model, s.Market)
		sched.Offer(&env)
	}
	focal := s.Focal
	focal.Bid = bid
	env.Refill(&focal, cl, s.Model, s.Market)
	return sched.Offer(&env), nil
}

// SweepPoint is one counterfactual outcome of the truthfulness sweep.
type SweepPoint struct {
	Bid     float64
	Won     bool
	Payment float64
	// Utility is v_i − p_i if the bid won, else 0 (Definition 1).
	Utility float64
}

// TruthfulnessSweep evaluates the focal task's utility across bids, with
// the true valuation fixed at Scenario.TrueValue (Figure 10). The
// counterfactual branches are embarrassingly parallel — each replays the
// background workload on its own cluster — and fan out across
// Scenario.Parallelism workers.
func TruthfulnessSweep(s *Scenario, bids []float64) ([]SweepPoint, error) {
	return runner.MapCtx(s.ctx(), runner.Parallelism(s.Parallelism), len(bids), func(i int) (SweepPoint, error) {
		d, err := s.RunFocal(bids[i])
		if err != nil {
			return SweepPoint{}, err
		}
		pt := SweepPoint{Bid: bids[i], Won: d.Admitted, Payment: d.Payment()}
		if d.Admitted {
			pt.Utility = s.TrueValue - d.Payment()
		}
		return pt, nil
	})
}

// VerifyTruthful checks Definition 2 on sweep output: no bid achieves
// utility above the truthful bid's utility (within tol).
func VerifyTruthful(points []SweepPoint, trueValue, truthfulUtility, tol float64) error {
	for _, pt := range points {
		if pt.Utility > truthfulUtility+tol {
			return fmt.Errorf("auction: bid %v yields utility %v > truthful %v (v=%v)",
				pt.Bid, pt.Utility, truthfulUtility, trueValue)
		}
	}
	return nil
}

// IRPair is one winning bid's (bid, payment) pair for Figure 11.
type IRPair struct {
	TaskID  int
	Bid     float64
	Payment float64
}

// RationalityAudit samples n winning bids from a run's decisions and
// returns their bid/payment pairs; callers assert Payment ≤ Bid.
//
// Invariant: decisions[i] must be the outcome of tasks[i] — the audit
// pairs them positionally, which is how sim.Run with CollectDecisions
// indexes its Decisions slice. A length mismatch means the caller paired
// a decision log with the wrong task list, so it is reported as an error
// rather than silently truncating the audit.
func RationalityAudit(decisions []schedule.Decision, tasks []task.Task, n int, seed int64) ([]IRPair, error) {
	if len(decisions) != len(tasks) {
		return nil, fmt.Errorf("auction: %d decisions paired with %d tasks; the audit requires decisions[i] to be the outcome of tasks[i]",
			len(decisions), len(tasks))
	}
	var winners []IRPair
	for i := range decisions {
		if decisions[i].Admitted {
			winners = append(winners, IRPair{
				TaskID:  tasks[i].ID,
				Bid:     tasks[i].Bid,
				Payment: decisions[i].Payment(),
			})
		}
	}
	if n >= len(winners) {
		return winners, nil
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(winners), func(i, j int) { winners[i], winners[j] = winners[j], winners[i] })
	winners = winners[:n]
	sort.Slice(winners, func(i, j int) bool { return winners[i].TaskID < winners[j].TaskID })
	return winners, nil
}

// VerifyIR checks Definition 3 over the audit: every winner pays at most
// its bid.
func VerifyIR(pairs []IRPair, tol float64) error {
	for _, p := range pairs {
		if p.Payment > p.Bid+tol {
			return fmt.Errorf("auction: task %d pays %v above its bid %v", p.TaskID, p.Payment, p.Bid)
		}
	}
	return nil
}
