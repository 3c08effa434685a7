// Package core implements pdFTSP, the paper's primary contribution: the
// online primal-dual algorithm that jointly schedules and prices
// multi-LoRA fine-tuning tasks (Section 3).
//
// For every arriving task (bid), the Scheduler
//
//  1. runs the per-task schedule-selection dynamic program of Algorithm 2
//     for each labor vendor, minimizing the price-adjusted execution cost
//     of problem (12),
//  2. computes the surplus F(il) of equation (10) for the best plan,
//  3. admits the task iff F(il) > 0 and the capacity check of Algorithm 1
//     line 8 passes, updating the dual resource prices λ_kt and φ_kt per
//     equations (7)–(8) whenever F(il) > 0, and
//  4. charges a winning bid the resource-price payment p_i of equation
//     (14), which is independent of its bid — the source of truthfulness
//     (Theorem 3) and individual rationality (Theorem 4).
package core

import (
	"fmt"
	"math"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// DualRule selects how the dual prices grow. PaperRule is equations
// (7)–(8); the others are ablations (DESIGN.md Section 6).
type DualRule int

// Dual update rules.
const (
	// PaperRule is the paper's combined multiplicative+additive update.
	PaperRule DualRule = iota
	// AdditiveOnly drops the multiplicative term.
	AdditiveOnly
	// MultiplicativeOnly drops the additive term, seeding an untouched
	// price with the additive increment so prices can leave zero.
	MultiplicativeOnly
)

// String implements fmt.Stringer.
func (r DualRule) String() string {
	switch r {
	case PaperRule:
		return "paper"
	case AdditiveOnly:
		return "additive"
	case MultiplicativeOnly:
		return "multiplicative"
	default:
		return fmt.Sprintf("DualRule(%d)", int(r))
	}
}

// Options configures the scheduler.
type Options struct {
	// Alpha is the compute-price coefficient α of equation (7); per
	// Lemma 2 it should be (at least) max_i b_i/M_i.
	Alpha float64
	// Beta is the memory-price coefficient β of equation (8); per
	// Lemma 2 it should be (at least) max_i b_i/r_i.
	Beta float64
	// MaskFullCells, when set, makes the Algorithm-2 DP skip (k,t) cells
	// that cannot host the task under the current ledger, instead of
	// relying solely on Lemma-2 price saturation. Extension ablation.
	MaskFullCells bool
	// ChargeEnergy, when set, adds the plan's operational cost to the
	// payment so that F(il) = b_i − p_i holds exactly (the paper's
	// payment (14) omits the energy term). Extension ablation.
	ChargeEnergy bool
	// DualRule selects the dual price update; default PaperRule.
	DualRule DualRule
	// ReusePlans, when set, makes Offer return Decisions whose Schedule
	// (and its Placements) and Terms alias scheduler-owned buffers that
	// the next Offer overwrites. It removes the last per-bid allocations
	// from the hot loop; callers that retain a Decision past the next
	// Offer must deep-copy its Schedule and Terms first. Off by default:
	// the Decision is then caller-owned forever.
	ReusePlans bool
}

// Validate reports option errors.
func (o Options) Validate() error {
	// Written so that NaN fails too: an infinite or NaN coefficient would
	// price every cell a plan touches at Inf/NaN from the first admission.
	if !(o.Alpha > 0 && o.Beta > 0) || math.IsInf(o.Alpha, 1) || math.IsInf(o.Beta, 1) {
		return fmt.Errorf("core: alpha and beta must be positive and finite, got %v/%v (Lemma 2)", o.Alpha, o.Beta)
	}
	if o.DualRule < PaperRule || o.DualRule > MultiplicativeOnly {
		return fmt.Errorf("core: unknown dual rule %d", o.DualRule)
	}
	return nil
}

// Scheduler is the pdFTSP online scheduler. It owns the dual state and
// commits admitted plans into the cluster ledger. Not safe for concurrent
// use: bids are processed sequentially, as in the paper's online model
// (parallel experiment runs give every goroutine its own Scheduler).
type Scheduler struct {
	cl   *cluster.Cluster
	opts Options
	// lambda[k][t] is λ_kt, the compute shadow price; phi[k][t] is φ_kt,
	// the memory shadow price.
	lambda, phi [][]float64
	// scratch backs Offer (the scheduler is single-threaded by the online
	// model, so reuse is safe).
	scratch offerScratch
	// decSched/decPlan/decTerms back the Decision returned under
	// Options.ReusePlans: one schedule struct, placement buffer and terms,
	// overwritten per offer.
	decSched schedule.Schedule
	decPlan  []schedule.Placement
	decTerms schedule.Terms
	// termSlab hands out the caller-owned Terms of admitted bids; a full
	// slab is left to its retainers and a fresh one started.
	termSlab []schedule.Terms
	// obs receives decision-path events (per-vendor DP outcomes, dual
	// moves, payment breakdowns); nil keeps the hot path allocation-free.
	obs obs.Observer
}

// offerScratch is the per-offer scratch state of one DP execution: every
// buffer Offer reuses across bids.
type offerScratch struct {
	// Speed groups of the current offer: nodeGroup[k] is candidate k's
	// group (-1 when it cannot run the task), groupSpeed[g] the speed its
	// nodes share.
	nodeGroup  []int32
	groupSpeed []int32
	// Per (slot τ, group g), at τ*G+g: the least Δ_kt in the group, the
	// candidate position of its earliest node, and the least Δ_kt among
	// the group's candidates before that one.
	groupBest []float64
	groupRep  []int32
	groupPrev []float64
	// visits is the current slot's visit list, in candidate order.
	visits []dpVisit
	// What the back-walk reads. visNode[visOff[τ]:visOff[τ+1]] are slot
	// τ's visited nodes; parent[τ*(W+1)+w] is 0 when cell (τ+1, w) idles
	// and u+1 when it ran slot τ's u-th visited node; satFrom[τ] is the
	// predecessor work level of a run into the saturated column w = W.
	visNode []uint16
	visOff  []int32
	parent  []uint16
	satFrom []int32
	// costRows holds the two rolling W+1 cost rows dp[τ] and dp[τ+1].
	costRows []float64
	// candidateNodes' list, built once.
	allNodes []int
	// Placement double-buffer: findSchedule writes the current quote's
	// plan into planBuf[planCur]; bestSchedule flips planCur when it
	// adopts a plan as the incumbent best so the next quote's DP cannot
	// overwrite it. Only the final winner is cloned to a fresh slice.
	planBuf [2][]schedule.Placement
	planCur int
	// fullPrefix[k] is the first slot on node k not yet proven
	// work-saturated: every slot below it has RemainingWork == 0, so the
	// MaskFullCells DP skips it without consulting the ledger. Commit and
	// SetDown only shrink availability, keeping the prefix conservative;
	// genSeen tracks cluster.Generation so Release/Reset/Restore clear it.
	// The prefix is an exact cache: it only records provably-saturated
	// cells.
	fullPrefix []int32
	genSeen    uint64
}

// dpVisit is one node the DP's inner loop visits in a slot: its position
// in the candidate list, its speed and its Δ_kt.
type dpVisit struct {
	pos   int32
	speed int32
	delta float64
}

// New creates a scheduler bound to the cluster. The cluster's ledger is
// the scheduler's primal commitment state.
func New(cl *cluster.Cluster, opts Options) (*Scheduler, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	K, T := cl.NumNodes(), cl.Horizon().T
	s := &Scheduler{cl: cl, opts: opts}
	s.lambda = make([][]float64, K)
	s.phi = make([][]float64, K)
	lamBack := make([]float64, K*T)
	phiBack := make([]float64, K*T)
	for k := 0; k < K; k++ {
		s.lambda[k], lamBack = lamBack[:T:T], lamBack[T:]
		s.phi[k], phiBack = phiBack[:T:T], phiBack[T:]
	}
	s.scratch.fullPrefix = make([]int32, K)
	s.scratch.genSeen = cl.Generation()
	return s, nil
}

// Name identifies the scheduler in experiment output.
func (s *Scheduler) Name() string { return "pdFTSP" }

// Options returns the scheduler's configuration.
func (s *Scheduler) Options() Options { return s.opts }

// Lambda returns λ_kt after the bids processed so far.
func (s *Scheduler) Lambda(k, t int) float64 { return s.lambda[k][t] }

// Phi returns φ_kt after the bids processed so far.
func (s *Scheduler) Phi(k, t int) float64 { return s.phi[k][t] }

// Cluster returns the cluster the scheduler commits into.
func (s *Scheduler) Cluster() *cluster.Cluster { return s.cl }

// SetObserver attaches an event observer (obs.Observable). A nil observer
// disables emission entirely; every emission site is nil-guarded so the
// offer hot path stays allocation-free when nobody listens.
func (s *Scheduler) SetObserver(o obs.Observer) { s.obs = o }

// noPrepQuotes is the pseudo-marketplace for tasks without pre-processing:
// one "vendor" with zero price and delay, standing for z_i· = 0.
var noPrepQuotes = []vendor.Quote{{Vendor: schedule.NoVendor, Price: 0, DelaySlots: 0}}

// Offer processes one arriving bid (Algorithm 1, loop body) and returns
// the auction outcome. Admitted plans are committed into the cluster
// ledger immediately.
func (s *Scheduler) Offer(env *schedule.TaskEnv) schedule.Decision {
	d := schedule.Decision{TaskID: env.Task.ID, F: math.Inf(-1)}

	quotes := env.Quotes
	if !env.Task.NeedsPrep {
		quotes = noPrepQuotes
	} else if len(quotes) == 0 {
		// The task demands pre-processing but no vendor exists;
		// constraint (4a) is unsatisfiable.
		d.Reason = schedule.ReasonNoSchedule
		return d
	}

	// Algorithm 2: per vendor, find the cost-minimizing plan, then pick
	// the vendor maximizing F(il_n).
	candidates := s.candidateNodes()
	best, bestF, found := s.bestSchedule(env, quotes, candidates)
	if !found {
		d.Reason = schedule.ReasonNoSchedule
		return d
	}
	plan := s.finishPlan(&best)
	d.Schedule = plan
	d.F = bestF

	if bestF <= 0 {
		// Algorithm 1, line 13: reject; μ_i = 0, duals untouched.
		d.Reason = schedule.ReasonSurplus
		return d
	}

	// Payment (14) uses the pre-update marginal prices λ^(i-1), φ^(i-1).
	maxLam, maxPhi := s.maxPrices(plan)
	payment := plan.VendorPrice +
		maxLam*float64(plan.TotalWork(env)) +
		maxPhi*plan.TotalMem(env)
	energy := plan.EnergyCost(env)
	if s.opts.ChargeEnergy {
		payment += energy
	}

	// Algorithm 1, line 7: F(il) > 0 updates the duals even if the
	// capacity check below rejects the task (the "almost-feasible"
	// solution of Lemma 1 includes this task).
	s.updateDuals(env, plan)
	d.DualsUpdated = true

	// Algorithm 1, line 8: admit only if every placement truly fits.
	if !s.fits(env, plan) {
		d.Reason = schedule.ReasonCapacity
		return d
	}
	for _, p := range plan.Placements {
		s.cl.Commit(p.Node, p.Slot, env.Speed[p.Node], env.Task.MemGB)
	}
	d.Admitted = true
	d.Terms = s.finishTerms(payment, plan.VendorPrice, energy)
	if s.obs != nil {
		energyTerm := 0.0
		if s.opts.ChargeEnergy {
			energyTerm = energy
		}
		s.obs.OnPayment(&obs.PaymentEvent{
			TaskID:      env.Task.ID,
			VendorTerm:  plan.VendorPrice,
			ComputeTerm: maxLam * float64(plan.TotalWork(env)),
			MemoryTerm:  maxPhi * plan.TotalMem(env),
			EnergyTerm:  energyTerm,
			Total:       payment,
			MaxLambda:   maxLam,
			MaxPhi:      maxPhi,
		})
	}
	return d
}

// finishTerms is finishPlan for the winner's money, nil when it is all
// zero: under Options.ReusePlans a scheduler-owned Terms the next Offer
// overwrites, otherwise a caller-owned one from termSlab. Either way it
// shares no allocation with the plan, so a retainer that drops the plan
// does not keep it alive through the terms.
func (s *Scheduler) finishTerms(payment, vendorCost, energyCost float64) *schedule.Terms {
	t := schedule.Terms{Payment: payment, VendorCost: vendorCost, EnergyCost: energyCost}
	switch {
	case t == (schedule.Terms{}):
		return nil
	case s.opts.ReusePlans:
		s.decTerms = t
		return &s.decTerms
	}
	if len(s.termSlab) == cap(s.termSlab) {
		s.termSlab = make([]schedule.Terms, 0, termSlabLen)
	}
	s.termSlab = append(s.termSlab, t)
	return &s.termSlab[len(s.termSlab)-1]
}

// termSlabLen is how many winners' Terms one allocation serves: an
// admitted bid then costs no allocation beyond its plan's, and a slab is
// pointer-free, so a retained Terms keeps 1.5 KB alive at most, never a plan.
const termSlabLen = 64

// finishPlan turns the bestSchedule winner (whose Placements alias
// scratch) into the Decision's Schedule: scheduler-owned reusable buffers
// under Options.ReusePlans, a caller-owned deep copy otherwise.
func (s *Scheduler) finishPlan(best *schedule.Schedule) *schedule.Schedule {
	if s.opts.ReusePlans {
		// The winner aliases scheduler-owned buffers, valid until the
		// next Offer; retainers must deep-copy (see Options.ReusePlans).
		s.decPlan = append(s.decPlan[:0], best.Placements...)
		s.decSched = *best
		s.decSched.Placements = s.decPlan
		return &s.decSched
	}
	out := *best
	out.Placements = append([]schedule.Placement(nil), best.Placements...)
	return &out
}

// fits checks constraints (4f)/(4g) for every placement of the plan.
func (s *Scheduler) fits(env *schedule.TaskEnv, plan *schedule.Schedule) bool {
	for _, p := range plan.Placements {
		if !s.cl.CanPlace(p.Node, p.Slot, env.Speed[p.Node], env.Task.MemGB) {
			return false
		}
	}
	return true
}

// maxPrices returns max_{(k,t)∈l} λ^(i-1)_kt and max φ^(i-1)_kt for the
// plan — the marginal resource prices of equation (14).
func (s *Scheduler) maxPrices(plan *schedule.Schedule) (maxLam, maxPhi float64) {
	for _, p := range plan.Placements {
		if l := s.lambda[p.Node][p.Slot]; l > maxLam {
			maxLam = l
		}
		if f := s.phi[p.Node][p.Slot]; f > maxPhi {
			maxPhi = f
		}
	}
	return maxLam, maxPhi
}

// surplus computes F(il) per equation (10):
// F = b_il − max λ · Σ s_kt(il) − max φ · Σ r_kt(il).
func (s *Scheduler) surplus(env *schedule.TaskEnv, plan *schedule.Schedule) float64 {
	maxLam, maxPhi := s.maxPrices(plan)
	return plan.WelfareIncrement(env) -
		maxLam*float64(plan.TotalWork(env)) -
		maxPhi*plan.TotalMem(env)
}

// updateDuals applies equations (7)–(8) to the (k,t) cells of the plan.
func (s *Scheduler) updateDuals(env *schedule.TaskEnv, plan *schedule.Schedule) {
	bbar := plan.NormalizedWelfare(env)
	for _, p := range plan.Placements {
		k, t := p.Node, p.Slot
		sk := float64(env.Speed[k])
		capP := float64(s.cl.Node(k).CapWork)
		rk := env.Task.MemGB
		capM := s.cl.TaskMemCap(k)
		lamBefore, phiBefore := s.lambda[k][t], s.phi[k][t]
		switch s.opts.DualRule {
		case AdditiveOnly:
			s.lambda[k][t] += s.opts.Alpha * bbar * sk / capP
			s.phi[k][t] += s.opts.Beta * bbar * rk / capM
		case MultiplicativeOnly:
			if s.lambda[k][t] == 0 {
				s.lambda[k][t] = s.opts.Alpha * bbar * sk / capP
			} else {
				s.lambda[k][t] *= 1 + sk/capP
			}
			if s.phi[k][t] == 0 {
				s.phi[k][t] = s.opts.Beta * bbar * rk / capM
			} else {
				s.phi[k][t] *= 1 + rk/capM
			}
		default: // PaperRule, equations (7) and (8)
			s.lambda[k][t] = s.lambda[k][t]*(1+sk/capP) + s.opts.Alpha*bbar*sk/capP
			s.phi[k][t] = s.phi[k][t]*(1+rk/capM) + s.opts.Beta*bbar*rk/capM
		}
		if s.obs != nil {
			s.obs.OnDual(&obs.DualEvent{
				TaskID:       env.Task.ID,
				Node:         k,
				Slot:         t,
				LambdaBefore: lamBefore,
				LambdaAfter:  s.lambda[k][t],
				PhiBefore:    phiBefore,
				PhiAfter:     s.phi[k][t],
			})
		}
	}
}

// candidateNodes returns the node set the DP scans: every node, the
// paper's exact Algorithm 2.
func (s *Scheduler) candidateNodes() []int {
	sc := &s.scratch
	if sc.allNodes == nil {
		sc.allNodes = make([]int, s.cl.NumNodes())
		for k := range sc.allNodes {
			sc.allNodes[k] = k
		}
	}
	return sc.allNodes
}

// bestSchedule implements Algorithm 2: for each vendor quote, run the
// findSchedule DP, evaluate F(il_n), and return the plan maximizing it.
// The winner's Placements alias scratch buffers; Offer keeps them only
// through finishPlan.
func (s *Scheduler) bestSchedule(env *schedule.TaskEnv, quotes []vendor.Quote, candidates []int) (schedule.Schedule, float64, bool) {
	var best schedule.Schedule
	found := false
	bestF := math.Inf(-1)
	for _, q := range quotes {
		plan, ok := s.findSchedule(env, q, candidates)
		if !ok {
			if s.obs != nil {
				window := env.Task.ExecWindow(s.cl.Horizon(), q.DelaySlots)
				s.obs.OnVendor(&obs.VendorEvent{
					TaskID:      env.Task.ID,
					Vendor:      q.Vendor,
					Price:       q.Price,
					DelaySlots:  q.DelaySlots,
					WindowStart: window.Start,
					WindowEnd:   window.End,
					Candidates:  len(candidates),
				})
			}
			continue
		}
		f := s.surplus(env, &plan)
		isBest := f > bestF
		if s.obs != nil {
			window := env.Task.ExecWindow(s.cl.Horizon(), q.DelaySlots)
			s.obs.OnVendor(&obs.VendorEvent{
				TaskID:      env.Task.ID,
				Vendor:      q.Vendor,
				Price:       q.Price,
				DelaySlots:  q.DelaySlots,
				WindowStart: window.Start,
				WindowEnd:   window.End,
				Candidates:  len(candidates),
				Feasible:    true,
				Cost:        s.planCost(env, &plan),
				Surplus:     f,
				Best:        isBest,
			})
		}
		if isBest {
			best, bestF, found = plan, f, true
			// Protect the incumbent's scratch buffer from the next DP.
			s.scratch.planCur ^= 1
		}
	}
	if !found {
		return schedule.Schedule{}, math.Inf(-1), false
	}
	return best, bestF, true
}

// planCost recomputes a plan's price-adjusted execution cost — the
// Algorithm-2 DP objective Σ_(k,t) s_ik·λ_kt + r_i·φ_kt + e_ikt — for
// trace emission. The DP minimizes exactly this sum, so the value equals
// the winning dp[L][W] entry.
func (s *Scheduler) planCost(env *schedule.TaskEnv, plan *schedule.Schedule) float64 {
	total := 0.0
	for _, p := range plan.Placements {
		sk := env.Speed[p.Node]
		total += float64(sk)*s.lambda[p.Node][p.Slot] +
			env.Task.MemGB*s.phi[p.Node][p.Slot] +
			s.cl.EnergyCost(p.Node, p.Slot, sk)
	}
	return total
}

// cellCost returns Δ_kt = s_ik·λ_kt + r_i·φ_kt + e_ikt for a candidate
// node with positive speed, or false when MaskFullCells rules the cell
// out. Slots are asked in ascending order per node, which the saturation
// prefix relies on.
func (s *Scheduler) cellCost(env *schedule.TaskEnv, k, slot int) (float64, bool) {
	sk := env.Speed[k]
	if s.opts.MaskFullCells {
		sc := &s.scratch
		// Slots below the saturation prefix are known full; skip them
		// without touching the ledger.
		if slot < int(sc.fullPrefix[k]) {
			return 0, false
		}
		if !s.cl.CanPlace(k, slot, sk, env.Task.MemGB) {
			// Extend the prefix only when the slot is full for every
			// possible task (zero free work), so the skip stays exact for
			// later offers with other speeds.
			if slot == int(sc.fullPrefix[k]) && s.cl.RemainingWork(k, slot) == 0 {
				sc.fullPrefix[k] = int32(slot + 1)
			}
			return 0, false
		}
	}
	return float64(sk)*s.lambda[k][slot] +
		env.Task.MemGB*s.phi[k][slot] +
		s.cl.EnergyCost(k, slot, sk), true
}

// dpInf marks unreachable DP states.
var dpInf = math.Inf(1)

// findSchedule is the dynamic program of Algorithm 2 (problem (12)):
// dp[τ][w] is the minimum price-adjusted cost of accumulating w work units
// using the first τ slots of the execution window, with per-cell cost
// Δ_kt = s_ik·λ_kt + r_i·φ_kt + e_ikt; work beyond W saturates at W (the
// final slot may overshoot M_i). It reports false when the task
// cannot accumulate M_i units inside the window. The returned plan's
// Placements alias the scratch (planBuf[planCur]); callers that keep the
// plan past the next findSchedule call must flip planCur or clone the
// slice (see bestSchedule).
//
// The DP runs over speed groups, not nodes (DESIGN.md §5): candidates
// with equal s_ik reach the same work level from the same cell, so per
// slot only each group's cheapest node (the earliest candidate on ties)
// can set a cell, and the inner loop visits one node per group. It
// returns the plan a scan of every candidate in candidate order would:
// the same dp values, and at every cell the first candidate that reached
// its minimum. The one way a costlier member of a group could still come
// first is rounding: cur+Δ_a == cur+Δ_b with Δ_a > Δ_b. An earlier member
// whose Δ lies within rounding distance of the group's cheapest, for the
// largest cost a cell can hold, is therefore visited too, in candidate
// order.
func (s *Scheduler) findSchedule(env *schedule.TaskEnv, q vendor.Quote, candidates []int) (schedule.Schedule, bool) {
	sc := &s.scratch
	t := env.Task
	h := s.cl.Horizon()
	window := t.ExecWindow(h, q.DelaySlots)
	L := window.Len()
	if L == 0 {
		return schedule.Schedule{}, false
	}
	W := int(t.Work)

	// Group the candidates by speed; zero-speed nodes join no group.
	if cap(sc.nodeGroup) < len(env.Speed) {
		sc.nodeGroup = make([]int32, len(env.Speed))
	}
	nodeGroup := sc.nodeGroup[:len(env.Speed)]
	groupSpeed := sc.groupSpeed[:0]
	for _, k := range candidates {
		sk := int32(env.Speed[k])
		if sk <= 0 {
			nodeGroup[k] = -1
			continue
		}
		g := 0
		for g < len(groupSpeed) && groupSpeed[g] != sk {
			g++
		}
		if g == len(groupSpeed) {
			groupSpeed = append(groupSpeed, sk)
		}
		nodeGroup[k] = int32(g)
	}
	sc.groupSpeed = groupSpeed
	G := len(groupSpeed)

	// The per-slot scratch is sized by the horizon (L ≤ T), so a new,
	// longer window does not regrow it.
	if T := h.T; cap(sc.groupBest) < T*G {
		sc.groupBest = make([]float64, T*G)
		sc.groupRep = make([]int32, T*G)
		sc.groupPrev = make([]float64, T*G)
		sc.visNode = make([]uint16, 0, T*G)
	}
	if sc.satFrom == nil {
		sc.satFrom = make([]int32, h.T)
		sc.visOff = make([]int32, h.T+1)
		sc.visits = make([]dpVisit, 0, len(candidates))
	}
	// Row τ of parent covers the step from dp[τ] to dp[τ+1].
	cells := L * (W + 1)
	if cap(sc.parent) < cells {
		sc.parent = make([]uint16, cells)
	}
	if cap(sc.costRows) < 2*(W+1) {
		sc.costRows = make([]float64, 2*(W+1))
	}
	groupBest, groupRep, groupPrev := sc.groupBest[:L*G], sc.groupRep[:L*G], sc.groupPrev[:L*G]
	parent, satFrom, visOff := sc.parent[:cells], sc.satFrom[:L], sc.visOff[:L+1]
	for i := range groupBest {
		groupBest[i], groupRep[i], groupPrev[i] = dpInf, -1, dpInf
	}

	// The saturation prefix survives across offers only while the ledger
	// moves monotonically toward full; any availability-increasing
	// mutation bumps the cluster generation and resets it.
	if s.opts.MaskFullCells && sc.genSeen != s.cl.Generation() {
		clear(sc.fullPrefix)
		sc.genSeen = s.cl.Generation()
	}

	// Δ_kt = s_ik·λ_kt + r_i·φ_kt + e_ikt does not depend on the
	// accumulated work w: compute it once per (candidate, slot), node by
	// node along its price rows, and keep each (slot, group)'s cheapest
	// and the largest |Δ_kt|.
	maxAbs := 0.0
	lo, hi := window.Start, window.Start+L
	for i, k := range candidates {
		g := int(nodeGroup[k])
		if g < 0 {
			continue
		}
		sk := float64(env.Speed[k])
		lam, phi, unit := s.lambda[k][lo:hi], s.phi[k][lo:hi], s.cl.UnitCosts(k)[lo:hi]
		for tau := range lam {
			var d float64
			if s.opts.MaskFullCells {
				var ok bool
				if d, ok = s.cellCost(env, k, lo+tau); !ok {
					continue
				}
			} else {
				// cellCost's sum, read along the node's rows: a cellCost
				// call or a unit-cost accessor per cell measurably slows
				// this loop (EXPERIMENTS.md, "Algorithm 2 by speed
				// class").
				d = sk*lam[tau] + t.MemGB*phi[tau] + sk*unit[tau]
			}
			j := tau*G + g
			if d < groupBest[j] {
				groupPrev[j], groupBest[j], groupRep[j] = groupBest[j], d, int32(i)
			}
			if a := math.Abs(d); a > maxAbs {
				maxAbs = a
			}
		}
	}

	cur, next := sc.costRows[:W+1], sc.costRows[W+1:2*(W+1)]
	for i := range cur {
		cur[i] = dpInf
	}
	cur[0] = 0
	visNode := sc.visNode[:0]
	for tau := 0; tau < L; tau++ {
		// A cost this slot produces is a rounded sum of at most τ+1 terms
		// of size ≤ maxAbs, so it lies within ±2(τ+1)·maxAbs, and two sums
		// cur+Δ_a, cur+Δ_b that round to the same such value differ by
		// less than thr: a candidate farther than thr above its group's
		// cheapest can never tie it. (No Δ is −Inf: prices and unit
		// energy costs never are.)
		thr := float64(tau+1)*maxAbs*0x1p-47 + 0x1p-1072
		visits := sc.visits[:0]
		for g := 0; g < G; g++ {
			j := tau*G + g
			rep := groupRep[j]
			if rep < 0 {
				continue
			}
			if groupPrev[j]-groupBest[j] >= thr {
				visits = append(visits, dpVisit{pos: rep, speed: groupSpeed[g], delta: groupBest[j]})
				continue
			}
			// An earlier candidate of the group may round to the same
			// cost: visit every such one too.
			for i, k := range candidates[:rep+1] {
				if nodeGroup[k] != int32(g) {
					continue
				}
				if d, ok := s.cellCost(env, k, window.Start+tau); ok && d < dpInf && !(d-groupBest[j] >= thr) {
					visits = append(visits, dpVisit{pos: int32(i), speed: groupSpeed[g], delta: d})
				}
			}
		}
		// From one predecessor w, runs of different speeds meet only in
		// the saturated column w = W; there, candidate order breaks ties
		// as a scan of every candidate would. Across predecessors, the
		// w-ascending loop below keeps the scan's order. There are a few
		// visits.
		for i := 1; i < len(visits); i++ {
			for j := i; j > 0 && visits[j].pos < visits[j-1].pos; j-- {
				visits[j], visits[j-1] = visits[j-1], visits[j]
			}
		}
		sc.visits = visits
		visOff[tau] = int32(len(visNode))
		for _, v := range visits {
			visNode = append(visNode, uint16(candidates[v.pos]))
		}

		// Every cell starts as its idle move (parent 0). A scan of every
		// candidate reaches a cell's idle move after every run into it,
		// and keeps the first move that reaches the minimum, so a run
		// beats idling on a tie and an earlier run beats a later one.
		copy(next, cur)
		par := parent[tau*(W+1) : (tau+1)*(W+1)]
		clear(par)
		for w := 0; w < W; w++ { // from w = W the task only idles
			c0 := cur[w]
			if c0 == dpInf {
				continue
			}
			for u, v := range visits {
				nw := w + int(v.speed)
				if nw > W {
					nw = W
				}
				if c := c0 + v.delta; c < next[nw] || c == next[nw] && par[nw] == 0 {
					next[nw] = c
					par[nw] = uint16(u + 1)
					if nw == W {
						satFrom[tau] = int32(w)
					}
				}
			}
		}
		cur, next = next, cur
	}
	visOff[L] = int32(len(visNode))
	sc.visNode = visNode
	if cur[W] == dpInf {
		return schedule.Schedule{}, false
	}

	// Reconstruct placements by walking parents back from (L, W) into the
	// scratch buffer (reverse order), then reverse in place.
	placements := sc.planBuf[sc.planCur][:0]
	w := W
	for tau := L - 1; tau >= 0; tau-- {
		p := parent[tau*(W+1)+w]
		if p == 0 {
			continue
		}
		k := int(visNode[int(visOff[tau])+int(p)-1])
		placements = append(placements, schedule.Placement{Node: k, Slot: window.Start + tau})
		if w == W {
			w = int(satFrom[tau])
		} else {
			w -= env.Speed[k]
		}
	}
	for i, j := 0, len(placements)-1; i < j; i, j = i+1, j-1 {
		placements[i], placements[j] = placements[j], placements[i]
	}
	sc.planBuf[sc.planCur] = placements
	vendorIdx := q.Vendor
	price, delay := q.Price, q.DelaySlots
	if !t.NeedsPrep {
		vendorIdx, price, delay = schedule.NoVendor, 0, 0
	}
	return schedule.Schedule{
		TaskID:      t.ID,
		Vendor:      vendorIdx,
		VendorPrice: price,
		VendorDelay: delay,
		Placements:  placements,
	}, true
}
