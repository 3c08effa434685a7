// Package baseline implements the three comparison algorithms of Section
// 5.1:
//
//   - EFT (Earliest Finish Time): picks the lowest-delay labor vendor and
//     packs the task onto compute nodes so it finishes as soon as possible.
//   - NTM (No Task Merging): like EFT but without multi-LoRA co-location —
//     at most one task per compute node per slot — and with a randomly
//     chosen labor vendor.
//   - Titan: the fine-tuning scheduler of Gao et al. adapted to the online
//     setting exactly as the paper does — at the beginning of each slot it
//     solves a MILP over the tasks that just arrived (vendor chosen
//     randomly), here with internal/milp standing in for Gurobi.
//
// The baselines are schedulers, not auctions: they charge no payments and
// admit any task they can feasibly complete before its deadline (the
// literal reading of Section 5.1 — EFT/NTM have no price signal, so they
// cannot tell a welfare-negative task from a positive one). A
// WelfareCheck option adds the b_il > 0 admission filter as an ablation;
// see DESIGN.md Section 5.
package baseline

import (
	"math/rand"
	"sort"

	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// VendorPolicy selects how a baseline picks the labor vendor.
type VendorPolicy int

// Vendor policies.
const (
	// FastestVendor minimizes h_in (EFT's rule).
	FastestVendor VendorPolicy = iota
	// RandomVendor picks uniformly (Titan's and NTM's rule in the paper).
	RandomVendor
	// CheapestVendor minimizes q_in (ablation).
	CheapestVendor
)

// pickQuote applies the policy; returns a zero-value no-vendor quote when
// the task needs no pre-processing.
func pickQuote(env *schedule.TaskEnv, policy VendorPolicy, rng *rand.Rand) (vendor.Quote, bool) {
	if !env.Task.NeedsPrep {
		return vendor.Quote{Vendor: schedule.NoVendor}, true
	}
	if len(env.Quotes) == 0 {
		return vendor.Quote{}, false
	}
	switch policy {
	case RandomVendor:
		return env.Quotes[rng.Intn(len(env.Quotes))], true
	case CheapestVendor:
		best := env.Quotes[0]
		for _, q := range env.Quotes[1:] {
			if q.Price < best.Price {
				best = q
			}
		}
		return best, true
	default: // FastestVendor
		best := env.Quotes[0]
		for _, q := range env.Quotes[1:] {
			if q.DelaySlots < best.DelaySlots ||
				(q.DelaySlots == best.DelaySlots && q.Price < best.Price) {
				best = q
			}
		}
		return best, true
	}
}

// Greedy is the shared finish-ASAP scheduler behind EFT and NTM.
type Greedy struct {
	name         string
	policy       VendorPolicy
	exclusive    bool // true = no multi-LoRA co-location (NTM)
	welfareCheck bool // true = reject plans with b_il ≤ 0 (ablation)
	rng          *rand.Rand
	obs          obs.Observer
}

// NewEFT builds the Earliest-Finish-Time baseline.
func NewEFT() *Greedy {
	return &Greedy{name: "EFT", policy: FastestVendor, rng: rand.New(rand.NewSource(1))}
}

// NewNTM builds the No-Task-Merging baseline: one task per node per slot.
func NewNTM(seed int64) *Greedy {
	return &Greedy{name: "NTM", policy: RandomVendor, exclusive: true, rng: rand.New(rand.NewSource(seed))}
}

// NewGreedy builds a custom greedy (used by the vendor-policy and
// admission ablations).
func NewGreedy(name string, policy VendorPolicy, exclusive bool, seed int64) *Greedy {
	return &Greedy{name: name, policy: policy, exclusive: exclusive, rng: rand.New(rand.NewSource(seed))}
}

// WithWelfareCheck returns the same scheduler with the b_il > 0 admission
// filter enabled (ablation: a welfare-aware greedy).
func (g *Greedy) WithWelfareCheck() *Greedy {
	g.welfareCheck = true
	return g
}

// Name identifies the scheduler.
func (g *Greedy) Name() string { return g.name }

// SetObserver attaches an event observer (obs.Observable).
func (g *Greedy) SetObserver(o obs.Observer) { g.obs = o }

// emitVendor reports the single vendor/plan choice the greedy made. The
// baselines have no dual prices, so Cost carries the plan's energy cost
// and Surplus its raw welfare increment.
func (g *Greedy) emitVendor(env *schedule.TaskEnv, q vendor.Quote, plan *schedule.Schedule) {
	window := env.Task.ExecWindow(env.Cluster.Horizon(), q.DelaySlots)
	e := obs.VendorEvent{
		TaskID:      env.Task.ID,
		Vendor:      q.Vendor,
		Price:       q.Price,
		DelaySlots:  q.DelaySlots,
		WindowStart: window.Start,
		WindowEnd:   window.End,
		Candidates:  env.Cluster.NumNodes(),
	}
	if plan != nil {
		e.Feasible = true
		e.Cost = plan.EnergyCost(env)
		e.Surplus = plan.WelfareIncrement(env)
		e.Best = true
	}
	g.obs.OnVendor(&e)
}

// Offer implements the scheduler contract: plan greedily, admit if the
// welfare increment is positive, commit to the ledger.
func (g *Greedy) Offer(env *schedule.TaskEnv) schedule.Decision {
	d := schedule.Decision{TaskID: env.Task.ID}
	q, ok := pickQuote(env, g.policy, g.rng)
	if !ok {
		d.Reason = schedule.ReasonNoSchedule
		return d
	}
	plan := g.plan(env, q)
	if g.obs != nil {
		g.emitVendor(env, q, plan)
	}
	if plan == nil {
		d.Reason = schedule.ReasonNoSchedule
		return d
	}
	d.Schedule = plan
	welfare := plan.WelfareIncrement(env)
	d.F = welfare // greedy "surplus" is the raw welfare increment
	if g.welfareCheck && welfare <= 0 {
		d.Reason = schedule.ReasonSurplus
		return d
	}
	for _, p := range plan.Placements {
		env.Cluster.Commit(p.Node, p.Slot, env.Speed[p.Node], env.Task.MemGB)
	}
	d.Admitted = true
	d.Terms = schedule.NewTerms(0, plan.VendorPrice, plan.EnergyCost(env))
	return d
}

// plan packs the task to finish as early as possible: scan slots forward,
// at each slot grab the fastest node with room (and, for NTM, no other
// task), stop once the work is covered.
func (g *Greedy) plan(env *schedule.TaskEnv, q vendor.Quote) *schedule.Schedule {
	t := env.Task
	cl := env.Cluster
	window := t.ExecWindow(cl.Horizon(), q.DelaySlots)
	if window.Len() == 0 {
		return nil
	}
	// Node order: fastest first so each used slot advances work most.
	order := make([]int, cl.NumNodes())
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool { return env.Speed[order[a]] > env.Speed[order[b]] })

	var placements []schedule.Placement
	remaining := int(t.Work)
	for tt := window.Start; tt <= window.End && remaining > 0; tt++ {
		for _, k := range order {
			sk := env.Speed[k]
			if sk <= 0 {
				continue
			}
			if g.exclusive && cl.TasksOn(k, tt) > 0 {
				continue
			}
			if !cl.CanPlace(k, tt, sk, t.MemGB) {
				continue
			}
			placements = append(placements, schedule.Placement{Node: k, Slot: tt})
			remaining -= sk
			break // constraint (4b): one node per slot
		}
	}
	if remaining > 0 {
		return nil
	}
	vendorIdx, price, delay := q.Vendor, q.Price, q.DelaySlots
	if !t.NeedsPrep {
		vendorIdx, price, delay = schedule.NoVendor, 0, 0
	}
	return &schedule.Schedule{
		TaskID:      t.ID,
		Vendor:      vendorIdx,
		VendorPrice: price,
		VendorDelay: delay,
		Placements:  placements,
	}
}
