package baseline

import (
	"math/rand"
	"sort"
	"time"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/lp"
	"github.com/pdftsp/pdftsp/internal/milp"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// TitanOptions tunes the Titan adaptation.
type TitanOptions struct {
	// Lookahead bounds the MILP horizon in slots beyond the current
	// slot; 0 means 36. Titan's own formulation plans the full horizon,
	// which is intractable without a commercial solver; a lookahead
	// window is the standard adaptation. The window must comfortably
	// cover typical task durations (small-batch tasks run for tens of
	// slots) or Titan rejects them outright.
	Lookahead int
	// SolveBudget caps the per-slot MILP wall-clock time; 0 means 250ms
	// (the anytime incumbent is used when the budget expires, matching
	// how one runs Gurobi with a time limit).
	SolveBudget time.Duration
	// MaxNodes caps branch-and-bound nodes per slot; 0 means 2000.
	MaxNodes int
	// GroupByType aggregates identical nodes into one capacity pool per
	// node class (cluster.Class: same GPU spec and capacities, hence the
	// same speed and unit energy cost) inside the MILP, then maps
	// placements back to concrete nodes first-fit. Keeps the MILP size
	// independent of the cluster size. Default true.
	GroupByType bool
	// MaxBatch splits oversized arrival bursts into sequential MILPs of
	// at most this many tasks (each chunk sees the previous chunks'
	// commitments); 0 means 24. Bursty traces (Philly) can deliver 50+
	// tasks in one slot, and a single MILP over all of them dwarfs the
	// solve budget.
	MaxBatch int
	// Seed drives the random vendor selection.
	Seed int64
}

// Titan is the paper's adapted Titan baseline: at the beginning of each
// slot it solves one MILP over the tasks that arrived at that slot
// (Section 5.1: "we solve the MILP via Gurobi at the beginning of each
// time slot for the tasks arrived at the beginning of the time slot.
// Additionally, we allow Titan to select the labor vendor in the
// marketplace randomly").
type Titan struct {
	opts TitanOptions
	rng  *rand.Rand
	obs  obs.Observer
}

// NewTitan builds the baseline.
func NewTitan(opts TitanOptions) *Titan {
	if opts.Lookahead <= 0 {
		opts.Lookahead = 36
	}
	if opts.SolveBudget <= 0 {
		opts.SolveBudget = 250 * time.Millisecond
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 2000
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 24
	}
	return &Titan{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Name identifies the scheduler.
func (t *Titan) Name() string { return "Titan" }

// SetObserver attaches an event observer (obs.Observable).
func (t *Titan) SetObserver(o obs.Observer) { t.obs = o }

// Offer handles a single task by delegating to BatchOffer; the simulator
// prefers BatchOffer so that same-slot arrivals share one MILP.
func (t *Titan) Offer(env *schedule.TaskEnv) schedule.Decision {
	return t.BatchOffer([]*schedule.TaskEnv{env})[0]
}

// groupKey buckets nodes: by node class when aggregating, else by node
// ID.
func (t *Titan) groupKey(cl *cluster.Cluster, k int) int {
	if t.opts.GroupByType {
		return cl.Class(k)
	}
	return k
}

// BatchOffer plans all the slot's arrivals with one MILP and commits the
// admitted plans. All environments must belong to tasks arriving at the
// same slot on the same cluster, which is how the simulator batches them.
func (t *Titan) BatchOffer(envs []*schedule.TaskEnv) []schedule.Decision {
	decisions := make([]schedule.Decision, len(envs))
	if len(envs) == 0 {
		return decisions
	}
	// Oversized bursts chunk into sequential MILPs.
	if t.opts.MaxBatch > 0 && len(envs) > t.opts.MaxBatch {
		for lo := 0; lo < len(envs); lo += t.opts.MaxBatch {
			hi := lo + t.opts.MaxBatch
			if hi > len(envs) {
				hi = len(envs)
			}
			copy(decisions[lo:hi], t.BatchOffer(envs[lo:hi]))
		}
		return decisions
	}
	cl := envs[0].Cluster
	h := cl.Horizon()
	now := int(envs[0].Task.Arrival)
	horizonEnd := now + t.opts.Lookahead
	if horizonEnd > h.T-1 {
		horizonEnd = h.T - 1
	}

	// Random vendor per task, fixed before the MILP (paper's rule).
	quotes := make([]vendor.Quote, len(envs))
	feasible := make([]bool, len(envs))
	for i, env := range envs {
		decisions[i].TaskID = env.Task.ID
		q, ok := pickQuote(env, RandomVendor, t.rng)
		if !ok {
			decisions[i].Reason = schedule.ReasonNoSchedule
			continue
		}
		quotes[i] = q
		feasible[i] = true
	}

	// Node groups with per-slot remaining capacity.
	type group struct {
		nodes []int
	}
	groupIdx := map[int]int{}
	var groups []group
	for k := 0; k < cl.NumNodes(); k++ {
		key := t.groupKey(cl, k)
		gi, ok := groupIdx[key]
		if !ok {
			gi = len(groups)
			groupIdx[key] = gi
			groups = append(groups, group{})
		}
		groups[gi].nodes = append(groups[gi].nodes, k)
	}

	// Build the MILP: u_i and x_{i,g,t}.
	var obj []float64
	newVar := func(c float64) int {
		obj = append(obj, c)
		return len(obj) - 1
	}
	uIdx := make([]int, len(envs))
	type xkey struct{ i, g, t int }
	xIdx := map[xkey]int{}
	for i, env := range envs {
		if !feasible[i] {
			uIdx[i] = -1
			continue
		}
		tk := env.Task
		uIdx[i] = newVar(tk.Bid - quotes[i].Price)
		start := int(tk.Arrival) + quotes[i].DelaySlots
		end := int(tk.Deadline)
		if end > horizonEnd {
			end = horizonEnd
		}
		for g := range groups {
			k0 := groups[g].nodes[0]
			if env.Speed[k0] <= 0 {
				continue
			}
			for tt := start; tt <= end; tt++ {
				xIdx[xkey{i, g, tt}] = newVar(-cl.EnergyCost(k0, tt, env.Speed[k0]))
			}
		}
	}
	if len(obj) == 0 {
		return decisions
	}
	prob := &milp.Problem{LP: lp.Problem{NumVars: len(obj), Objective: obj}}
	prob.Binary = make([]int, len(obj))
	for j := range prob.Binary {
		prob.Binary[j] = j
	}
	// (4b): one group per slot per task; (4e): enough work if admitted.
	for i, env := range envs {
		if !feasible[i] {
			continue
		}
		slotTerms := map[int][]lp.Term{}
		eTerms := []lp.Term{{Var: uIdx[i], Coef: -float64(env.Task.Work)}}
		for key, xv := range xIdx {
			if key.i != i {
				continue
			}
			slotTerms[key.t] = append(slotTerms[key.t], lp.Term{Var: xv, Coef: 1})
			eTerms = append(eTerms, lp.Term{Var: xv, Coef: float64(env.Speed[groups[key.g].nodes[0]])})
		}
		for _, terms := range slotTerms {
			prob.LP.AddConstraint(lp.LE, 1, terms...)
		}
		prob.LP.AddConstraint(lp.GE, 0, eTerms...)
	}
	// Group capacity per slot, net of the existing ledger.
	for g := range groups {
		for tt := now; tt <= horizonEnd; tt++ {
			var capLeft, memLeft float64
			for _, k := range groups[g].nodes {
				capLeft += float64(cl.RemainingWork(k, tt))
				memLeft += cl.RemainingMem(k, tt)
			}
			var capTerms, memTerms []lp.Term
			for i, env := range envs {
				if !feasible[i] {
					continue
				}
				if xv, ok := xIdx[xkey{i, g, tt}]; ok {
					capTerms = append(capTerms, lp.Term{Var: xv, Coef: float64(env.Speed[groups[g].nodes[0]])})
					memTerms = append(memTerms, lp.Term{Var: xv, Coef: env.Task.MemGB})
				}
			}
			if len(capTerms) > 0 {
				prob.LP.AddConstraint(lp.LE, capLeft, capTerms...)
				prob.LP.AddConstraint(lp.LE, memLeft, memTerms...)
			}
		}
	}

	// Greedy warm start over the MILP's own variable space: tasks in bid
	// order, first-fit into the group capacities. Guarantees an incumbent
	// even when the solve budget is too tight for the dive heuristic.
	warm := make([]float64, len(obj))
	{
		capLeft := map[[2]int]float64{} // (group, slot) -> work units
		memLeft := map[[2]int]float64{} // (group, slot) -> GB
		for g := range groups {
			for tt := now; tt <= horizonEnd; tt++ {
				var cw, cm float64
				for _, k := range groups[g].nodes {
					cw += float64(cl.RemainingWork(k, tt))
					cm += cl.RemainingMem(k, tt)
				}
				capLeft[[2]int{g, tt}] = cw
				memLeft[[2]int{g, tt}] = cm
			}
		}
		order := make([]int, 0, len(envs))
		for i := range envs {
			if feasible[i] {
				order = append(order, i)
			}
		}
		sort.Slice(order, func(a, b int) bool { return envs[order[a]].Task.Bid > envs[order[b]].Task.Bid })
		for _, i := range order {
			tk := envs[i].Task
			var picks []xkey
			work := 0
			start := int(tk.Arrival) + quotes[i].DelaySlots
			for tt := start; tt <= horizonEnd && tt <= int(tk.Deadline) && work < int(tk.Work); tt++ {
				bestG, bestS := -1, 0
				for g := range groups {
					s := envs[i].Speed[groups[g].nodes[0]]
					if s <= bestS {
						continue
					}
					if _, ok := xIdx[xkey{i, g, tt}]; !ok {
						continue
					}
					if capLeft[[2]int{g, tt}] < float64(s) || memLeft[[2]int{g, tt}] < tk.MemGB {
						continue
					}
					bestG, bestS = g, s
				}
				if bestG >= 0 {
					picks = append(picks, xkey{i, bestG, tt})
					work += bestS
				}
			}
			if work < int(tk.Work) {
				continue
			}
			warm[uIdx[i]] = 1
			for _, key := range picks {
				warm[xIdx[key]] = 1
				s := float64(envs[i].Speed[groups[key.g].nodes[0]])
				capLeft[[2]int{key.g, key.t}] -= s
				memLeft[[2]int{key.g, key.t}] -= tk.MemGB
			}
		}
	}

	res, err := milp.Solve(prob, milp.Options{
		MaxNodes:   t.opts.MaxNodes,
		TimeBudget: t.opts.SolveBudget,
		GapTol:     0.01,
		WarmStart:  warm,
	})
	if err != nil || res.X == nil {
		for i := range decisions {
			if decisions[i].Reason == 0 {
				decisions[i].Reason = schedule.ReasonNoSchedule
			}
		}
		return decisions
	}

	// Decode: map each (i, g, t) selection onto a concrete node
	// first-fit; a task whose mapping cannot cover its work is dropped.
	// Admit tasks in bid order so high-value tasks map first.
	order := make([]int, 0, len(envs))
	for i := range envs {
		if feasible[i] && res.X[uIdx[i]] > 0.5 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return envs[order[a]].Task.Bid > envs[order[b]].Task.Bid })
	for _, i := range order {
		env := envs[i]
		var placements []schedule.Placement
		work := 0
		var keys []xkey
		for key := range xIdx {
			if key.i == i && res.X[xIdx[key]] > 0.5 {
				keys = append(keys, key)
			}
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a].t < keys[b].t })
		for _, key := range keys {
			sk := env.Speed[groups[key.g].nodes[0]]
			for _, k := range groups[key.g].nodes {
				if cl.CanPlace(k, key.t, sk, env.Task.MemGB) {
					placements = append(placements, schedule.Placement{Node: k, Slot: key.t})
					cl.Commit(k, key.t, sk, env.Task.MemGB)
					work += sk
					break
				}
			}
			if work >= int(env.Task.Work) {
				break
			}
		}
		if work < int(env.Task.Work) {
			// Mapping failed: roll back and reject.
			for _, p := range placements {
				cl.Release(p.Node, p.Slot, env.Speed[p.Node], env.Task.MemGB)
			}
			decisions[i].Reason = schedule.ReasonCapacity
			continue
		}
		vendorIdx, price, delay := quotes[i].Vendor, quotes[i].Price, quotes[i].DelaySlots
		if !env.Task.NeedsPrep {
			vendorIdx, price, delay = schedule.NoVendor, 0, 0
		}
		plan := &schedule.Schedule{
			TaskID:      env.Task.ID,
			Vendor:      vendorIdx,
			VendorPrice: price,
			VendorDelay: delay,
			Placements:  placements,
		}
		welfare := plan.WelfareIncrement(env)
		if welfare <= 0 {
			for _, p := range placements {
				cl.Release(p.Node, p.Slot, env.Speed[p.Node], env.Task.MemGB)
			}
			decisions[i].Reason = schedule.ReasonSurplus
			decisions[i].Schedule = plan
			continue
		}
		decisions[i].Admitted = true
		decisions[i].Schedule = plan
		decisions[i].Terms = schedule.NewTerms(0, plan.VendorPrice, plan.EnergyCost(env))
		decisions[i].F = welfare
	}
	for i := range decisions {
		if !decisions[i].Admitted && decisions[i].Reason == 0 {
			decisions[i].Reason = schedule.ReasonSurplus
		}
	}
	if t.obs != nil {
		for i, env := range envs {
			if !feasible[i] {
				continue
			}
			window := env.Task.ExecWindow(h, quotes[i].DelaySlots)
			e := obs.VendorEvent{
				TaskID:      env.Task.ID,
				Vendor:      quotes[i].Vendor,
				Price:       quotes[i].Price,
				DelaySlots:  quotes[i].DelaySlots,
				WindowStart: window.Start,
				WindowEnd:   window.End,
				Candidates:  cl.NumNodes(),
			}
			if plan := decisions[i].Schedule; plan != nil {
				e.Feasible = true
				e.Cost = plan.EnergyCost(env)
				e.Surplus = plan.WelfareIncrement(env)
				e.Best = decisions[i].Admitted
			}
			t.obs.OnVendor(&e)
		}
	}
	return decisions
}
