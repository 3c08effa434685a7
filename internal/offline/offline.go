// Package offline builds the paper's problem (4) — the full joint
// admission/vendor/placement integer program over the whole horizon — as a
// MILP and solves it with internal/milp. Its optimum is the OPT of
// Definition 4, the denominator-free reference for the empirical
// competitive ratio experiment (Figure 12). For instances too large to
// prove optimality within budget, the solver's dual bound still upper-
// bounds OPT, which yields a conservative (over-)estimate of the ratio.
package offline

import (
	"fmt"
	"math"
	"sort"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/lp"
	"github.com/pdftsp/pdftsp/internal/milp"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// Instance is one offline problem: the cluster (fresh ledger), the full
// task list, the shared model (for s_ik), and the vendor marketplace.
type Instance struct {
	Cluster *cluster.Cluster
	Tasks   []task.Task
	Model   lora.ModelConfig
	Market  *vendor.Marketplace
}

// MaxVariables guards against accidentally building an intractable model.
const MaxVariables = 200000

// sortedKeys returns a (k,t)-keyed map's keys in (k, then t) order.
func sortedKeys[V any](idx map[[2]int]V) [][2]int {
	keys := make([][2]int, 0, len(idx))
	for kt := range idx {
		keys = append(keys, kt)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	return keys
}

// Model is the built MILP plus the variable maps needed to decode it.
type Model struct {
	Prob *milp.Problem
	// UIdx[i] is u_i's variable index.
	UIdx []int
	// XIdx[i] maps (k,t) to x_ikt's index for task i.
	XIdx []map[[2]int]int
	// ZIdx[i] maps vendor n to z_in's index (nil when f_i = 0).
	ZIdx []map[int]int
	// Speeds[i][k] is s_ik.
	Speeds [][]int
	// Quotes[i] are the vendor quotes for task i (nil when f_i = 0).
	Quotes [][]vendor.Quote
}

// Build assembles problem (4):
//
//	max  Σ b_i u_i − Σ q_in z_in − Σ e_ikt x_ikt
//	s.t. (4a) Σ_n z_in ≥ u_i and ≤ 1             for prep tasks
//	     (4b,4c) Σ_k x_ikt + Σ_{n slow for t} z_in ≤ 1
//	     (4d) encoded by creating x_ikt only for t ≤ d_i
//	     (4e) Σ s_ik x_ikt ≥ M_i u_i
//	     (4f) Σ_i s_ik x_ikt ≤ C_kp              per (k,t)
//	     (4g) Σ_i r_i x_ikt ≤ C_km − r_b         per (k,t)
func Build(inst Instance) (*Model, error) {
	cl := inst.Cluster
	if cl == nil {
		return nil, fmt.Errorf("offline: nil cluster")
	}
	h := cl.Horizon()
	K := cl.NumNodes()
	I := len(inst.Tasks)
	if I == 0 {
		return nil, fmt.Errorf("offline: no tasks")
	}

	m := &Model{
		UIdx:   make([]int, I),
		XIdx:   make([]map[[2]int]int, I),
		ZIdx:   make([]map[int]int, I),
		Speeds: make([][]int, I),
		Quotes: make([][]vendor.Quote, I),
	}
	var obj []float64
	newVar := func(c float64) int {
		obj = append(obj, c)
		return len(obj) - 1
	}

	// Variables.
	for i := range inst.Tasks {
		t := &inst.Tasks[i]
		m.UIdx[i] = newVar(t.Bid)
		m.Speeds[i] = make([]int, K)
		minDelay := 0
		if t.NeedsPrep {
			if inst.Market == nil {
				return nil, fmt.Errorf("offline: task %d needs pre-processing but no marketplace", t.ID)
			}
			m.Quotes[i] = inst.Market.QuotesFor(t.ID)
			m.ZIdx[i] = make(map[int]int, len(m.Quotes[i]))
			minDelay = math.MaxInt
			for _, q := range m.Quotes[i] {
				m.ZIdx[i][q.Vendor] = newVar(-q.Price)
				if q.DelaySlots < minDelay {
					minDelay = q.DelaySlots
				}
			}
		}
		m.XIdx[i] = make(map[[2]int]int)
		window := t.ExecWindow(h, minDelay)
		for k := 0; k < K; k++ {
			s := lora.TaskUnitsPerSlot(inst.Model, cl.Node(k).Spec, int(t.Batch), h)
			if t.MemGB > cl.TaskMemCap(k) {
				s = 0
			}
			m.Speeds[i][k] = s
			if s <= 0 {
				continue
			}
			for tt := window.Start; tt <= window.End; tt++ {
				m.XIdx[i][[2]int{k, tt}] = newVar(-cl.EnergyCost(k, tt, s))
			}
		}
	}
	if len(obj) > MaxVariables {
		return nil, fmt.Errorf("offline: model has %d variables (max %d); shrink the instance", len(obj), MaxVariables)
	}

	prob := &milp.Problem{LP: lp.Problem{NumVars: len(obj), Objective: obj}}
	prob.Binary = make([]int, len(obj))
	for j := range prob.Binary {
		prob.Binary[j] = j
	}

	// Constraints per task. Every map below is iterated in sorted key
	// order: constraint and term order steer simplex pivoting, so with a
	// binding node or iteration budget a randomized map order would make
	// the dual bound — and hence Figure 12 — vary run to run.
	for i := range inst.Tasks {
		t := &inst.Tasks[i]
		// (4a): quote order fixes the z term order.
		if t.NeedsPrep {
			geTerms := []lp.Term{{Var: m.UIdx[i], Coef: -1}}
			leTerms := make([]lp.Term, 0, len(m.ZIdx[i]))
			for _, q := range m.Quotes[i] {
				zv := m.ZIdx[i][q.Vendor]
				geTerms = append(geTerms, lp.Term{Var: zv, Coef: 1})
				leTerms = append(leTerms, lp.Term{Var: zv, Coef: 1})
			}
			prob.LP.AddConstraint(lp.GE, 0, geTerms...)
			prob.LP.AddConstraint(lp.LE, 1, leTerms...)
		}
		kts := sortedKeys(m.XIdx[i])
		// (4b) + (4c): per slot in the task's loosest window.
		slotTerms := map[int][]lp.Term{}
		var slots []int
		for _, kt := range kts {
			if len(slotTerms[kt[1]]) == 0 {
				slots = append(slots, kt[1])
			}
			slotTerms[kt[1]] = append(slotTerms[kt[1]], lp.Term{Var: m.XIdx[i][kt], Coef: 1})
		}
		sort.Ints(slots)
		for _, tt := range slots {
			terms := slotTerms[tt]
			if t.NeedsPrep {
				for _, q := range m.Quotes[i] {
					if int(t.Arrival)+q.DelaySlots > tt {
						terms = append(terms, lp.Term{Var: m.ZIdx[i][q.Vendor], Coef: 1})
					}
				}
			}
			prob.LP.AddConstraint(lp.LE, 1, terms...)
		}
		// (4e): Σ s_ik x_ikt − M_i u_i ≥ 0.
		eTerms := []lp.Term{{Var: m.UIdx[i], Coef: -float64(t.Work)}}
		for _, kt := range kts {
			eTerms = append(eTerms, lp.Term{Var: m.XIdx[i][kt], Coef: float64(m.Speeds[i][kt[0]])})
		}
		prob.LP.AddConstraint(lp.GE, 0, eTerms...)
		// Linking x ≤ u keeps rejected tasks from burning energy and
		// tightens the relaxation.
		for _, kt := range kts {
			prob.LP.AddConstraint(lp.LE, 0,
				lp.Term{Var: m.XIdx[i][kt], Coef: 1}, lp.Term{Var: m.UIdx[i], Coef: -1})
		}
	}

	// (4f)/(4g): capacity rows only for (k,t) cells any task can touch.
	capTerms := map[[2]int][]lp.Term{}
	memTerms := map[[2]int][]lp.Term{}
	for i := range inst.Tasks {
		t := &inst.Tasks[i]
		for _, kt := range sortedKeys(m.XIdx[i]) {
			xv := m.XIdx[i][kt]
			capTerms[kt] = append(capTerms[kt], lp.Term{Var: xv, Coef: float64(m.Speeds[i][kt[0]])})
			memTerms[kt] = append(memTerms[kt], lp.Term{Var: xv, Coef: t.MemGB})
		}
	}
	for _, c := range sortedKeys(capTerms) {
		prob.LP.AddConstraint(lp.LE, float64(cl.Node(c[0]).CapWork), capTerms[c]...)
	}
	for _, c := range sortedKeys(memTerms) {
		prob.LP.AddConstraint(lp.LE, cl.TaskMemCap(c[0]), memTerms[c]...)
	}

	m.Prob = prob
	return m, nil
}

// Result is the offline solve outcome.
type Result struct {
	// Status is the underlying MILP status.
	Status milp.Status
	// Welfare is the incumbent social welfare (valid unless BoundOnly).
	Welfare float64
	// Bound upper-bounds the true offline optimum OPT.
	Bound float64
	// Admitted[i] reports u_i in the incumbent.
	Admitted []bool
	// Nodes is the branch-and-bound effort.
	Nodes int
}

// greedyWarmStart packs tasks in bid order with an EFT-style heuristic
// over the model's variable space, producing a feasible MIP start that
// lets branch-and-bound prune from the first node.
func greedyWarmStart(inst Instance, m *Model) []float64 {
	cl := inst.Cluster
	h := cl.Horizon()
	x := make([]float64, m.Prob.LP.NumVars)
	// Local remaining-capacity ledgers.
	K := cl.NumNodes()
	capW := make([][]int, K)
	capM := make([][]float64, K)
	for k := 0; k < K; k++ {
		capW[k] = make([]int, h.T)
		capM[k] = make([]float64, h.T)
		for t := 0; t < h.T; t++ {
			capW[k][t] = cl.Node(k).CapWork
			capM[k][t] = cl.TaskMemCap(k)
		}
	}
	order := make([]int, len(inst.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return inst.Tasks[order[a]].Bid > inst.Tasks[order[b]].Bid })

	for _, i := range order {
		t := &inst.Tasks[i]
		// Vendor choice: cheapest workable quote (or none).
		type option struct {
			vendor int
			price  float64
			delay  int
		}
		options := []option{{vendor: -1}}
		if t.NeedsPrep {
			options = options[:0]
			for _, q := range m.Quotes[i] {
				options = append(options, option{q.Vendor, q.Price, q.DelaySlots})
			}
			sort.Slice(options, func(a, b int) bool { return options[a].price < options[b].price })
		}
		for _, opt := range options {
			window := t.ExecWindow(h, opt.delay)
			var picks [][2]int
			work := 0
			energy := 0.0
			for tt := window.Start; tt <= window.End && work < int(t.Work) && window.Len() > 0; tt++ {
				bestK, bestS := -1, 0
				for k := 0; k < K; k++ {
					s := m.Speeds[i][k]
					if s <= bestS || s > capW[k][tt] || t.MemGB > capM[k][tt] {
						continue
					}
					if _, ok := m.XIdx[i][[2]int{k, tt}]; !ok {
						continue
					}
					bestK, bestS = k, s
				}
				if bestK >= 0 {
					picks = append(picks, [2]int{bestK, tt})
					work += bestS
					energy += cl.EnergyCost(bestK, tt, bestS)
				}
			}
			if work < int(t.Work) {
				continue
			}
			if t.Bid-opt.price-energy <= 0 {
				continue // welfare-negative: skip this task entirely
			}
			// Commit.
			x[m.UIdx[i]] = 1
			if opt.vendor >= 0 {
				x[m.ZIdx[i][opt.vendor]] = 1
			}
			for _, kt := range picks {
				x[m.XIdx[i][kt]] = 1
				capW[kt[0]][kt[1]] -= m.Speeds[i][kt[0]]
				capM[kt[0]][kt[1]] -= t.MemGB
			}
			break
		}
	}
	return x
}

// Solve builds and solves the instance, warm-starting the search with a
// greedy packing.
func Solve(inst Instance, opts milp.Options) (*Result, error) {
	m, err := Build(inst)
	if err != nil {
		return nil, err
	}
	if opts.WarmStart == nil {
		opts.WarmStart = greedyWarmStart(inst, m)
	}
	res, err := milp.Solve(m.Prob, opts)
	if err != nil {
		return nil, err
	}
	out := &Result{Status: res.Status, Welfare: res.Objective, Bound: res.Bound, Nodes: res.Nodes}
	if res.X != nil {
		out.Admitted = make([]bool, len(inst.Tasks))
		for i := range inst.Tasks {
			out.Admitted[i] = res.X[m.UIdx[i]] > 0.5
		}
	}
	if math.IsInf(out.Welfare, -1) {
		out.Welfare = 0 // admitting nothing is always feasible
		if out.Bound < 0 {
			out.Bound = 0
		}
	}
	return out, nil
}
