// Package cluster models the provider's GPU data center: the set of compute
// nodes, their per-slot compute and memory capacities, the multi-LoRA base
// model residency, the time-varying unit energy cost, and the committed
// resource ledger that enforces constraints (4f) and (4g) of the paper.
//
// Compute is measured in integer "work units" (1 unit = 1,000 training
// samples; see DESIGN.md Section 5), which keeps the Algorithm-2 dynamic
// program exact. Memory is measured in GB as a float.
package cluster

import (
	"fmt"
	"math"

	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// Node is one compute node k with capacities C_kp (work units per slot)
// and C_km (GB).
type Node struct {
	// ID is the node index within its cluster.
	ID int
	// Spec is the GPU model installed on this node.
	Spec gpu.Spec
	// CapWork is C_kp: the maximum work units the node can process per
	// slot, aggregated across all co-located LoRA tasks.
	CapWork int
	// CapMemGB is C_km: the total device memory in GB.
	CapMemGB float64
}

// Cluster is the provider's set of nodes over a slotted horizon, plus the
// committed-usage ledger.
type Cluster struct {
	nodes    []Node
	horizon  timeslot.Horizon
	baseGB   float64 // r_b: the shared pre-trained model replica per node
	usedWork [][]int
	usedMem  [][]float64
	tasksOn  [][]int // number of distinct task-slots committed (for NTM and reporting)
	// classes holds the node classes and their unit energy costs. It is
	// immutable after New, so clones share it.
	classes *classTable
	// workBack/memBack/cntBack are the flat K×T backing arrays behind the
	// ledger rows; Reset clears them in three calls instead of a per-cell
	// loop so pooled clusters are cheap to recycle.
	workBack []int
	memBack  []float64
	cntBack  []int
	// down marks (node, slot) cells unavailable due to injected failures;
	// nil until the first SetDown call.
	down [][]bool
	// elastic marks nodes whose capacity is rented from the spot market;
	// nil until the first MarkElastic call. An elastic node's cells are
	// unavailable unless covered by a lease.
	elastic []bool
	// leased[k][t] is true while elastic node k holds a capacity lease at
	// slot t; rows of non-elastic nodes are ignored. Allocated together
	// with elastic.
	leased [][]bool
	// gen counts mutations that can increase availability (Release, Reset,
	// Restore, Lease). Schedulers use it to invalidate saturation caches:
	// Commit, SetDown, and EndLease only shrink availability, so caches
	// that skip known-full cells stay conservative across them.
	gen uint64
}

// classTable groups nodes into classes: nodes with equal (Spec, CapWork,
// CapMemGB) have equal throughputs s_ik for every task and equal unit
// energy costs, so one row per class replaces one row per node.
type classTable struct {
	// of[k] is node k's class; classes are numbered in order of first
	// appearance, so node 0 is in class 0.
	of []uint16
	// cost[c][t] is the cost per work unit on any node of class c at
	// slot t.
	cost [][]float64
}

// Config configures a new cluster.
type Config struct {
	// Horizon is the slotted time horizon.
	Horizon timeslot.Horizon
	// BaseModelGB is r_b, the memory held by the shared pre-trained model
	// replica on every node that hosts at least one task.
	BaseModelGB float64
	// Price is the electricity price curve; nil means the default diurnal
	// curve.
	Price gpu.PriceCurve
}

// New builds a cluster from the given nodes. Node IDs are reassigned to
// their slice positions. It returns an error if any node is invalid or if
// the base model cannot fit on some node.
func New(cfg Config, nodes []Node) (*Cluster, error) {
	if cfg.Horizon.T <= 0 {
		return nil, fmt.Errorf("cluster: horizon must have positive T, got %d", cfg.Horizon.T)
	}
	if cfg.Horizon.T > math.MaxInt32 {
		// task.Task keeps its slots as int32; every slot a scheduler or
		// broker stamps into one comes from this horizon.
		return nil, fmt.Errorf("cluster: horizon %d exceeds %d slots", cfg.Horizon.T, math.MaxInt32)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if len(nodes) > math.MaxUint16 {
		// Node classes and the scheduler's DP parents index nodes as
		// uint16.
		return nil, fmt.Errorf("cluster: %d nodes exceed %d", len(nodes), math.MaxUint16)
	}
	if cfg.BaseModelGB < 0 {
		return nil, fmt.Errorf("cluster: negative base model size %v", cfg.BaseModelGB)
	}
	price := cfg.Price
	if price == nil {
		price = gpu.DefaultDiurnal()
	}
	c := &Cluster{
		nodes:   make([]Node, len(nodes)),
		horizon: cfg.Horizon,
		baseGB:  cfg.BaseModelGB,
	}
	copy(c.nodes, nodes)
	for i := range c.nodes {
		n := &c.nodes[i]
		n.ID = i
		if err := n.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		if n.CapWork <= 0 {
			return nil, fmt.Errorf("cluster: node %d has non-positive compute capacity %d", i, n.CapWork)
		}
		if n.CapMemGB <= cfg.BaseModelGB {
			return nil, fmt.Errorf("cluster: node %d memory %v cannot hold base model %v and any task",
				i, n.CapMemGB, cfg.BaseModelGB)
		}
	}
	K, T := len(c.nodes), cfg.Horizon.T
	c.usedWork = make([][]int, K)
	c.usedMem = make([][]float64, K)
	c.tasksOn = make([][]int, K)
	c.workBack = make([]int, K*T)
	c.memBack = make([]float64, K*T)
	c.cntBack = make([]int, K*T)
	workBack, memBack, cntBack := c.workBack, c.memBack, c.cntBack
	for k := 0; k < K; k++ {
		c.usedWork[k], workBack = workBack[:T:T], workBack[T:]
		c.usedMem[k], memBack = memBack[:T:T], memBack[T:]
		c.tasksOn[k], cntBack = cntBack[:T:T], cntBack[T:]
	}
	c.classes = newClassTable(c.nodes, price, cfg.Horizon)
	return c, nil
}

// newClassTable assigns every node its class and prices one unit-cost
// row per class.
func newClassTable(nodes []Node, price gpu.PriceCurve, h timeslot.Horizon) *classTable {
	// classKey is what a class shares; a NaN field never compares equal,
	// so such a node is a class of its own.
	type classKey struct {
		spec    gpu.Spec
		capWork int
		capMem  float64
	}
	ct := &classTable{of: make([]uint16, len(nodes))}
	index := make(map[classKey]uint16)
	for k, n := range nodes {
		key := classKey{n.Spec, n.CapWork, n.CapMemGB}
		c, ok := index[key]
		if !ok {
			c = uint16(len(ct.cost))
			index[key] = c
			row := make([]float64, h.T)
			for t := range row {
				// e_ikt = (s_ik / C_kp) * hourlyRate * mult(t) * slot hours
				//       = s_ik * cost[class(k)][t].
				row[t] = gpu.OpCostPerSlot(n.Spec, price, h, t) / float64(n.CapWork)
			}
			ct.cost = append(ct.cost, row)
		}
		ct.of[k] = c
	}
	return ct
}

// Uniform builds n identical nodes with the given spec and capacities.
func Uniform(n int, spec gpu.Spec, capWork int, capMemGB float64) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: i, Spec: spec, CapWork: capWork, CapMemGB: capMemGB}
	}
	return nodes
}

// NumNodes returns K.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Horizon returns the cluster's time horizon.
func (c *Cluster) Horizon() timeslot.Horizon { return c.horizon }

// Node returns node k by value.
func (c *Cluster) Node(k int) Node { return c.nodes[k] }

// Nodes returns a copy of the node list.
func (c *Cluster) Nodes() []Node {
	out := make([]Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// BaseModelGB returns r_b.
func (c *Cluster) BaseModelGB() float64 { return c.baseGB }

// TaskMemCap returns the memory available to tasks on node k, i.e.
// C_km − r_b per constraint (4g).
func (c *Cluster) TaskMemCap(k int) float64 { return c.nodes[k].CapMemGB - c.baseGB }

// Class returns node k's class. Nodes of one class have the same GPU spec
// and capacities, hence the same throughput s_ik for every task and the
// same unit energy costs. Classes are numbered 0..NumClasses()-1 in order
// of their first node.
func (c *Cluster) Class(k int) int { return int(c.classes.of[k]) }

// NumClasses returns the number of distinct node classes.
func (c *Cluster) NumClasses() int { return len(c.classes.cost) }

// UnitEnergyCost returns the dollar cost per work unit on node k at slot t.
// Executing s_ik units costs s_ik times this value, the paper's e_ikt.
func (c *Cluster) UnitEnergyCost(k, t int) float64 { return c.UnitCosts(k)[t] }

// UnitCosts returns node k's unit energy costs over the horizon: index t
// holds UnitEnergyCost(k, t). The row is shared by every node of k's
// class and by every clone, so callers read it and never write it.
func (c *Cluster) UnitCosts(k int) []float64 { return c.classes.cost[c.classes.of[k]] }

// EnergyCost returns e_ikt for a task running at work units per slot on
// node k at slot t.
func (c *Cluster) EnergyCost(k, t, workUnits int) float64 {
	return float64(workUnits) * c.UnitCosts(k)[t]
}

// UsedWork returns the committed work units on node k at slot t.
func (c *Cluster) UsedWork(k, t int) int { return c.usedWork[k][t] }

// UsedMem returns the committed task memory (GB, excluding the base model)
// on node k at slot t.
func (c *Cluster) UsedMem(k, t int) float64 { return c.usedMem[k][t] }

// TasksOn returns how many committed task-slots occupy node k at slot t.
func (c *Cluster) TasksOn(k, t int) int { return c.tasksOn[k][t] }

// CanPlace reports whether node k at slot t can additionally host a task
// consuming workUnits compute and memGB memory without violating (4f)/(4g).
func (c *Cluster) CanPlace(k, t, workUnits int, memGB float64) bool {
	if !c.horizon.Contains(t) || k < 0 || k >= len(c.nodes) {
		return false
	}
	if c.down != nil && c.down[k][t] {
		return false
	}
	if c.elastic != nil && c.elastic[k] && !c.leased[k][t] {
		return false
	}
	if c.usedWork[k][t]+workUnits > c.nodes[k].CapWork {
		return false
	}
	const eps = 1e-9
	return c.usedMem[k][t]+memGB <= c.TaskMemCap(k)+eps
}

// RemainingWork returns the free compute capacity on node k at slot t.
func (c *Cluster) RemainingWork(k, t int) int {
	if c.IsDown(k, t) || !c.Available(k, t) {
		return 0
	}
	return c.nodes[k].CapWork - c.usedWork[k][t]
}

// RemainingMem returns the free task memory on node k at slot t.
func (c *Cluster) RemainingMem(k, t int) float64 {
	if c.IsDown(k, t) || !c.Available(k, t) {
		return 0
	}
	return c.TaskMemCap(k) - c.usedMem[k][t]
}

// SetDown marks node k unavailable for slots [from, to] (clipped to the
// horizon). Failure injection uses it; CanPlace, RemainingWork, and
// RemainingMem report the cell as full afterwards.
func (c *Cluster) SetDown(k, from, to int) {
	if k < 0 || k >= len(c.nodes) {
		return
	}
	if c.down == nil {
		c.down = make([][]bool, len(c.nodes))
		back := make([]bool, len(c.nodes)*c.horizon.T)
		for i := range c.down {
			c.down[i], back = back[:c.horizon.T:c.horizon.T], back[c.horizon.T:]
		}
	}
	w := (timeslot.Window{Start: from, End: to}).ClipTo(c.horizon)
	for t := w.Start; t <= w.End && w.Len() > 0; t++ {
		c.down[k][t] = true
	}
}

// IsDown reports whether node k is failed at slot t.
func (c *Cluster) IsDown(k, t int) bool {
	return c.down != nil && c.horizon.Contains(t) && c.down[k][t]
}

// MarkElastic flags node k as spot-market capacity: its cells are
// unavailable (CanPlace false, Remaining* zero) until a Lease covers
// them. Marking is structural — it survives Reset — so pooled clusters
// stay bit-compatible with a freshly built elastic fleet.
func (c *Cluster) MarkElastic(k int) {
	if k < 0 || k >= len(c.nodes) {
		return
	}
	if c.elastic == nil {
		c.elastic = make([]bool, len(c.nodes))
		c.leased = make([][]bool, len(c.nodes))
		back := make([]bool, len(c.nodes)*c.horizon.T)
		for i := range c.leased {
			c.leased[i], back = back[:c.horizon.T:c.horizon.T], back[c.horizon.T:]
		}
	}
	c.elastic[k] = true
}

// IsElastic reports whether node k is spot-market capacity.
func (c *Cluster) IsElastic(k int) bool {
	return c.elastic != nil && k >= 0 && k < len(c.nodes) && c.elastic[k]
}

// Available reports whether node k's capacity exists at slot t: always
// true for on-demand nodes, true for elastic nodes only under a lease.
// Failure state is separate — see IsDown.
func (c *Cluster) Available(k, t int) bool {
	if c.elastic == nil || k < 0 || k >= len(c.nodes) || !c.elastic[k] {
		return true
	}
	return c.horizon.Contains(t) && c.leased[k][t]
}

// Lease opens elastic node k for slots [from, to] (clipped to the
// horizon). Leasing increases availability, so it bumps Generation —
// saturation caches must re-scan the newly opened cells.
func (c *Cluster) Lease(k, from, to int) {
	if !c.IsElastic(k) {
		return
	}
	w := (timeslot.Window{Start: from, End: to}).ClipTo(c.horizon)
	for t := w.Start; t <= w.End && w.Len() > 0; t++ {
		c.leased[k][t] = true
	}
	c.gen++
}

// EndLease withdraws elastic node k's lease over [from, to] (clipped).
// Shrinking availability needs no Generation bump. Committed work on the
// withdrawn cells is the caller's problem: a revocation must release or
// refund those placements (see sim.FailureTracker.Revoke).
func (c *Cluster) EndLease(k, from, to int) {
	if !c.IsElastic(k) {
		return
	}
	w := (timeslot.Window{Start: from, End: to}).ClipTo(c.horizon)
	for t := w.Start; t <= w.End && w.Len() > 0; t++ {
		c.leased[k][t] = false
	}
}

// Commit reserves workUnits and memGB on node k at slot t. It does not
// check capacity: Algorithm 1 deliberately lets the "almost-feasible"
// bookkeeping exceed capacity for at most one task per (k,t) (Lemma 2), so
// callers decide whether to check CanPlace first.
func (c *Cluster) Commit(k, t, workUnits int, memGB float64) {
	c.usedWork[k][t] += workUnits
	c.usedMem[k][t] += memGB
	c.tasksOn[k][t]++
}

// Release undoes a Commit with the same arguments.
func (c *Cluster) Release(k, t, workUnits int, memGB float64) {
	c.usedWork[k][t] -= workUnits
	c.usedMem[k][t] -= memGB
	c.tasksOn[k][t]--
	if c.usedWork[k][t] < 0 || c.usedMem[k][t] < -1e-9 || c.tasksOn[k][t] < 0 {
		panic(fmt.Sprintf("cluster: release below zero on node %d slot %d", k, t))
	}
	c.gen++
}

// Generation returns a counter that increases on every mutation that can
// make a previously full (k,t) cell available again (Release, Reset,
// Restore). Saturation caches compare it to decide when to re-scan.
func (c *Cluster) Generation() uint64 { return c.gen }

// Reset clears the committed ledger and any injected failures, returning
// the cluster to its freshly-built state while reusing the flat K×T
// backing arrays. Experiment repetitions and baseline replays recycle
// clusters through Reset instead of rebuilding them per point.
func (c *Cluster) Reset() {
	clear(c.workBack)
	clear(c.memBack)
	clear(c.cntBack)
	// A fresh cluster has down == nil; dropping the lazily-built failure
	// grid keeps Reset bit-compatible with New (Snapshot captures down
	// only when non-nil). Elastic marks are structural and survive, but
	// leases are runtime state and clear with the ledger.
	c.down = nil
	if c.leased != nil {
		for k := range c.leased {
			clear(c.leased[k])
		}
	}
	c.gen++
}

// Clone returns a deep copy of the cluster, including the ledger. Schedulers
// use clones for counterfactual runs (e.g., the truthfulness sweep).
func (c *Cluster) Clone() *Cluster {
	K, T := len(c.nodes), c.horizon.T
	out := &Cluster{
		nodes:   make([]Node, K),
		horizon: c.horizon,
		baseGB:  c.baseGB,
		classes: c.classes,
	}
	copy(out.nodes, c.nodes)
	out.usedWork = make([][]int, K)
	out.usedMem = make([][]float64, K)
	out.tasksOn = make([][]int, K)
	out.workBack = make([]int, K*T)
	out.memBack = make([]float64, K*T)
	out.cntBack = make([]int, K*T)
	workBack, memBack, cntBack := out.workBack, out.memBack, out.cntBack
	for k := 0; k < K; k++ {
		out.usedWork[k], workBack = workBack[:T:T], workBack[T:]
		out.usedMem[k], memBack = memBack[:T:T], memBack[T:]
		out.tasksOn[k], cntBack = cntBack[:T:T], cntBack[T:]
		copy(out.usedWork[k], c.usedWork[k])
		copy(out.usedMem[k], c.usedMem[k])
		copy(out.tasksOn[k], c.tasksOn[k])
	}
	if c.down != nil {
		out.down = make([][]bool, K)
		for k := 0; k < K; k++ {
			out.down[k] = append(make([]bool, 0, T), c.down[k]...)
		}
	}
	if c.elastic != nil {
		out.elastic = append([]bool(nil), c.elastic...)
		out.leased = make([][]bool, K)
		for k := 0; k < K; k++ {
			out.leased[k] = append(make([]bool, 0, T), c.leased[k]...)
		}
	}
	return out
}

// CheckLedger verifies the committed ledger against constraints (4f) and
// (4g): no cell may hold more work than C_kp or more task memory than
// C_km − r_b. Commit is deliberately unchecked (callers gate on
// CanPlace), so this is the audit-layer backstop that catches a scheduler
// committing past capacity.
func (c *Cluster) CheckLedger() error {
	const eps = 1e-9
	for k := range c.nodes {
		for t := 0; t < c.horizon.T; t++ {
			if c.usedWork[k][t] > c.nodes[k].CapWork {
				return fmt.Errorf("cluster: node %d slot %d committed %d work units, capacity %d",
					k, t, c.usedWork[k][t], c.nodes[k].CapWork)
			}
			if c.usedMem[k][t] > c.TaskMemCap(k)+eps {
				return fmt.Errorf("cluster: node %d slot %d committed %.6g GB, task capacity %.6g",
					k, t, c.usedMem[k][t], c.TaskMemCap(k))
			}
		}
	}
	return nil
}

// TotalCapacityWork returns T * Σ_k C_kp, the knapsack capacity from the
// paper's NP-hardness reduction (Theorem 1).
func (c *Cluster) TotalCapacityWork() int {
	sum := 0
	for _, n := range c.nodes {
		sum += n.CapWork
	}
	return sum * c.horizon.T
}

// Utilization returns the fraction of total compute capacity committed.
func (c *Cluster) Utilization() float64 {
	total, used := 0, 0
	for k, n := range c.nodes {
		total += n.CapWork * c.horizon.T
		for t := 0; t < c.horizon.T; t++ {
			used += c.usedWork[k][t]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}
