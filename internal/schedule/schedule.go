// Package schedule implements the paper's problem reformulation (Section
// 3.2): a Schedule is a concrete pre-specified operation plan for one task
// — an assignment of values to {u_i, {x_ikt}, {z_in}} satisfying
// constraints (4a)–(4e). Selecting a schedule uniquely determines task
// admission, labor-vendor selection, and task execution.
//
// The package also defines TaskEnv, the bundle of per-task inputs every
// scheduler consumes (throughputs s_ik, vendor quotes, cluster state), and
// Decision, the auction outcome for one bid.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// NoVendor marks a schedule that uses no labor vendor (f_i = 0).
const NoVendor = -1

// Placement is one unit of execution: the task runs on Node for the whole
// of Slot, processing its s_ik work units (x_ikt = 1).
type Placement struct {
	Node, Slot int
}

// Schedule is one concrete operation plan l ∈ ζ_i for a task.
type Schedule struct {
	// TaskID identifies the task the plan belongs to.
	TaskID int
	// Vendor is the selected labor vendor index, or NoVendor.
	Vendor int
	// VendorPrice is q_in for the selected vendor (0 if none).
	VendorPrice float64
	// VendorDelay is h_in in slots for the selected vendor (0 if none).
	VendorDelay int
	// Placements lists the (node, slot) pairs with x_ikt = 1, sorted by
	// slot. At most one placement per slot (constraint (4b)).
	Placements []Placement
}

// TaskEnv bundles everything schedulers need to plan one task: the task
// itself, the cluster (capacities, committed ledger, unit energy costs),
// the per-node throughput vector s_ik, and the vendor quotes.
type TaskEnv struct {
	// Task is the arriving bid.
	Task *task.Task
	// Cluster is the provider's data center, including current
	// commitments.
	Cluster *cluster.Cluster
	// Speed[k] is s_ik: work units per slot when the task runs on node k
	// (0 means the task cannot run there).
	Speed []int
	// Quotes holds each labor vendor's {q_in, h_in} for this task; it is
	// empty when the task needs no pre-processing. Refill derives them
	// into a buffer the env owns, so they are valid until the next Refill;
	// whoever keeps quotes longer copies them.
	Quotes []vendor.Quote

	quoteBuf   []vendor.Quote
	classSpeed []int // Refill's per-class s_ik scratch
}

// NewTaskEnv derives the environment for a task: per-node throughputs from
// the LoRA model and each node's GPU, and marketplace quotes when the task
// requires pre-processing. Algorithm 1, lines 3–4.
func NewTaskEnv(t *task.Task, cl *cluster.Cluster, model lora.ModelConfig, mkt *vendor.Marketplace) *TaskEnv {
	env := &TaskEnv{}
	env.Refill(t, cl, model, mkt)
	return env
}

// Refill re-derives the environment in place, reusing the Speed slice and
// the quote buffer when their capacity allows. It lets hot loops drive
// many bids through one env allocation; schedulers only read the env
// during Offer, so refilling between offers is safe.
func (env *TaskEnv) Refill(t *task.Task, cl *cluster.Cluster, model lora.ModelConfig, mkt *vendor.Marketplace) {
	env.Task = t
	env.Cluster = cl
	n := cl.NumNodes()
	if cap(env.Speed) < n {
		env.Speed = make([]int, n)
	}
	env.Speed = env.Speed[:n]
	// s_ik is a function of node k's class: derive it once per class and
	// fan it out. classSpeed[c] is -1 until class c's first node is seen.
	nc := cl.NumClasses()
	if cap(env.classSpeed) < nc {
		env.classSpeed = make([]int, nc)
	}
	classSpeed := env.classSpeed[:nc]
	for c := range classSpeed {
		classSpeed[c] = -1
	}
	h := cl.Horizon()
	for k := 0; k < n; k++ {
		c := cl.Class(k)
		s := classSpeed[c]
		if s < 0 {
			s = lora.TaskUnitsPerSlot(model, cl.Node(k).Spec, int(t.Batch), h)
			// A task whose memory footprint cannot fit next to the base
			// model can never run on this node.
			if t.MemGB > cl.TaskMemCap(k) {
				s = 0
			}
			classSpeed[c] = s
		}
		env.Speed[k] = s
	}
	env.Quotes = nil
	if t.NeedsPrep && mkt != nil {
		env.quoteBuf = mkt.AppendQuotes(env.quoteBuf[:0], t.ID)
		env.Quotes = env.quoteBuf
	}
}

// EnergyCost returns Σ_k Σ_t e_ikt x_ikt for the plan: the provider's
// operational cost of executing it.
func (s *Schedule) EnergyCost(env *TaskEnv) float64 {
	total := 0.0
	for _, p := range s.Placements {
		total += env.Cluster.EnergyCost(p.Node, p.Slot, env.Speed[p.Node])
	}
	return total
}

// TotalWork returns Σ_k Σ_t s_kt(il): the compute units the plan consumes.
// It can exceed the task's required M_i because the final slot may
// overshoot.
func (s *Schedule) TotalWork(env *TaskEnv) int {
	total := 0
	for _, p := range s.Placements {
		total += env.Speed[p.Node]
	}
	return total
}

// TotalMem returns Σ_k Σ_t r_kt(il) = r_i × |placements|: the summed
// per-slot memory footprint of the plan.
func (s *Schedule) TotalMem(env *TaskEnv) float64 {
	return env.Task.MemGB * float64(len(s.Placements))
}

// WelfareIncrement returns b_il, the increase of the social-welfare
// objective (4) if the task is executed with this plan:
// b_il = b_i − Σ_n q_in z_in − Σ_k Σ_t e_ikt x_ikt.
func (s *Schedule) WelfareIncrement(env *TaskEnv) float64 {
	return env.Task.Bid - s.VendorPrice - s.EnergyCost(env)
}

// NormalizedWelfare returns b̄_il = b_il / (Σ s_kt(il) + Σ r_kt(il)), the
// social-welfare improvement per unit of resource per slot (Section 3.3).
func (s *Schedule) NormalizedWelfare(env *TaskEnv) float64 {
	denom := float64(s.TotalWork(env)) + s.TotalMem(env)
	if denom <= 0 {
		return 0
	}
	return s.WelfareIncrement(env) / denom
}

// Validate checks the schedule against constraints (4a)–(4e) plus basic
// structural sanity. It does not check capacities (4f)/(4g): those are
// global constraints over all admitted tasks, enforced by the cluster
// ledger (Algorithm 1, line 8).
func (s *Schedule) Validate(env *TaskEnv) error {
	t := env.Task
	if s.TaskID != t.ID {
		return fmt.Errorf("schedule: task ID %d != env task %d", s.TaskID, t.ID)
	}
	// (4a): exactly one vendor iff the task needs pre-processing.
	if t.NeedsPrep && s.Vendor == NoVendor {
		return fmt.Errorf("schedule: task %d needs pre-processing but no vendor selected", t.ID)
	}
	if !t.NeedsPrep && s.Vendor != NoVendor {
		return fmt.Errorf("schedule: task %d needs no pre-processing but vendor %d selected", t.ID, s.Vendor)
	}
	if s.Vendor != NoVendor {
		if s.Vendor < 0 {
			return fmt.Errorf("schedule: task %d has invalid vendor index %d", t.ID, s.Vendor)
		}
		// When the environment carries the marketplace quotes, the plan's
		// vendor terms must match the quote it claims to use — otherwise a
		// buggy scheduler could under-report q_in or h_in and the welfare
		// and window accounting downstream would silently drift.
		if len(env.Quotes) > 0 {
			var q *vendor.Quote
			for i := range env.Quotes {
				if env.Quotes[i].Vendor == s.Vendor {
					q = &env.Quotes[i]
					break
				}
			}
			if q == nil {
				return fmt.Errorf("schedule: task %d selects vendor %d not among its %d quotes",
					t.ID, s.Vendor, len(env.Quotes))
			}
			if s.VendorPrice != q.Price {
				return fmt.Errorf("schedule: task %d vendor %d price %v != quoted %v",
					t.ID, s.Vendor, s.VendorPrice, q.Price)
			}
			if s.VendorDelay != q.DelaySlots {
				return fmt.Errorf("schedule: task %d vendor %d delay %d != quoted %d",
					t.ID, s.Vendor, s.VendorDelay, q.DelaySlots)
			}
		}
	}
	if len(s.Placements) == 0 {
		return fmt.Errorf("schedule: task %d has no placements", t.ID)
	}
	if !sort.SliceIsSorted(s.Placements, func(i, j int) bool {
		return s.Placements[i].Slot < s.Placements[j].Slot
	}) {
		return fmt.Errorf("schedule: task %d placements not sorted by slot", t.ID)
	}
	h := env.Cluster.Horizon()
	window := t.ExecWindow(h, s.VendorDelay)
	work := 0
	prevSlot := -1
	for _, p := range s.Placements {
		if p.Node < 0 || p.Node >= env.Cluster.NumNodes() {
			return fmt.Errorf("schedule: task %d placement on unknown node %d", t.ID, p.Node)
		}
		// (4b): at most one node per slot.
		if p.Slot == prevSlot {
			return fmt.Errorf("schedule: task %d runs on two nodes at slot %d", t.ID, p.Slot)
		}
		prevSlot = p.Slot
		// (4c): not before arrival + pre-processing; (4d): not after the
		// deadline.
		if !window.Contains(p.Slot) {
			return fmt.Errorf("schedule: task %d slot %d outside window %v", t.ID, p.Slot, window)
		}
		if env.Speed[p.Node] <= 0 {
			return fmt.Errorf("schedule: task %d placed on node %d where it cannot run", t.ID, p.Node)
		}
		work += env.Speed[p.Node]
	}
	// (4e): cumulative computation completes the task.
	if work < int(t.Work) {
		return fmt.Errorf("schedule: task %d plan does %d units, needs %d", t.ID, work, t.Work)
	}
	return nil
}

// Decision is the auction outcome for one bid (Algorithm 1's output for
// one task): admission u_i, the plan, and the payment p_i.
type Decision struct {
	// TaskID identifies the bid.
	TaskID int
	// Schedule is the selected plan; nil when no feasible plan exists.
	// A rejected bid can still carry its best (losing) plan.
	Schedule *Schedule
	// Terms holds the money a decision moves; nil exactly when all of it
	// is zero, as on every losing bid. Read it through Payment,
	// VendorCost and EnergyCost, and set it through NewTerms, which keeps
	// that form canonical so Equal and reflect.DeepEqual agree.
	Terms *Terms
	// F is the price-adjusted surplus F(il) of the best plan, equation
	// (10); negative or zero for bids rejected by the surplus test.
	F float64
	// Reason documents why a bid lost; zero for winners.
	Reason RejectReason
	// Admitted is u_i. The reason and the two flags sit together so that
	// they share one word: 40 bytes a decision.
	Admitted bool
	// DualsUpdated records that the scheduler moved the dual prices for
	// this bid (F(il) > 0 reached the update step of Algorithm 1). It is
	// true for every admitted bid, and — the Lemma-1 "almost-feasible"
	// case — for a capacity rejection, which reprices the cells its best
	// plan touched despite losing. It stays false for rejections that
	// never reached the update step.
	DualsUpdated bool
}

// Terms is what a winning bid's decision moves under payment rule (14)
// and objective (4). A losing bid (u_i = 0) pays nothing, buys no vendor
// and burns no energy, so its Decision carries no Terms at all.
type Terms struct {
	// Payment is p_i, the amount charged to the winning bid.
	Payment float64
	// VendorCost is what the provider pays the selected labor vendor
	// (0 without pre-processing).
	VendorCost float64
	// EnergyCost is the provider's operational cost of executing the
	// plan.
	EnergyCost float64
}

// NewTerms returns the terms of one decision, or nil when all three are
// zero: the canonical form every constructor of a Decision uses.
func NewTerms(payment, vendorCost, energyCost float64) *Terms {
	if payment == 0 && vendorCost == 0 && energyCost == 0 {
		return nil
	}
	return &Terms{Payment: payment, VendorCost: vendorCost, EnergyCost: energyCost}
}

// Payment is p_i, the amount charged to a winning bid (0 if losing).
func (d Decision) Payment() float64 {
	if d.Terms == nil {
		return 0
	}
	return d.Terms.Payment
}

// VendorCost is what the provider pays the selected labor vendor (0 if
// losing or no pre-processing).
func (d Decision) VendorCost() float64 {
	if d.Terms == nil {
		return 0
	}
	return d.Terms.VendorCost
}

// EnergyCost is the provider's operational cost of executing the plan (0
// if losing).
func (d Decision) EnergyCost() float64 {
	if d.Terms == nil {
		return 0
	}
	return d.Terms.EnergyCost
}

// Equal reports whether two schedules are bit-identical: same task,
// vendor terms, and placement sequence. Used by the equivalence checks
// that pin the broker to the sequential auction.
func (s *Schedule) Equal(other *Schedule) bool {
	if s == nil || other == nil {
		return s == other
	}
	if s.TaskID != other.TaskID || s.Vendor != other.Vendor ||
		s.VendorPrice != other.VendorPrice || s.VendorDelay != other.VendorDelay ||
		len(s.Placements) != len(other.Placements) {
		return false
	}
	for i := range s.Placements {
		if s.Placements[i] != other.Placements[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two decisions are bit-identical, including their
// plans and every money field. NaN/±Inf surpluses compare by bit pattern
// semantics (-Inf == -Inf), matching the float64 equality the rest of
// the equivalence tooling relies on.
func (d *Decision) Equal(other *Decision) bool {
	return d.TaskID == other.TaskID &&
		d.Admitted == other.Admitted &&
		d.Payment() == other.Payment() &&
		d.VendorCost() == other.VendorCost() &&
		d.EnergyCost() == other.EnergyCost() &&
		(d.F == other.F || (math.IsNaN(d.F) && math.IsNaN(other.F))) &&
		d.Reason == other.Reason &&
		d.DualsUpdated == other.DualsUpdated &&
		d.Schedule.Equal(other.Schedule)
}

// Welfare returns the bid's contribution to social welfare: b_i − vendor −
// energy for admitted bids, zero otherwise.
func (d *Decision) Welfare(bid float64) float64 {
	if !d.Admitted {
		return 0
	}
	return bid - d.VendorCost() - d.EnergyCost()
}

// RejectReason is the typed cause of a lost bid, in one byte. The zero
// value means the bid won (or the scheduler recorded no reason). It
// renders — String, JSON values and map keys — as the fixed names below,
// "" for zero, and UnmarshalText refuses any other string: the set is
// closed. The codes follow the names' sort order, so a tally ranged or
// printed in code order reads as it does by name. The checkpoint delta
// persists the codes, so a new reason takes the next free code.
type RejectReason uint8

// Rejection reasons.
const (
	// ReasonCapacity: the plan would exceed (4f)/(4g) — the Lemma-1
	// "almost-feasible" case; the duals still moved for this bid.
	ReasonCapacity RejectReason = iota + 1
	// ReasonFailedNode: a node outage broke the committed plan and no
	// recovery plan exists (failure injection only).
	ReasonFailedNode
	// ReasonNoSchedule: no plan satisfies (4a)–(4e) — the deadline window
	// is empty or too tight, every vendor is too slow, or the task's
	// memory footprint fits on no node.
	ReasonNoSchedule
	// ReasonSurplus: the best plan has F(il) ≤ 0 (Algorithm 1, line 13).
	ReasonSurplus
	// ReasonVendorDown: the task requires pre-processing (f_i = 1) but the
	// vendor marketplace stayed unreachable past the retry deadline, so no
	// quote exists and constraint (4a) is unsatisfiable for this bid. The
	// duals are untouched, exactly like ReasonNoSchedule.
	ReasonVendorDown
)

var reasonNames = [...]string{"", "capacity", "failed-node", "no-schedule", "surplus", "vendor-down"}

// Valid reports whether r is the zero value or one of the Reason constants.
func (r RejectReason) Valid() bool { return int(r) < len(reasonNames) }

// String returns the reason's name; a code outside the set (only a
// corrupt input can hold one) renders as reason(n).
func (r RejectReason) String() string {
	if r.Valid() {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// MarshalText implements encoding.TextMarshaler with String's names.
func (r RejectReason) MarshalText() ([]byte, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("schedule: unknown reject reason code %d", uint8(r))
	}
	return []byte(reasonNames[r]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler: a name outside the
// set is refused.
func (r *RejectReason) UnmarshalText(text []byte) error {
	for code, name := range reasonNames {
		if string(text) == name {
			*r = RejectReason(code)
			return nil
		}
	}
	return fmt.Errorf("schedule: unknown reject reason %q", text)
}
