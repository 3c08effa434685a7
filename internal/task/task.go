// Package task defines the fine-tuning task model of the paper:
// i = {a_i, d_i, D_i, r_i, M_i, f_i, b_i} (Section 2.1), extended with the
// LoRA hyperparameters (rank, batch size) from which the resource numbers
// are derived, and a separate true valuation for the auction experiments.
//
// A Task is 72 bytes: ID stays an int (the service accepts IDs up to
// 2^53−1), the three floats and the model name are as wide as they must
// be, and the rest is as wide as it needs — slots, sample and work counts
// int32; epochs, rank and batch int16. The rule that goes with the widths:
// narrow at rest, int in arithmetic. Convert at the read
// (int(t.Arrival) + delay, (int(t.Work) + s − 1) / s) and never add or
// multiply two narrow fields as they stand; comparing them is fine.
// Whatever turns bytes into a Task refuses a number that does not fit
// instead of wrapping it (service.BidRequest, the journal's reader,
// trace.LoadTasks), and a horizon is at most math.MaxInt32 slots
// (cluster.New, trace.Config.Validate).
package task

import (
	"fmt"
	"math"

	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// Task is one LoRA fine-tuning request submitted as a bid. The fields go
// widest first so that nothing is padded (TestRecordSizes in
// internal/service pins the 72 bytes); SaveTasks writes its JSON keys in
// this order.
type Task struct {
	// ID identifies the task; IDs are dense indices within a workload.
	// It stays an int: the service accepts IDs up to 2^53−1.
	ID int
	// MemGB is r_i: the GPU memory the task occupies while executing.
	MemGB float64
	// Bid is b_i: the declared willingness to pay.
	Bid float64
	// TrueValue is v_i: the private valuation. Truthful bidders have
	// TrueValue == Bid; the truthfulness experiment sweeps Bid while
	// holding TrueValue fixed.
	TrueValue float64
	// ModelName names the pre-trained model the task fine-tunes. The
	// paper scopes each problem instance to one shared model and notes
	// that "different zones within the cloud data center can be set up
	// for tasks fine-tuning different pre-trained models"; the zones
	// package routes on this field. Empty means the instance default.
	ModelName string
	// Arrival is a_i, the zero-based slot at which the bid arrives.
	Arrival int32
	// Deadline is d_i, the last slot (inclusive) at which the task may
	// still execute.
	Deadline int32
	// DatasetSamples is |D_i|: training samples in the user's dataset.
	DatasetSamples int32
	// Work is M_i in integer work units (1 unit = 1,000 samples); the
	// cumulative computation required to sufficiently fine-tune.
	Work int32
	// Epochs is the number of passes over the dataset (Section 5.1:
	// "generated randomly between 1 and 5").
	Epochs int16
	// Rank is the LoRA rank of the task's adapters.
	Rank int16
	// Batch is the per-device training batch size; it determines the
	// per-node throughput s_ik.
	Batch int16
	// NeedsPrep is f_i: whether the dataset requires outsourced
	// pre-processing before fine-tuning can start.
	NeedsPrep bool
}

// Validate reports whether the task is internally consistent within the
// horizon. Infeasible-but-well-formed tasks (e.g., deadlines too tight to
// finish) are valid; schedulers are expected to reject them at bid time.
func (t *Task) Validate(h timeslot.Horizon) error {
	// The money and memory comparisons are written so that NaN fails too:
	// an infinite bid is admitted at surplus +Inf and leaves λ = +Inf on
	// every cell its plan touches.
	switch {
	case t.ID < 0:
		return fmt.Errorf("task %d: negative ID", t.ID)
	case !h.Contains(int(t.Arrival)):
		return fmt.Errorf("task %d: arrival %d outside horizon [0,%d)", t.ID, t.Arrival, h.T)
	case t.Deadline < t.Arrival:
		return fmt.Errorf("task %d: deadline %d before arrival %d", t.ID, t.Deadline, t.Arrival)
	case t.Work <= 0:
		return fmt.Errorf("task %d: non-positive work %d", t.ID, t.Work)
	case !(t.MemGB > 0) || math.IsInf(t.MemGB, 1):
		return fmt.Errorf("task %d: memory %v not positive and finite", t.ID, t.MemGB)
	case !(t.Bid >= 0) || math.IsInf(t.Bid, 1):
		return fmt.Errorf("task %d: bid %v not non-negative and finite", t.ID, t.Bid)
	case math.IsNaN(t.TrueValue) || math.IsInf(t.TrueValue, 0):
		return fmt.Errorf("task %d: non-finite true value %v", t.ID, t.TrueValue)
	case t.DatasetSamples < 0:
		return fmt.Errorf("task %d: negative dataset size %d", t.ID, t.DatasetSamples)
	case t.Epochs < 0:
		return fmt.Errorf("task %d: negative epochs %d", t.ID, t.Epochs)
	}
	return nil
}

// ExecWindow returns the slots in which the task may execute if its data
// pre-processing takes prepDelay slots: [a_i + prepDelay, d_i], clipped to
// the horizon. An empty window means the vendor is too slow (or the task
// infeasible).
func (t *Task) ExecWindow(h timeslot.Horizon, prepDelay int) timeslot.Window {
	w := timeslot.Window{Start: int(t.Arrival) + prepDelay, End: int(t.Deadline)}
	return w.ClipTo(h)
}

// String implements fmt.Stringer for debugging output.
func (t *Task) String() string {
	prep := ""
	if t.NeedsPrep {
		prep = " prep"
	}
	return fmt.Sprintf("task %d [a=%d d=%d M=%d r=%.1fGB bid=%.1f%s]",
		t.ID, t.Arrival, t.Deadline, t.Work, t.MemGB, t.Bid, prep)
}
