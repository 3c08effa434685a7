package core

import (
	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// CalibrateDuals derives the dual-update coefficients α and β for a
// workload on a cluster.
//
// Lemma 2 of the paper uses α = max_i b_i/M_i and β = max_i b_i/r_i. Two
// refinements make the same capacity-control argument hold while keeping
// prices on the scale of *net* welfare density, which is what admission
// actually trades against:
//
//   - The numerator is the task's best-case welfare increment b_il — bid
//     minus the cheapest vendor quote (when pre-processing is required)
//     minus the mean operational cost of its work — not the raw bid. A
//     saturated cell must out-price a future task's net gain, and the
//     gross bid overshoots it by the cost share (≈ 50% at the paper's
//     margins), doubling the price ramp for no control benefit.
//
//   - β normalizes by the plan's memory-slot footprint r_i·minSlots_i
//     instead of r_i alone: a plan occupies r_i GB for every slot it
//     runs, so the memory price φ is charged |slots| times (equation
//     (10)). The literal b_i/r_i prices memory out after one admission
//     whenever r_i ≪ C_km.
//
// With homogeneous per-unit values these coincide with the paper's
// coefficients up to the cost shift.
func CalibrateDuals(tasks []task.Task, model lora.ModelConfig, cl *cluster.Cluster, mkt *vendor.Marketplace) Options {
	const floor = 1e-6
	h := cl.Horizon()

	// Mean unit operational cost across nodes and slots.
	meanUnit := 0.0
	cells := 0
	for k := 0; k < cl.NumNodes(); k++ {
		for t := 0; t < h.T; t++ {
			meanUnit += cl.UnitEnergyCost(k, t)
			cells++
		}
	}
	if cells > 0 {
		meanUnit /= float64(cells)
	}

	// Speeds by batch: workloads draw a few small batch sizes, so a table
	// indexed by batch, filled on first use, costs a task one load and a
	// branch that goes the same way every time; a batch outside it is
	// computed per task. A speed is capped at MaxInt32, which no Work
	// exceeds, so ⌈Work/speed⌉ is unchanged and divides in 32 bits.
	var speeds [64]uint32
	fastest := func(batch int) uint32 {
		best := 1
		for k := 0; k < cl.NumNodes(); k++ {
			if s := lora.TaskUnitsPerSlot(model, cl.Node(k).Spec, batch, h); s > best {
				best = s
			}
		}
		return uint32(min(best, 1<<31-1))
	}

	// A vendor quote only lowers a task's net value, and both maxima move
	// on strict >, so a task whose quote-free net value already fails to
	// raise either one cannot matter: it is skipped before its quotes are
	// derived. Only the few tasks that set a new running maximum pay for
	// quotes. Tasks that Task.Validate would refuse (no work, no memory)
	// have no density to price and are skipped rather than divided by.
	alpha, beta := floor, floor
	var quoteBuf [16]vendor.Quote // spills to the heap only past 16 vendors
	for i := range tasks {
		t := &tasks[i]
		if t.Work <= 0 || t.MemGB <= 0 {
			continue
		}
		net := t.Bid - meanUnit*float64(t.Work)
		if net <= 0 {
			continue
		}
		var speed uint32
		if b := int(t.Batch); uint(b) < uint(len(speeds)) {
			if speeds[b] == 0 {
				speeds[b] = fastest(b)
			}
			speed = speeds[b]
		} else {
			speed = fastest(b)
		}
		minSlots := (uint32(t.Work) + speed - 1) / speed // ≥ 1: Work ≥ 1
		footprint := t.MemGB * float64(minSlots)
		if net/float64(t.Work) <= alpha && net/footprint <= beta {
			continue
		}
		if t.NeedsPrep && mkt != nil {
			cheapest := -1.0
			for _, q := range mkt.AppendQuotes(quoteBuf[:0], t.ID) {
				if cheapest < 0 || q.Price < cheapest {
					cheapest = q.Price
				}
			}
			if cheapest > 0 {
				net -= cheapest
			}
			if net <= 0 {
				continue
			}
		}
		if a := net / float64(t.Work); a > alpha {
			alpha = a
		}
		if b := net / footprint; b > beta {
			beta = b
		}
	}
	return Options{Alpha: alpha, Beta: beta}
}
