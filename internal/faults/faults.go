// Package faults defines deterministic, seedable fault plans: node
// outages over slot ranges and checkpoint-write I/O errors.
//
// A Plan is pure data — the package has no dependencies on the auction
// layers — so every consumer (internal/sim and internal/service replay
// outages, internal/service's FuzzFleet explores fleets under it)
// interprets the same schedule without import cycles, and the same seed
// reproduces the same faults on both sides of a broker-versus-simulator
// differential. A plan is a test fixture: a serving broker cannot know its
// outages in advance, and its capacity is fixed.
package faults

import "math/rand"

// Outage takes one node down for the inclusive slot range [From, To].
// It mirrors sim.Failure: the outage becomes known online at the
// beginning of slot From, broken plans are re-planned, and unrecoverable
// tasks are refunded.
type Outage struct {
	Node int `json:"node"`
	From int `json:"from"`
	To   int `json:"to"`
}

// CheckpointFault fails every checkpoint write whose slot falls in the
// inclusive range [From, To], simulating a full or read-only disk. The
// broker keeps deciding bids and reports itself degraded once the
// failures persist.
type CheckpointFault struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Plan is one deterministic fault schedule for a run.
type Plan struct {
	Outages    []Outage          `json:"outages,omitempty"`
	Checkpoint []CheckpointFault `json:"checkpoint,omitempty"`
}

// CheckpointFaultAt reports whether a checkpoint write at slot t must
// fail under this plan.
func (p *Plan) CheckpointFaultAt(t int) bool {
	for _, c := range p.Checkpoint {
		if t >= c.From && t <= c.To {
			return true
		}
	}
	return false
}

// Generate draws a randomized-but-seeded fault plan for a deployment
// shape. The same (seed, shape) always yields the same plan, so a faulted
// run is reproducible end to end. The drawn schedule always contains at
// least one node outage and, when the horizon has room for one, a
// checkpoint-fault window long enough to trip the broker's degraded
// threshold.
func Generate(seed int64, nodes, horizon int) Plan {
	r := rand.New(rand.NewSource(seed))
	var p Plan
	span := func(lo, hi int) int { // uniform in [lo, hi], tolerant of hi<lo
		if hi <= lo {
			return lo
		}
		return lo + r.Intn(hi-lo+1)
	}

	// One or two outages in the middle half of the horizon, each roughly
	// a quarter of it long.
	nOut := 1 + r.Intn(2)
	for i := 0; i < nOut; i++ {
		from := span(horizon/4, horizon/2)
		to := from + span(horizon/8, horizon/4)
		p.Outages = append(p.Outages, Outage{Node: r.Intn(nodes), From: from, To: to})
	}

	// A checkpoint-fault window of at least four slots: long enough for
	// the default degraded threshold (3 consecutive failures).
	from := span(1, horizon-5)
	if to := min(from+3+span(0, 2), horizon-1); to-from >= 3 {
		p.Checkpoint = append(p.Checkpoint, CheckpointFault{From: from, To: to})
	}
	return p
}
