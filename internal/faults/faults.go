// Package faults defines deterministic, seedable fault plans for the
// serving stack: node outages over slot ranges, vendor-marketplace
// faults (transient quote failures and latency spikes, hard per-vendor
// outages), checkpoint-write I/O errors, and a kill/restore and
// clock-stall schedule.
//
// A Plan is pure data — the package has no dependencies on the auction
// layers — so every consumer (internal/vendor wraps the marketplace,
// internal/sim and internal/service replay outages, internal/service's
// FuzzFleet explores fleets under it) interprets the same schedule without
// import cycles, and
// the same seed reproduces the same faults on both sides of a
// broker-versus-simulator differential.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Outage takes one node down for the inclusive slot range [From, To].
// It mirrors sim.Failure: the outage becomes known online at the
// beginning of slot From, broken plans are re-planned, and unrecoverable
// tasks are refunded.
type Outage struct {
	Node int `json:"node"`
	From int `json:"from"`
	To   int `json:"to"`
}

// VendorFault disturbs the labor-vendor marketplace during the inclusive
// slot range [From, To].
//
// Vendor == -1 is a marketplace-wide transient outage: each purchase's
// first FailAttempts RPC attempts fail (FailAttempts < 0 keeps failing
// past any retry policy — a hard outage), and Latency is added to every
// faulted attempt, modeling a latency spike the retry backoff must ride
// out.
//
// Vendor >= 0 drops that single vendor's quote from the returned set
// instead: the vendor is unreachable, the provider simply buys from the
// remaining N-1 vendors (no retry semantics — a dead vendor stays dead
// for the window).
type VendorFault struct {
	Vendor       int           `json:"vendor"`
	From         int           `json:"from"`
	To           int           `json:"to"`
	FailAttempts int           `json:"fail_attempts,omitempty"`
	Latency      time.Duration `json:"latency,omitempty"`
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
	Seed       int64             `json:"seed"`
	Outages    []Outage          `json:"outages,omitempty"`
	Vendor     []VendorFault     `json:"vendor,omitempty"`
	Checkpoint []CheckpointFault `json:"checkpoint,omitempty"`
	// Kills lists slots after whose close a runner may crash-stop the
	// broker (no final checkpoint, no RunEnd) and restore a fresh one
	// from the last persisted checkpoint.
	Kills []int `json:"kills,omitempty"`
	// Stalls lists slots before whose close a runner may freeze the
	// clock while traffic and health probes keep arriving.
	//
	// No runner in this repository reads Kills or Stalls: FuzzFleet's
	// script places its own kills and stalls. They stay in the plan so
	// that a seed keeps drawing the same outages and windows.
	Stalls []int `json:"stalls,omitempty"`
}

// Validate checks the plan against a deployment shape. Outage tails that
// run past the horizon are clamped to horizon-1 (the ledger has no cells
// beyond it; an outage outliving the horizon is indistinguishable from
// one ending there), matching the simulator's own clamp.
func (p *Plan) Validate(nodes, horizon, vendors int) error {
	if nodes <= 0 || horizon <= 0 {
		return fmt.Errorf("faults: bad shape %d nodes × %d slots", nodes, horizon)
	}
	for i := range p.Outages {
		o := &p.Outages[i]
		if o.Node < 0 || o.Node >= nodes {
			return fmt.Errorf("faults: outage %d on unknown node %d", i, o.Node)
		}
		if o.From < 0 || o.To < o.From || o.From >= horizon {
			return fmt.Errorf("faults: outage %d has bad range [%d,%d]", i, o.From, o.To)
		}
		if o.To >= horizon {
			o.To = horizon - 1
		}
	}
	for i, v := range p.Vendor {
		if v.Vendor < -1 || v.Vendor >= vendors {
			return fmt.Errorf("faults: vendor fault %d targets unknown vendor %d", i, v.Vendor)
		}
		if v.From < 0 || v.To < v.From {
			return fmt.Errorf("faults: vendor fault %d has bad range [%d,%d]", i, v.From, v.To)
		}
		if v.Latency < 0 {
			return fmt.Errorf("faults: vendor fault %d has negative latency", i)
		}
	}
	for i, c := range p.Checkpoint {
		if c.From < 0 || c.To < c.From {
			return fmt.Errorf("faults: checkpoint fault %d has bad range [%d,%d]", i, c.From, c.To)
		}
	}
	for i, k := range p.Kills {
		if k < 0 || k >= horizon {
			return fmt.Errorf("faults: kill %d at slot %d outside horizon", i, k)
		}
	}
	for i, s := range p.Stalls {
		if s < 0 || s >= horizon {
			return fmt.Errorf("faults: stall %d at slot %d outside horizon", i, s)
		}
	}
	return nil
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
// shape. The same (seed, shape) always yields the same plan, so a
// faulted run is reproducible end to end. The drawn schedule always contains at
// least one node outage with a kill inside its window (the
// kill-mid-outage resume case), one transient and one hard marketplace
// window, one per-vendor drop when the marketplace has more than one
// vendor, a checkpoint-fault window long enough to trip the broker's
// degraded threshold, and one clock stall.
func Generate(seed int64, nodes, horizon, vendors int) Plan {
	r := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
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

	// A transient marketplace window early (retries ride it out) and a
	// hard one later (purchases in it are rejected vendor-down).
	tFrom := span(1, horizon/4)
	p.Vendor = append(p.Vendor, VendorFault{
		Vendor: -1, From: tFrom, To: tFrom + span(1, horizon/6),
		FailAttempts: 1 + r.Intn(2), Latency: 100 * time.Microsecond,
	})
	hFrom := span(horizon/2, 3*horizon/4)
	p.Vendor = append(p.Vendor, VendorFault{
		Vendor: -1, From: hFrom, To: hFrom + span(0, horizon/8), FailAttempts: -1,
	})
	if vendors > 1 {
		dFrom := span(0, horizon-1)
		p.Vendor = append(p.Vendor, VendorFault{
			Vendor: r.Intn(vendors), From: dFrom, To: dFrom + span(1, horizon/4),
		})
	}

	// One kill inside the first outage window (restore mid-outage), one
	// more anywhere in the back half. Kills before slot 2 are nudged
	// forward so at least one checkpoint exists to restore from.
	kill := p.Outages[0].From + span(0, p.Outages[0].To-p.Outages[0].From)
	if kill >= horizon {
		kill = horizon - 1
	}
	if kill < 2 {
		kill = 2
	}
	p.Kills = append(p.Kills, kill)
	if k2 := span(horizon/2, horizon-2); k2 != kill && r.Intn(2) == 0 {
		p.Kills = append(p.Kills, k2)
	}
	sort.Ints(p.Kills)

	// A checkpoint-fault window of at least four slots — long enough for
	// the default degraded threshold (3 consecutive failures) — kept
	// clear of the kill slots so every kill restores from a fresh
	// checkpoint.
	inKills := func(from, to int) bool {
		for _, k := range p.Kills {
			if k >= from-1 && k <= to {
				return true
			}
		}
		return false
	}
	for tries := 0; tries < 32; tries++ {
		from := span(1, horizon-5)
		to := from + 3 + span(0, 2)
		if to >= horizon {
			to = horizon - 1
		}
		if to-from < 3 || inKills(from, to) {
			continue
		}
		p.Checkpoint = append(p.Checkpoint, CheckpointFault{From: from, To: to})
		break
	}

	p.Stalls = append(p.Stalls, span(0, horizon-1))
	return p
}
