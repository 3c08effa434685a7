package main

import (
	"fmt"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/spot"
)

// spotConfig carries the -spot-* flags: an elastic tier of revocable
// spot-market nodes behind each broker. The elastic nodes are the tail
// of each broker's cluster — the on-demand tier keeps the low indices —
// so `-nodes 8 -spot-nodes 2` sells nodes 6 and 7 on the spot market.
// With -shards > 1 every shard gets its own tail, provider, and
// decorrelated price trace, exactly as each shard gets its own
// marketplace and scheduler. The market's trace seed is spotSeed, its
// leases run the provider's default length, and each broker's rent is
// capped at base price × horizon × elastic nodes (enough to hold the
// whole tail at the mean quote).
type spotConfig struct {
	// nodes is the elastic node count per broker; 0 disables the tier.
	nodes int
	// discount prices the spot market's mean quote as a fraction of the
	// cluster's on-demand reference cost (default 0.4).
	discount   float64
	predictive bool
}

// spotSeed seeds broker 0's spot price and reclaim trace; shard i's is
// decorrelated from it as spotSeed + 7919·i.
const spotSeed = 11

// enabled reports whether the flags ask for a spot tier at all.
func (sc spotConfig) enabled() bool { return sc.nodes > 0 }

// provider wires one broker's spot provider over cl's elastic tail, or
// nil when the tier is disabled. Everything is derived deterministically
// from (sc, cl, shard), so a verify twin built from the same inputs gets
// a bit-identical provider.
func (sc spotConfig) provider(cl *cluster.Cluster, slots, shard int) (*spot.Provider, error) {
	if !sc.enabled() {
		return nil, nil
	}
	nn := cl.NumNodes()
	if sc.nodes >= nn {
		return nil, fmt.Errorf("spot: %d elastic nodes need at least %d total, broker has %d", sc.nodes, sc.nodes+1, nn)
	}
	elastic := make([]int, sc.nodes)
	for i := range elastic {
		elastic[i] = nn - sc.nodes + i
	}
	discount := sc.discount
	if discount <= 0 {
		discount = 0.4
	}
	base := spot.ReferencePrice(cl) * discount
	tr, err := spot.GenerateTrace(spot.TraceConfig{
		Seed:      spotSeed + int64(shard)*7919,
		Slots:     slots,
		Nodes:     elastic,
		BasePrice: base,
	})
	if err != nil {
		return nil, err
	}
	return spot.New(spot.Options{
		Trace:      tr,
		Nodes:      elastic,
		Budget:     base * float64(slots*sc.nodes),
		Predictive: sc.predictive,
	})
}
