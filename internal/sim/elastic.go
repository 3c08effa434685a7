package sim

import "github.com/pdftsp/pdftsp/internal/cluster"

// SpotProvider is the elastic-capacity hook the round engine drives: an
// implementation (internal/spot.Provider) rents and releases revocable
// spot nodes against the run's published dual prices. sim defines only
// the contract so the dependency points outward — spot imports sim, the
// Engine holds the interface, and the Engine doc comment states when Bind
// and AdvanceTo run.
type SpotProvider interface {
	Bind(cl *cluster.Cluster, faults *FailureTracker) error
	AdvanceTo(now int, sched Scheduler, res *Result)
	// State snapshots the provider for a checkpoint; RestoreState
	// rebuilds it (the cluster's lease map is persisted separately in the
	// ledger snapshot).
	State() SpotState
	RestoreState(st *SpotState) error
}

// SpotState is the JSON persistence form of a spot provider: how far the
// price/reclaim trace has been consumed, the budget spent, and every
// live lease. The broker embeds it in its checkpoint; the trace itself
// is configuration and is not persisted.
type SpotState struct {
	// Next is the first trace slot AdvanceTo has not processed yet.
	Next int `json:"next"`
	// Spent is the cumulative rent paid against the budget.
	Spent float64 `json:"spent"`
	// Leases are the live capacity leases, ordered by (node, from).
	Leases []SpotLease `json:"leases,omitempty"`
}

// SpotLease is one live rental on the checkpoint wire.
type SpotLease struct {
	Node int `json:"node"`
	From int `json:"from"`
	To   int `json:"to"`
	// Rate is the per-slot rent locked in when the lease was taken.
	Rate float64 `json:"rate"`
}
