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
}
