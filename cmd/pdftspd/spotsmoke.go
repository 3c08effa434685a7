package main

import (
	"fmt"
	"os"

	"github.com/pdftsp/pdftsp/internal/config"
)

// runSpotSmoke is the `pdftspd -spot-smoke` self-test: the full chaos
// harness with the elastic spot tier switched on, run once monolithic
// and once as a two-shard fleet. Beyond everything the chaos harness
// already asserts (kill/restore survival, degraded serving, audit
// cleanliness, bit-identity against per-broker sim.Run twins — now
// including spot rent, leases, and revocations in the accounting diff),
// the smoke demands the tier actually did something: the provider must
// have rented node-slots and the market must have reclaimed at least
// one live lease, so the revocation → outage → refund/re-plan path is
// exercised end to end, not just compiled.
func runSpotSmoke(cfg config.Config, seed int64, sc spotConfig) error {
	if !sc.enabled() {
		sc.nodes = 1
	}
	if sc.reclaimProb == 0 {
		// The trace default (~2%/node/slot) is realistic but too rare for
		// a 24-slot smoke; make reclaims reliable.
		sc.reclaimProb = 0.2
	}
	if sc.discount == 0 {
		// Cheap spot capacity so rentals clear the margin test every run.
		sc.discount = 0.3
	}
	sc.seed = seed

	for _, n := range []int{1, 2} {
		sum, err := runChaos(cfg, seed, n, sc)
		if err != nil {
			return fmt.Errorf("%d shard(s): %w", n, err)
		}
		if sum.spotLeasedSlots == 0 {
			return fmt.Errorf("%d shard(s): spot tier enabled but no node-slots were ever rented (budget or margin too tight for this seed)", n)
		}
		if sum.spotRevocations == 0 {
			return fmt.Errorf("%d shard(s): no spot lease was ever reclaimed (reclaim prob %.2f too low for this seed)", n, sc.reclaimProb)
		}
		fmt.Fprintf(os.Stderr,
			"spot-smoke(seed %d, %d shard(s)): %d lease(s) over %d node-slot(s), spend %.2f, %d revocation(s), welfare %.2f\n",
			seed, n, sum.spotLeases, sum.spotLeasedSlots, sum.spotSpend, sum.spotRevocations, sum.welfare)
	}
	return nil
}
