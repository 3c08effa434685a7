package sim

import (
	"bytes"
	"fmt"

	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/schedule"
)

// DiffResults compares the complete accounting of two runs — welfare,
// money flows, admission counts, utilization, failure recovery, and spot
// activity — and returns "" when they are bit-identical, or a one-line
// description of the first divergence. It is the shared equivalence
// check behind every broker ≡ sim.Run twin assertion —
// service.DiffTwins, which the load generator's -verify, the chaos
// harnesses and the broker stream test call — so "bit-identical" means
// the same thing everywhere.
func DiffResults(got, want *Result) string {
	type field struct {
		name      string
		got, want any
	}
	fields := []field{
		{"welfare", got.Welfare, want.Welfare},
		{"revenue", got.Revenue, want.Revenue},
		{"vendor_spend", got.VendorSpend, want.VendorSpend},
		{"energy_spend", got.EnergySpend, want.EnergySpend},
		{"admitted", got.Admitted, want.Admitted},
		{"rejected", got.Rejected, want.Rejected},
		{"utilization", got.Utilization, want.Utilization},
		{"failures_injected", got.FailuresInjected, want.FailuresInjected},
		{"recovered_tasks", got.RecoveredTasks, want.RecoveredTasks},
		{"failed_tasks", got.FailedTasks, want.FailedTasks},
		{"refunded_value", got.RefundedValue, want.RefundedValue},
		{"spot_spend", got.SpotSpend, want.SpotSpend},
		{"spot_leases", got.SpotLeases, want.SpotLeases},
		{"spot_leased_slots", got.SpotLeasedSlots, want.SpotLeasedSlots},
		{"spot_revocations", got.SpotRevocations, want.SpotRevocations},
	}
	for _, f := range fields {
		if f.got != f.want {
			return fmt.Sprintf("%s: got %v, want %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// DiffDecisions compares two decisions for the same bid and returns ""
// when their records (internal/decision, each filed under its own TaskID)
// are byte-identical, or a description of the divergence. The record is
// the one encoding the broker stores and persists, so every field of a
// decision counts, the surplus F bit for bit, and none can be left out
// of the comparison. With plans set the schedules count too — use it
// when neither side dropped losing plans; without it both plans are
// cleared first, the right check against a broker running
// Options.DropLosingPlans.
func DiffDecisions(got, want *schedule.Decision, plans bool) string {
	g, w := *got, *want
	if !plans {
		g.Schedule, w.Schedule = nil, nil
	}
	var gb, wb [64]byte
	if bytes.Equal(decision.Append(gb[:0], g.TaskID, &g), decision.Append(wb[:0], w.TaskID, &w)) {
		return ""
	}
	return fmt.Sprintf("task %d: got %+v (plan %+v, terms %+v), want %+v (plan %+v, terms %+v)",
		got.TaskID, *got, got.Schedule, got.Terms, *want, want.Schedule, want.Terms)
}
