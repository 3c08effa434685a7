package sim

import (
	"fmt"
	"math"

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
// when they match, or a description of the divergence. With plans set
// the schedules must also be placement-for-placement identical — use it
// when neither side dropped losing plans; without it only the outcome
// fields (admission, payment, money, surplus, reason, dual movement)
// are compared, the right check against a broker running
// Options.DropLosingPlans. The surplus F compares bit for bit, any NaN
// equal to any other as Decision.Equal has it.
func DiffDecisions(got, want *schedule.Decision, plans bool) string {
	if got.TaskID != want.TaskID {
		return fmt.Sprintf("task id: got %d, want %d", got.TaskID, want.TaskID)
	}
	if plans {
		if !got.Equal(want) {
			return fmt.Sprintf("task %d: got %+v (plan %+v, terms %+v), want %+v (plan %+v, terms %+v)",
				got.TaskID, got, got.Schedule, got.Terms, want, want.Schedule, want.Terms)
		}
		return ""
	}
	sameF := math.Float64bits(got.F) == math.Float64bits(want.F) || math.IsNaN(got.F) && math.IsNaN(want.F)
	if got.Admitted != want.Admitted || got.Payment() != want.Payment() ||
		got.VendorCost() != want.VendorCost() || got.EnergyCost() != want.EnergyCost() ||
		!sameF || got.Reason != want.Reason || got.DualsUpdated != want.DualsUpdated {
		return fmt.Sprintf("task %d: got admitted=%v payment=%v vendor=%v energy=%v f=%v reason=%q duals=%v, want admitted=%v payment=%v vendor=%v energy=%v f=%v reason=%q duals=%v",
			got.TaskID,
			got.Admitted, got.Payment(), got.VendorCost(), got.EnergyCost(), got.F, got.Reason, got.DualsUpdated,
			want.Admitted, want.Payment(), want.VendorCost(), want.EnergyCost(), want.F, want.Reason, want.DualsUpdated)
	}
	return ""
}
