package zones

import (
	"testing"

	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// TestRunMatchesPerZoneSimRun is the differential anchor for the sharded
// broker: a zones.Run over any router must report, per zone, exactly
// what a sequential sim.Run of that zone's routed subsequence reports —
// welfare, revenue, spends, admit/reject counts, and reject reasons.
// The pre-fix zones.Run recomputed admitted welfare locally instead of
// using the decision's accounting; this pins the fixed path to the
// single shared Account tally.
func runDifferential(t *testing.T, mkZones func() []*Zone, tasks []task.Task) {
	t.Helper()
	live := mkZones()
	r, err := NewRouter(live...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(r, tasks)
	if err != nil {
		t.Fatal(err)
	}

	// Twin zones, rebuilt fresh with identical configuration; replay each
	// zone's routed subsequence sequentially.
	twins := mkZones()
	total := 0.0
	for zi, tw := range twins {
		key := tw.key()
		var sub []task.Task
		for i := range tasks {
			if res.Assignments[i] == key {
				sub = append(sub, tasks[i])
			}
		}
		want, err := sim.Run(tw.Cluster, tw.Scheduler, sub, sim.Config{
			Model:  tw.Model,
			Market: tw.Market,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := res.PerZone[key]
		if got == nil {
			t.Fatalf("zone %q missing from result", key)
		}
		if got.Admitted != want.Admitted || got.Rejected != want.Rejected {
			t.Fatalf("zone %q: %d/%d admitted/rejected, sim.Run says %d/%d",
				key, got.Admitted, got.Rejected, want.Admitted, want.Rejected)
		}
		if got.Welfare != want.Welfare {
			t.Fatalf("zone %q: welfare %v, sim.Run says %v", key, got.Welfare, want.Welfare)
		}
		if got.Revenue != want.Revenue {
			t.Fatalf("zone %q: revenue %v, sim.Run says %v", key, got.Revenue, want.Revenue)
		}
		if got.VendorSpend != want.VendorSpend || got.EnergySpend != want.EnergySpend {
			t.Fatalf("zone %q: spends vendor=%v energy=%v, sim.Run says vendor=%v energy=%v",
				key, got.VendorSpend, got.EnergySpend, want.VendorSpend, want.EnergySpend)
		}
		for reason, n := range want.RejectReasons {
			if got.RejectReasons[reason] != n {
				t.Fatalf("zone %q: reason %q tallied %d, sim.Run says %d",
					key, reason, got.RejectReasons[reason], n)
			}
		}
		// The live zone's final ledger matches the twin's byte for byte:
		// routing fed it exactly the subsequence the twin replayed.
		if live[zi].Cluster.Utilization() != tw.Cluster.Utilization() {
			t.Fatalf("zone %q: live utilization %v, twin %v",
				key, live[zi].Cluster.Utilization(), tw.Cluster.Utilization())
		}
		total += want.Welfare
	}
	if res.TotalWelfare != total {
		t.Fatalf("total welfare %v, per-zone sim.Run sum %v", res.TotalWelfare, total)
	}
}

func TestRunMatchesPerZoneSimRun(t *testing.T) {
	tasks := multiModelWorkload(t)
	runDifferential(t, func() []*Zone {
		mkt, _ := vendor.Standard(2, 1)
		return []*Zone{
			makeZone(t, lora.GPT2Small(), 3, mkt),
			makeZone(t, lora.GPT2Medium(), 3, mkt),
		}
	}, tasks)
}

// The same differential holds with replica shards of a single model —
// the exact topology service.Shards runs — where placement is decided
// purely by the published dual prices and the ID tie-break.
func TestRunMatchesPerZoneSimRunReplicaShards(t *testing.T) {
	cfgTasks := multiModelWorkload(t)
	// Keep only the small-model tasks so both shards serve every bid.
	var tasks []task.Task
	for _, tk := range cfgTasks {
		if tk.ModelName == lora.ModelGPT2Small {
			tasks = append(tasks, tk)
		}
	}
	runDifferential(t, func() []*Zone {
		mkt, _ := vendor.Standard(2, 1)
		a := makeZone(t, lora.GPT2Small(), 2, mkt)
		b := makeZone(t, lora.GPT2Small(), 2, mkt)
		a.Key, b.Key = "gpt2-small/0", "gpt2-small/1"
		return []*Zone{a, b}
	}, tasks)
}
