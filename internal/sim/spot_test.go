// Spot-tier determinism lives in an external test package: internal/spot
// imports internal/sim, so sim's own package cannot import it back.
package sim_test

import (
	"reflect"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/spot"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
)

type spotRun struct {
	res   *sim.Result
	duals core.DualState
	snap  cluster.Snapshot
}

// runSpotSim wires a 3-node fleet whose last node is spot capacity and
// replays a fixed workload with failures plus a seeded spot market.
func runSpotSim(t *testing.T, spotSeed int64, reclaimProb float64) spotRun {
	t.Helper()
	tc := trace.DefaultConfig()
	tc.Horizon = timeslot.NewHorizon(36)
	tc.RatePerSlot = 3
	tc.Seed = 8
	tc.PrepProb = 0
	tasks, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}

	model := lora.GPT2Small()
	cl, err := cluster.New(cluster.Config{
		Horizon:     tc.Horizon,
		BaseModelGB: lora.BaseMemoryGB(model),
	}, cluster.Uniform(3, gpu.A100, lora.NodeCapUnits(model, gpu.A100, tc.Horizon), gpu.A100.MemGB))
	if err != nil {
		t.Fatal(err)
	}

	tr, err := spot.GenerateTrace(spot.TraceConfig{
		Seed:        spotSeed,
		Slots:       tc.Horizon.T,
		Nodes:       []int{2},
		BasePrice:   spot.ReferencePrice(cl) * 0.3,
		ReclaimProb: reclaimProb,
	})
	if err != nil {
		t.Fatal(err)
	}
	prov, err := spot.New(spot.Options{Trace: tr, Nodes: []int{2}, Budget: 1e6})
	if err != nil {
		t.Fatal(err)
	}

	opts := core.CalibrateDuals(tasks, tc.Model, cl, nil)
	opts.MaskFullCells = true
	sched, err := core.New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cl, sched, tasks, sim.Config{
		Model:            tc.Model,
		Failures:         []sim.Failure{{Node: 0, From: 12, To: 20}},
		Spot:             prov,
		CollectDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spotRun{res: res, duals: sched.SnapshotDuals(), snap: cl.Snapshot()}
}

// TestSpotRunDeterministic: same workload seed + same spot trace seed ⇒
// bit-identical results — accounting, decisions, duals and ledger.
func TestSpotRunDeterministic(t *testing.T) {
	first := runSpotSim(t, 11, 0.15)
	if first.res.SpotLeases == 0 || first.res.SpotLeasedSlots == 0 {
		t.Fatalf("spot tier never engaged: %+v", first.res)
	}
	if first.res.SpotRevocations == 0 {
		t.Fatalf("no revocations at reclaim prob 0.15: %+v", first.res)
	}
	for run := 0; run < 2; run++ {
		again := runSpotSim(t, 11, 0.15)
		if again.res.Welfare != first.res.Welfare ||
			again.res.Revenue != first.res.Revenue ||
			again.res.SpotSpend != first.res.SpotSpend ||
			again.res.SpotLeases != first.res.SpotLeases ||
			again.res.SpotLeasedSlots != first.res.SpotLeasedSlots ||
			again.res.SpotRevocations != first.res.SpotRevocations ||
			again.res.Admitted != first.res.Admitted ||
			again.res.RecoveredTasks != first.res.RecoveredTasks ||
			again.res.FailedTasks != first.res.FailedTasks ||
			again.res.RefundedValue != first.res.RefundedValue {
			t.Fatalf("run %d accounting diverged:\nfirst %+v\nagain %+v", run, first.res, again.res)
		}
		if len(again.res.Decisions) != len(first.res.Decisions) {
			t.Fatalf("run %d: %d decisions vs %d", run, len(again.res.Decisions), len(first.res.Decisions))
		}
		for i := range first.res.Decisions {
			a, b := first.res.Decisions[i], again.res.Decisions[i]
			if a.Admitted != b.Admitted || a.Payment() != b.Payment() || a.Reason != b.Reason {
				t.Fatalf("run %d: decision %d diverged: %+v vs %+v", run, i, a, b)
			}
		}
		if !again.duals.Equal(first.duals) {
			t.Fatalf("run %d: dual state diverged", run)
		}
		if !reflect.DeepEqual(again.snap, first.snap) {
			t.Fatalf("run %d: cluster ledger diverged", run)
		}
	}
}

// TestSpotSeedMatters: the cost frontier depends on the market — a
// different price walk must change spot spending.
func TestSpotSeedMatters(t *testing.T) {
	a := runSpotSim(t, 11, 0.15)
	b := runSpotSim(t, 12, 0.15)
	if a.res.SpotSpend == b.res.SpotSpend {
		t.Fatal("two market seeds produced identical spot behaviour")
	}
}

// TestSpotCapacityAdmitsMore: against an identical workload, the elastic
// tier only ever adds admissions relative to running the same fleet with
// the spot node permanently dark (no provider → MarkElastic alone shuts
// the node). This is the point of renting capacity at all.
func TestSpotCapacityAdmitsMore(t *testing.T) {
	withSpot := runSpotSim(t, 11, 0)

	tc := trace.DefaultConfig()
	tc.Horizon = timeslot.NewHorizon(36)
	tc.RatePerSlot = 3
	tc.Seed = 8
	tc.PrepProb = 0
	tasks, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	model := lora.GPT2Small()
	cl, err := cluster.New(cluster.Config{
		Horizon:     tc.Horizon,
		BaseModelGB: lora.BaseMemoryGB(model),
	}, cluster.Uniform(3, gpu.A100, lora.NodeCapUnits(model, gpu.A100, tc.Horizon), gpu.A100.MemGB))
	if err != nil {
		t.Fatal(err)
	}
	cl.MarkElastic(2) // dark node: elastic, never leased
	opts := core.CalibrateDuals(tasks, tc.Model, cl, nil)
	opts.MaskFullCells = true
	sched, err := core.New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	dark, err := sim.Run(cl, sched, tasks, sim.Config{
		Model:    tc.Model,
		Failures: []sim.Failure{{Node: 0, From: 12, To: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withSpot.res.Admitted < dark.Admitted {
		t.Fatalf("renting capacity lost admissions: %d with spot vs %d dark",
			withSpot.res.Admitted, dark.Admitted)
	}
}
