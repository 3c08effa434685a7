package service

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/spot"
	"github.com/pdftsp/pdftsp/internal/task"
)

// spotProviderFor builds a fresh provider over the stack's last node —
// broker and sim twin each need their own (a provider binds to exactly
// one cluster), built from the same seeded trace so the market is shared.
// The market also reclaims the node at the start of every slot in reclaims.
func spotProviderFor(t testing.TB, s *testStack, seed int64, reclaimProb float64, reclaims ...int) *spot.Provider {
	t.Helper()
	elastic := s.cl.NumNodes() - 1
	tr, err := spot.GenerateTrace(spot.TraceConfig{
		Seed:        seed,
		Slots:       s.cl.Horizon().T,
		Nodes:       []int{elastic},
		BasePrice:   spot.ReferencePrice(s.cl) * 0.3,
		ReclaimProb: reclaimProb,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range reclaims {
		tr.Reclaims[slot] = []int{elastic}
	}
	p, err := spot.New(spot.Options{Trace: tr, Nodes: []int{elastic}, Budget: 1e6, LeaseLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBrokerSpotEquivalence: a broker renting elastic capacity from a
// seeded spot market — including revocations mid-plan — stays
// bit-identical to sim.Run with the same provider configuration.
func TestBrokerSpotEquivalence(t *testing.T) {
	const slots, nodes, workers = 24, 3, 6
	const rate = 8.0
	const spotSeed, reclaim = 5, 0.25
	failures := []sim.Failure{{Node: 0, From: 8, To: 14}}

	serve := newFaultStack(t, slots, nodes, rate, 31)
	twin := newFaultStack(t, slots, nodes, rate, 31)

	opts := serve.brokerOptions()
	opts.Failures = failures
	opts.Spot = spotProviderFor(t, serve, spotSeed, reclaim)
	b := startBroker(t, opts)
	chans := submitAll(t, b, serve.tasks, workers)
	if _, err := b.Step(slots); err != nil {
		t.Fatal(err)
	}
	for i := range serve.tasks {
		if out := <-chans[i]; out.Err != nil {
			t.Fatalf("task %d: %v", serve.tasks[i].ID, out.Err)
		}
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	twinProv := spotProviderFor(t, twin, spotSeed, reclaim)
	want, err := sim.Run(twin.cl, twin.sched, twin.tasks, sim.Config{
		Model: twin.model, Market: twin.mkt,
		Failures: failures, Spot: twinProv,
		CollectDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.SpotLeases == 0 || want.SpotLeasedSlots == 0 {
		t.Fatalf("spot tier never engaged; the test is vacuous: %+v", want)
	}
	if want.SpotRevocations == 0 {
		t.Fatalf("no revocations at reclaim prob %v; the test is vacuous", reclaim)
	}

	res := b.Result()
	if res.Welfare != want.Welfare || res.Revenue != want.Revenue ||
		res.Admitted != want.Admitted || res.Rejected != want.Rejected ||
		res.SpotSpend != want.SpotSpend || res.SpotLeases != want.SpotLeases ||
		res.SpotLeasedSlots != want.SpotLeasedSlots ||
		res.SpotRevocations != want.SpotRevocations ||
		res.RecoveredTasks != want.RecoveredTasks ||
		res.FailedTasks != want.FailedTasks ||
		res.RefundedValue != want.RefundedValue {
		t.Fatalf("accounting diverged:\nbroker %+v\nsim    %+v", res, want)
	}
	for i, tk := range serve.tasks {
		got, ok, err := b.DecisionFor(tk.ID)
		if err != nil || !ok {
			t.Fatalf("task %d: no decision (ok=%v err=%v)", tk.ID, ok, err)
		}
		w := want.Decisions[i]
		if got.Admitted != w.Admitted || got.Payment() != w.Payment() || got.Reason != w.Reason {
			t.Fatalf("task %d: broker (%v %v %q) vs sim (%v %v %q)",
				tk.ID, got.Admitted, got.Payment(), got.Reason, w.Admitted, w.Payment(), w.Reason)
		}
	}
	if !serve.sched.SnapshotDuals().Equal(twin.sched.SnapshotDuals()) {
		t.Fatal("final duals diverge from sim.Run")
	}
	if !reflect.DeepEqual(serve.cl.Snapshot(), twin.cl.Snapshot()) {
		t.Fatal("final ledgers diverge from sim.Run")
	}
	if !reflect.DeepEqual(opts.Spot.State(), twinProv.State()) {
		t.Fatal("provider states diverge from sim.Run")
	}
}

// TestCheckpointKillRestoreMidLease is the regression test for the
// incremental-delta codec: with CheckpointFullEvery > 1 the kill lands
// on a delta chain, so the record must carry the spot accounting
// scalars, the lease plane, and the provider cursor. (A codec that
// restores the provider from the older full snapshot but welfare from
// the newest delta double-charges the rent on resume.)
func TestCheckpointKillRestoreMidLease(t *testing.T) {
	const slots, nodes, killAt = 24, 3, 11
	const rate = 6.0
	const spotSeed, reclaim = 5, 0.25
	failures := []sim.Failure{{Node: 0, From: 8, To: 16}}
	path := filepath.Join(t.TempDir(), "lease.ckpt")

	serve := newFaultStack(t, slots, nodes, rate, 37)
	twin := newFaultStack(t, slots, nodes, rate, 37)

	var early, late []task.Task
	for _, tk := range serve.tasks {
		if tk.Arrival < killAt {
			early = append(early, tk)
		} else {
			late = append(late, tk)
		}
	}
	if len(early) == 0 || len(late) == 0 {
		t.Fatalf("degenerate split: %d early, %d late", len(early), len(late))
	}

	optsA := serve.brokerOptions()
	optsA.CheckpointPath = path
	optsA.CheckpointEvery = 1
	optsA.CheckpointFullEvery = 4 // force the kill onto a delta record
	optsA.Failures = failures
	optsA.Spot = spotProviderFor(t, serve, spotSeed, reclaim)
	a := startBroker(t, optsA)
	earlyChans := submitAll(t, a, early, 4)
	if _, err := a.Step(killAt); err != nil {
		t.Fatal(err)
	}
	for i := range early {
		if out := <-earlyChans[i]; out.Err != nil {
			t.Fatalf("early task %d: %v", early[i].ID, out.Err)
		}
	}
	if st, err := a.Status(); err != nil || st.SpotLeasedSlots == 0 {
		t.Fatalf("no lease live before the kill (st=%+v err=%v); the test is vacuous", st, err)
	}
	a.Kill()

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Slot != killAt {
		t.Fatalf("checkpoint at slot %d, want %d", ck.Slot, killAt)
	}
	if ck.Spot == nil || len(ck.Spot.Leases) == 0 && ck.Spot.Next == 0 {
		t.Fatalf("checkpoint carries no spot state: %+v", ck.Spot)
	}

	restored := newFaultStack(t, slots, nodes, rate, 37)
	optsB := restored.brokerOptions()
	optsB.CheckpointPath = path
	optsB.CheckpointEvery = 1
	optsB.CheckpointFullEvery = 4
	optsB.Failures = failures
	optsB.Spot = spotProviderFor(t, restored, spotSeed, reclaim)
	b, err := New(optsB)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(ck); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	lateChans := submitAll(t, b, late, 4)
	if _, err := b.Step(slots - killAt); err != nil {
		t.Fatal(err)
	}
	for i := range late {
		if out := <-lateChans[i]; out.Err != nil {
			t.Fatalf("late task %d: %v", late[i].ID, out.Err)
		}
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	twinProv := spotProviderFor(t, twin, spotSeed, reclaim)
	want, err := sim.Run(twin.cl, twin.sched, twin.tasks, sim.Config{
		Model: twin.model, Market: twin.mkt,
		Failures: failures, Spot: twinProv,
		CollectDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := b.Result()
	if res.Welfare != want.Welfare || res.Revenue != want.Revenue ||
		res.SpotSpend != want.SpotSpend || res.SpotLeases != want.SpotLeases ||
		res.SpotLeasedSlots != want.SpotLeasedSlots ||
		res.SpotRevocations != want.SpotRevocations ||
		res.RefundedValue != want.RefundedValue {
		t.Fatalf("resumed run diverged:\nbroker %+v\nsim    %+v", res, want)
	}
	if !restored.sched.SnapshotDuals().Equal(twin.sched.SnapshotDuals()) {
		t.Fatal("final duals after mid-lease restore diverge from the uninterrupted replay")
	}
	if !reflect.DeepEqual(restored.cl.Snapshot(), twin.cl.Snapshot()) {
		t.Fatal("final ledger after mid-lease restore diverges from the uninterrupted replay")
	}
	if !reflect.DeepEqual(optsB.Spot.State(), twinProv.State()) {
		t.Fatal("provider state after mid-lease restore diverges from the uninterrupted replay")
	}
	for i, tk := range serve.tasks {
		got, ok, err := b.DecisionFor(tk.ID)
		if err != nil || !ok {
			t.Fatalf("task %d: decision lost across restore (ok=%v err=%v)", tk.ID, ok, err)
		}
		w := want.Decisions[i]
		if got.Admitted != w.Admitted || got.Reason != w.Reason {
			t.Fatalf("task %d: resumed (admitted=%v %q) vs replay (admitted=%v %q)",
				tk.ID, got.Admitted, got.Reason, w.Admitted, w.Reason)
		}
	}
}
