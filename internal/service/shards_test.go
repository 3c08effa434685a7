package service

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// shardWorkload generates the shared bid stream the sharded tests route.
func shardWorkload(t testing.TB, slots int, rate float64, seed int64) []task.Task {
	t.Helper()
	tc := trace.DefaultConfig()
	tc.Seed = seed
	tc.Horizon = timeslot.NewHorizon(slots)
	tc.RatePerSlot = rate
	tasks, err := trace.Generate(tc)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return tasks
}

// bySlot splits a generated workload by arrival slot.
func bySlot(t testing.TB, tasks []task.Task, slots int) [][]task.Task {
	t.Helper()
	perSlot, err := trace.BySlot(tasks, slots)
	if err != nil {
		t.Fatal(err)
	}
	return perSlot
}

// newShardStack wires one shard: its own cluster slice, marketplace, and
// scheduler calibrated against the full workload. Building it twice with
// the same arguments yields a deterministic twin.
func newShardStack(t testing.TB, slots, nodes int, seed int64, tasks []task.Task) *testStack {
	t.Helper()
	h := timeslot.NewHorizon(slots)
	model := lora.GPT2Small()
	specs := cluster.Uniform(nodes, gpu.A100, lora.NodeCapUnits(model, gpu.A100, h), gpu.A100.MemGB)
	cl, err := cluster.New(cluster.Config{Horizon: h, BaseModelGB: lora.BaseMemoryGB(model)}, specs)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	mkt, err := vendor.Standard(4, seed+7)
	if err != nil {
		t.Fatalf("marketplace: %v", err)
	}
	sched, err := core.New(cl, core.CalibrateDuals(tasks, model, cl, mkt))
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	return &testStack{cl: cl, sched: sched, model: model, mkt: mkt, tasks: tasks}
}

// shardDecision locates a decided bid and the shard that decided it by
// iterating the Auctioneer's Brokers surface — what callers that need
// per-shard attribution do now that DecisionFor is shape-blind.
func shardDecision(t *testing.T, s Auctioneer, id int) (schedule.Decision, int, bool) {
	t.Helper()
	for i, b := range s.Brokers() {
		d, ok, err := b.DecisionFor(id)
		if err != nil {
			t.Fatalf("shard %d DecisionFor(%d): %v", i, id, err)
		}
		if ok {
			return d, i, true
		}
	}
	return schedule.Decision{}, -1, false
}

// driveShards routes the whole workload through the fleet slot by slot
// (SubmitBatchAck at each arrival slot, then Step), insisting every
// intake verdict is clean.
func driveShards(t *testing.T, s Auctioneer, slots int, tasks []task.Task) {
	t.Helper()
	perSlot := bySlot(t, tasks, slots)
	for slot := 0; slot < slots; slot++ {
		batch := perSlot[slot]
		if len(batch) > 0 {
			verdicts := make([]error, len(batch))
			if _, err := s.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
				t.Fatalf("slot %d: SubmitBatchAck: %v", slot, err)
			}
			for i, v := range verdicts {
				if v != nil {
					t.Fatalf("slot %d: bid %d refused: %v", slot, batch[i].ID, v)
				}
			}
		}
		if _, err := s.Step(1); err != nil {
			t.Fatalf("slot %d: Step: %v", slot, err)
		}
	}
}

// TestShardCountInvariance pins the shard-count-invariance contract: a
// 1-shard routed fleet is bit-for-bit the monolithic broker — same
// decisions, same duals, same ledger, same accounting. The router may
// only ever redistribute work, never change what a shard computes.
func TestShardCountInvariance(t *testing.T) {
	const slots, nodes = 24, 4
	tasks := shardWorkload(t, slots, 3, 11)

	mono := newShardStack(t, slots, nodes, 11, tasks)
	b := startBroker(t, mono.brokerOptions())
	perSlot := bySlot(t, tasks, slots)
	for slot := 0; slot < slots; slot++ {
		if batch := perSlot[slot]; len(batch) > 0 {
			verdicts := make([]error, len(batch))
			if _, err := b.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
				t.Fatalf("mono slot %d: %v", slot, err)
			}
			for _, v := range verdicts {
				if v != nil {
					t.Fatalf("mono refusal: %v", v)
				}
			}
		}
		if _, err := b.Step(1); err != nil {
			t.Fatalf("mono Step: %v", err)
		}
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("mono Drain: %v", err)
	}

	routed := newShardStack(t, slots, nodes, 11, tasks)
	s, err := newShards("", []Options{routed.brokerOptions()})
	if err != nil {
		t.Fatalf("newShards: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	driveShards(t, s, slots, tasks)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	for _, tk := range tasks {
		want, ok, err := b.DecisionFor(tk.ID)
		if err != nil || !ok {
			t.Fatalf("mono decision %d: ok=%v err=%v", tk.ID, ok, err)
		}
		got, si, ok := shardDecision(t, s, tk.ID)
		if !ok {
			t.Fatalf("routed decision %d missing", tk.ID)
		}
		if si != 0 {
			t.Fatalf("task %d routed to shard %d in a 1-shard fleet", tk.ID, si)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("task %d: routed decision %+v, monolithic %+v", tk.ID, got, want)
		}
	}
	if !mono.sched.SnapshotDuals().Equal(routed.sched.SnapshotDuals()) {
		t.Fatal("duals diverged between monolithic and 1-shard routed runs")
	}
	if !reflect.DeepEqual(mono.cl.Snapshot(), routed.cl.Snapshot()) {
		t.Fatal("ledgers diverged between monolithic and 1-shard routed runs")
	}
	wantRes, gotRes := b.Result(), s.brokers[0].Result()
	if wantRes.Welfare != gotRes.Welfare || wantRes.Revenue != gotRes.Revenue ||
		wantRes.Admitted != gotRes.Admitted || wantRes.Rejected != gotRes.Rejected {
		t.Fatalf("accounting diverged: routed %+v, monolithic %+v", gotRes, wantRes)
	}
}

// TestShardsMatchSimRunTwins is the sharded form of the repo's anchor
// property: every shard's outcome is bit-identical to a sequential
// sim.Run of the subsequence the router fed it.
func TestShardsMatchSimRunTwins(t *testing.T) {
	const slots, shards, nodesPerShard = 24, 3, 2
	tasks := shardWorkload(t, slots, 4, 17)

	mk := func() []*testStack {
		out := make([]*testStack, shards)
		for i := range out {
			out[i] = newShardStack(t, slots, nodesPerShard, 17+int64(i), tasks)
		}
		return out
	}
	live := mk()
	opts := make([]Options, shards)
	for i, st := range live {
		opts[i] = st.brokerOptions()
	}
	s, err := Open(opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	driveShards(t, s, slots, tasks)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Recover each task's shard assignment, then replay each shard's
	// subsequence through a twin stack sequentially.
	assign := make([]int, len(tasks))
	for i, tk := range tasks {
		_, si, ok := shardDecision(t, s, tk.ID)
		if !ok {
			t.Fatalf("decision %d missing", tk.ID)
		}
		assign[i] = si
	}
	spread := map[int]int{}
	for _, si := range assign {
		spread[si]++
	}
	if len(spread) != shards {
		t.Fatalf("router used %d of %d shards: %v", len(spread), shards, spread)
	}
	twins := mk()
	for si, tw := range twins {
		var sub []task.Task
		for i := range tasks {
			if assign[i] == si {
				sub = append(sub, tasks[i])
			}
		}
		want, err := sim.Run(tw.cl, tw.sched, sub, sim.Config{
			Model: tw.model, Market: tw.mkt, CollectDecisions: true,
		})
		if err != nil {
			t.Fatalf("twin %d: %v", si, err)
		}
		got := s.Brokers()[si].Result()
		if got.Welfare != want.Welfare || got.Revenue != want.Revenue ||
			got.Admitted != want.Admitted || got.Rejected != want.Rejected ||
			got.VendorSpend != want.VendorSpend || got.EnergySpend != want.EnergySpend {
			t.Fatalf("shard %d accounting: live %+v, twin %+v", si, got, want)
		}
		for j, tk := range sub {
			d, _, _ := s.DecisionFor(tk.ID)
			wd := want.Decisions[j]
			if d.Admitted != wd.Admitted || d.Payment() != wd.Payment() || d.Reason != wd.Reason {
				t.Fatalf("shard %d task %d: live %+v, twin %+v", si, tk.ID, d, wd)
			}
		}
		if !live[si].sched.SnapshotDuals().Equal(tw.sched.SnapshotDuals()) {
			t.Fatalf("shard %d duals diverged from twin", si)
		}
		if !reflect.DeepEqual(live[si].cl.Snapshot(), tw.cl.Snapshot()) {
			t.Fatalf("shard %d ledger diverged from twin", si)
		}
	}
}

// TestShardManifestKillRestore kills the whole fleet mid-horizon and
// restores every shard from the manifest: the resumed run must finish
// exactly as an uninterrupted twin fleet does.
func TestShardManifestKillRestore(t *testing.T) {
	const slots, shards, killAt = 24, 2, 12
	tasks := shardWorkload(t, slots, 3, 23)
	base := filepath.Join(t.TempDir(), "fleet.ckpt")

	mkFleet := func(ckpt bool) Auctioneer {
		opts := make([]Options, shards)
		for i := range opts {
			opts[i] = newShardStack(t, slots, 2, 23+int64(i), tasks).brokerOptions()
			if ckpt {
				opts[i].CheckpointPath = base
				opts[i].CheckpointFullEvery = 4
			}
		}
		s, err := Open(opts...)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}

	perSlot := bySlot(t, tasks, slots)
	drive := func(s Auctioneer, from, to int) {
		for slot := from; slot < to; slot++ {
			if batch := perSlot[slot]; len(batch) > 0 {
				verdicts := make([]error, len(batch))
				if _, err := s.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
				for _, v := range verdicts {
					if v != nil {
						t.Fatalf("slot %d refusal: %v", slot, v)
					}
				}
			}
			if _, err := s.Step(1); err != nil {
				t.Fatalf("slot %d Step: %v", slot, err)
			}
		}
	}

	// Uninterrupted twin fleet.
	ref := mkFleet(false)
	if err := ref.Start(); err != nil {
		t.Fatalf("ref Start: %v", err)
	}
	drive(ref, 0, slots)
	if err := ref.Drain(context.Background()); err != nil {
		t.Fatalf("ref Drain: %v", err)
	}

	// Checkpointed fleet, killed at killAt.
	s := mkFleet(true)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	drive(s, 0, killAt)
	decided := map[int]bool{}
	for _, tk := range tasks {
		if tk.Arrival < killAt {
			decided[tk.ID] = true
		}
	}
	s.Kill()

	// Fresh stacks, resumed as one unit.
	s2 := mkFleet(true)
	if rep, err := s2.Resume(); err != nil || !rep.FromCheckpoint || rep.Slot != killAt || rep.Decided != len(decided) {
		t.Fatalf("Resume: %+v, %v; want slot %d with %d decided", rep, err, killAt, len(decided))
	}
	if err := s2.Start(); err != nil {
		t.Fatalf("restored Start: %v", err)
	}
	if slot, err := s2.Slot(); err != nil || slot != killAt {
		t.Fatalf("restored at slot %d (err %v), want %d", slot, err, killAt)
	}
	// Every pre-kill decision survived the restore.
	for id := range decided {
		if _, ok, err := s2.DecisionFor(id); err != nil || !ok {
			t.Fatalf("decision %d lost across restore (ok=%v err=%v)", id, ok, err)
		}
	}
	drive(s2, killAt, slots)
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("restored Drain: %v", err)
	}

	for _, tk := range tasks {
		want, refSi, ok := shardDecision(t, ref, tk.ID)
		if !ok {
			t.Fatalf("ref decision %d missing", tk.ID)
		}
		got, si, ok := shardDecision(t, s2, tk.ID)
		if !ok {
			t.Fatalf("restored decision %d missing", tk.ID)
		}
		if si != refSi || !reflect.DeepEqual(got, want) {
			t.Fatalf("task %d: restored (shard %d) %+v, uninterrupted (shard %d) %+v",
				tk.ID, si, got, refSi, want)
		}
	}
	refW, gotW := 0.0, 0.0
	for i := 0; i < shards; i++ {
		refW += ref.Brokers()[i].Result().Welfare
		gotW += s2.Brokers()[i].Result().Welfare
	}
	if refW != gotW {
		t.Fatalf("welfare diverged across kill/restore: %v vs %v", gotW, refW)
	}
}

// TestShardRoutingRefusals pins the router's intake contract: bids
// without explicit IDs and bids for unhosted models are refused per-bid
// without disturbing the rest of the batch.
func TestShardRoutingRefusals(t *testing.T) {
	const slots = 8
	tasks := shardWorkload(t, slots, 2, 31)
	st := newShardStack(t, slots, 2, 31, tasks)
	// A shard serving a model outside the catalog has no code to be
	// routed to: the fleet refuses to form.
	uncatalogued := st.brokerOptions()
	uncatalogued.Model.Name = "llama-7b"
	if _, err := newShards("", []Options{uncatalogued}); err == nil {
		t.Fatal("a shard serving an uncatalogued model was accepted")
	}
	s, err := newShards("", []Options{st.brokerOptions()})
	if err != nil {
		t.Fatalf("newShards: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Kill()

	good := tasks[0]
	noID := tasks[1]
	noID.ID = -1
	alien := tasks[2]
	alien.ModelName = lora.ModelGPT2Medium // catalogued, but no shard serves it
	batch := []task.Task{good, noID, alien}
	verdicts := make([]error, len(batch))
	if _, err := s.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
		t.Fatalf("SubmitBatchAck: %v", err)
	}
	if verdicts[0] != nil {
		t.Fatalf("good bid refused: %v", verdicts[0])
	}
	if !errors.Is(verdicts[1], ErrShardNeedsID) {
		t.Fatalf("ID-less bid verdict %v, want ErrShardNeedsID", verdicts[1])
	}
	if !errors.Is(verdicts[2], ErrUnroutable) {
		t.Fatalf("alien-model bid verdict %v, want ErrUnroutable", verdicts[2])
	}
	if st, err := s.FleetStatus(); err != nil || st.Unroutable != 1 {
		t.Fatalf("status unroutable %d (err %v), want 1", st.Unroutable, err)
	}
}
