package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// testStack is one fully wired auction; building it twice from the same
// parameters yields deterministic twins, which is what every equivalence
// test below relies on.
type testStack struct {
	cl    *cluster.Cluster
	sched *core.Scheduler
	model lora.ModelConfig
	mkt   *vendor.Marketplace
	tasks []task.Task
}

func newStack(t testing.TB, slots, nodes int, rate float64, seed int64) *testStack {
	t.Helper()
	h := timeslot.NewHorizon(slots)
	model := lora.GPT2Small()
	tc := trace.DefaultConfig()
	tc.Seed = seed
	tc.Horizon = h
	tc.RatePerSlot = rate
	tasks, err := trace.Generate(tc)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
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

func (s *testStack) brokerOptions() Options {
	return Options{
		Cluster:      s.cl,
		Scheduler:    s.sched,
		Model:        s.model,
		Market:       s.mkt,
		QueueSize:    len(s.tasks) + 16,
		VirtualClock: true,
	}
}

func startBroker(t testing.TB, opts Options) *Broker {
	t.Helper()
	b := newBroker(t, opts)
	if err := b.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return b
}

// ackOne hands one bid to b as a SubmitBatchAck of one, the form the
// HTTP ack endpoint sends, and returns its intake verdict.
func ackOne(ctx context.Context, b *Broker, tk task.Task) error {
	verdicts := make([]error, 1)
	if _, err := b.SubmitBatchAck(ctx, []task.Task{tk}, verdicts); err != nil {
		return err
	}
	return verdicts[0]
}

// ackAll fans the workload in from `workers` goroutines, one ackOne per
// bid, and fails the test on any refusal. A bid's decision is read with
// DecisionFor once its slot has closed.
func ackAll(t *testing.T, b *Broker, tasks []task.Task, workers int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(tasks))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tasks); i += workers {
				if err := ackOne(context.Background(), b, tasks[i]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("SubmitBatchAck: %v", err)
	}
}

// decided is DecisionFor, failing the test when id has no decision.
func decided(t *testing.T, b *Broker, id int) schedule.Decision {
	t.Helper()
	d, ok, err := b.DecisionFor(id)
	if err != nil || !ok {
		t.Fatalf("task %d: no decision (ok=%v err=%v)", id, ok, err)
	}
	return d
}

// submitHeld hands one bid to b as a SubmitBatch of one from a goroutine,
// since the call blocks until the bid's slot closes, and returns once the
// broker holds the bid. The outcome arrives on the returned channel: the
// decision, or the error of a drain, a kill or an ended ctx.
func submitHeld(t *testing.T, ctx context.Context, b *Broker, tk task.Task) <-chan Outcome {
	t.Helper()
	before, err := b.Status()
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Outcome, 1)
	go func() {
		outs, err := b.SubmitBatch(ctx, []task.Task{tk})
		if err != nil {
			outs = []Outcome{{Err: err}}
		}
		ch <- outs[0]
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		st, err := b.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.Held > before.Held {
			return ch
		}
		select {
		case out := <-ch:
			t.Fatalf("bid %d refused at intake: %v", tk.ID, out.Err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("bid %d: no intake verdict in 5s", tk.ID)
		}
	}
}

// replay runs the same workload sequentially through a twin stack.
func replay(t *testing.T, s *testStack) *sim.Result {
	t.Helper()
	res, err := sim.Run(s.cl, s.sched, s.tasks, sim.Config{
		Model: s.model, Market: s.mkt, CollectDecisions: true,
	})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return res
}

// TestConcurrentEquivalence is the PR's acceptance test: 1000 bids
// submitted from 8 goroutines yield identical admissions, payments, and
// final dual prices to the sequential batch replay. Run it under -race.
func TestConcurrentEquivalence(t *testing.T) {
	const slots, nodes, workers = 24, 4, 8
	const rate = 52.0 // ≥ 1000 bids over 24 slots (arrivals stop before the tail)
	serve := newStack(t, slots, nodes, rate, 11)
	twin := newStack(t, slots, nodes, rate, 11)
	if len(serve.tasks) < 1000 {
		t.Fatalf("workload too small for the acceptance bar: %d bids", len(serve.tasks))
	}
	t.Logf("%d bids from %d goroutines", len(serve.tasks), workers)

	b := startBroker(t, serve.brokerOptions())
	ackAll(t, b, serve.tasks, workers)
	if slot, err := b.Step(slots); err != nil || slot != slots {
		t.Fatalf("Step: slot %d, err %v", slot, err)
	}

	want := replay(t, twin)

	for i, tk := range serve.tasks {
		d, w := decided(t, b, tk.ID), want.Decisions[i]
		if d.Admitted != w.Admitted || d.Payment() != w.Payment() {
			t.Fatalf("task %d: service (admitted=%v payment=%v) vs replay (admitted=%v payment=%v)",
				tk.ID, d.Admitted, d.Payment(), w.Admitted, w.Payment())
		}
		if d.Reason != w.Reason {
			t.Fatalf("task %d: reason %q vs %q", tk.ID, d.Reason, w.Reason)
		}
	}

	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	res := b.Result()
	if res.Welfare != want.Welfare || res.Revenue != want.Revenue ||
		res.Admitted != want.Admitted || res.Rejected != want.Rejected {
		t.Fatalf("accounting: service welfare=%v revenue=%v %d/%d, replay welfare=%v revenue=%v %d/%d",
			res.Welfare, res.Revenue, res.Admitted, res.Rejected,
			want.Welfare, want.Revenue, want.Admitted, want.Rejected)
	}
	if !reflect.DeepEqual(serve.sched.SnapshotDuals(), twin.sched.SnapshotDuals()) {
		t.Fatal("final dual prices diverge from the sequential replay")
	}
	if !reflect.DeepEqual(serve.cl.Snapshot(), twin.cl.Snapshot()) {
		t.Fatal("final cluster ledgers diverge from the sequential replay")
	}
}

// TestCheckpointKillRestore kills a broker mid-horizon and restores a
// fresh one from its checkpoint: the restored state must be bit-identical
// to the state at the kill, and the completed run must match an
// uninterrupted sequential replay exactly.
func TestCheckpointKillRestore(t *testing.T) {
	const slots, nodes, killAt = 24, 4, 12
	const rate = 6.0
	path := filepath.Join(t.TempDir(), "broker.ckpt")

	serve := newStack(t, slots, nodes, rate, 23)
	twin := newStack(t, slots, nodes, rate, 23)

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
	a := startBroker(t, optsA)
	ackAll(t, a, early, 4)
	if _, err := a.Step(killAt); err != nil {
		t.Fatalf("Step: %v", err)
	}
	for _, tk := range early {
		decided(t, a, tk.ID)
	}
	a.Kill()

	// A fresh stack (fresh duals, fresh ledger) restored from the file
	// must carry bit-identical state to the killed broker.
	restored := newStack(t, slots, nodes, rate, 23)
	ck, _, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Slot != killAt {
		t.Fatalf("checkpoint at slot %d, want %d", ck.Slot, killAt)
	}
	optsB := restored.brokerOptions()
	optsB.CheckpointPath = path
	b, err := New(optsB)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(ck); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !reflect.DeepEqual(restored.sched.SnapshotDuals(), serve.sched.SnapshotDuals()) {
		t.Fatal("restored duals differ from the killed broker's")
	}
	if !reflect.DeepEqual(restored.cl.Snapshot(), serve.cl.Snapshot()) {
		t.Fatal("restored ledger differs from the killed broker's")
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}

	ackAll(t, b, late, 4)
	if _, err := b.Step(slots - killAt); err != nil {
		t.Fatalf("Step: %v", err)
	}
	for _, tk := range late {
		decided(t, b, tk.ID)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := replay(t, twin)
	res := b.Result()
	if res.Welfare != want.Welfare || res.Admitted != want.Admitted || res.Revenue != want.Revenue {
		t.Fatalf("restored run: welfare=%v admitted=%d revenue=%v, uninterrupted replay: welfare=%v admitted=%d revenue=%v",
			res.Welfare, res.Admitted, res.Revenue, want.Welfare, want.Admitted, want.Revenue)
	}
	if !reflect.DeepEqual(restored.sched.SnapshotDuals(), twin.sched.SnapshotDuals()) {
		t.Fatal("final duals after restore diverge from the uninterrupted replay")
	}
	if !reflect.DeepEqual(restored.cl.Snapshot(), twin.cl.Snapshot()) {
		t.Fatal("final ledger after restore diverges from the uninterrupted replay")
	}
	if ck.Decisions.Len() == 0 {
		t.Fatal("checkpoint carries no decisions")
	}
	for _, tk := range serve.tasks {
		want, ok := ck.Decisions.Get(tk.ID)
		if !ok {
			continue // decided after the checkpoint
		}
		got, ok, err := b.DecisionFor(tk.ID)
		if err != nil || !ok {
			t.Fatalf("decision %d lost across restore (ok=%v err=%v)", tk.ID, ok, err)
		}
		if got.Admitted != want.Admitted || got.Payment() != want.Payment() {
			t.Fatalf("decision %d mutated across restore", tk.ID)
		}
	}
}

// TestIntakeVerdicts covers the refusals intake answers at the ack.
func TestIntakeVerdicts(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	opts := s.brokerOptions()
	opts.QueueSize = 2
	b := startBroker(t, opts)
	defer b.Kill()
	ctx := context.Background()

	bid := func(id, arrival int) task.Task {
		return task.Task{ID: id, Arrival: int32(arrival), Deadline: 10, Work: 5, MemGB: 2, Batch: 8, Bid: 5}
	}

	if err := ackOne(ctx, b, bid(0, 3)); err != nil {
		t.Fatalf("first bid: %v", err)
	}
	if err := ackOne(ctx, b, bid(0, 4)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate ID: got %v", err)
	}
	if err := ackOne(ctx, b, bid(1, 3)); err != nil {
		t.Fatalf("second bid: %v", err)
	}
	if err := ackOne(ctx, b, bid(2, 3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("held-queue overflow: got %v", err)
	}
	if _, err := b.Step(5); err != nil {
		t.Fatal(err)
	}
	if err := ackOne(ctx, b, bid(3, 2)); !errors.Is(err, ErrPastSlot) {
		t.Fatalf("past slot: got %v", err)
	}
	invalid := bid(4, 6)
	invalid.Work = -1
	if err := ackOne(ctx, b, invalid); err == nil {
		t.Fatal("invalid task accepted")
	}
	// JSON cannot carry a non-finite bid, but an in-process call can.
	// Admitted, it would win at surplus +Inf and leave λ = +Inf on its
	// plan's cells.
	before, _ := b.Duals()
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		nonFinite := bid(4, 6)
		nonFinite.Bid = v
		if err := ackOne(ctx, b, nonFinite); err == nil {
			t.Fatalf("bid %v accepted", v)
		}
	}
	if _, err := b.Step(1); err != nil {
		t.Fatal(err)
	}
	if after, _ := b.Duals(); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused non-finite bid moved the duals")
	}
	if _, err := b.Step(12); err != nil {
		t.Fatal(err)
	}
	if err := ackOne(ctx, b, bid(5, 11)); !errors.Is(err, ErrHorizonOver) {
		t.Fatalf("horizon over: got %v", err)
	}
}

// TestAutoAssign covers the "bid now" conveniences: negative arrival is
// stamped with the current slot, negative ID gets the next free one.
func TestAutoAssign(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	b := startBroker(t, s.brokerOptions())
	defer b.Kill()

	tk := task.Task{ID: -1, Arrival: -1, Deadline: 10, Work: 5, MemGB: 2, Batch: 8, Bid: 5}
	ch := submitHeld(t, context.Background(), b, tk)
	if _, err := b.Step(1); err != nil {
		t.Fatal(err)
	}
	out := <-ch
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Decision.TaskID < 0 {
		t.Fatalf("auto ID not assigned: %d", out.Decision.TaskID)
	}
	if _, ok, _ := b.DecisionFor(out.Decision.TaskID); !ok {
		t.Fatal("auto-assigned decision not queryable")
	}
}

// TestCanceledBidSkipped: a submitter that cancels before its slot closes
// never enters the auction, and the duals stay untouched by it.
func TestCanceledBidSkipped(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	b := startBroker(t, s.brokerOptions())
	defer b.Kill()

	before := s.sched.SnapshotDuals()
	ctx, cancel := context.WithCancel(context.Background())
	tk := task.Task{ID: 900, Arrival: 2, Deadline: 10, Work: 5, MemGB: 2, Batch: 8, Bid: 5}
	ch := submitHeld(t, ctx, b, tk)
	cancel()
	if _, err := b.Step(3); err != nil {
		t.Fatal(err)
	}
	out := <-ch
	if !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", out.Err)
	}
	if _, ok, _ := b.DecisionFor(900); ok {
		t.Fatal("canceled bid has a decision")
	}
	if !reflect.DeepEqual(s.sched.SnapshotDuals(), before) {
		t.Fatal("canceled bid moved the dual prices")
	}
	st, err := b.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Canceled != 1 {
		t.Fatalf("canceled count = %d, want 1", st.Canceled)
	}
}

// TestDrainRefusesHeld: drain answers held bids with ErrDraining, writes
// a final checkpoint, and closes Done.
func TestDrainRefusesHeld(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	path := filepath.Join(t.TempDir(), "drain.ckpt")
	opts := s.brokerOptions()
	opts.CheckpointPath = path
	b := startBroker(t, opts)

	tk := task.Task{ID: 1, Arrival: 5, Deadline: 10, Work: 5, MemGB: 2, Batch: 8, Bid: 5}
	ch := submitHeld(t, context.Background(), b, tk)
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-ch:
		if !errors.Is(out.Err, ErrDraining) {
			t.Fatalf("held bid got %v, want ErrDraining", out.Err)
		}
	case <-time.After(time.Second):
		t.Fatal("held bid never answered")
	}
	select {
	case <-b.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed after drain")
	}
	if _, _, err := readCheckpoint(path); err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	if err := ackOne(context.Background(), b, tk); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: got %v", err)
	}
}

// TestRestoreValidation rejects checkpoints from a different deployment.
func TestRestoreValidation(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	b, err := New(s.brokerOptions())
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{Version: checkpointVersion, Scheduler: "pdFTSP", Nodes: 99, Slots: 12}
	if err := b.Restore(ck); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	ck = &Checkpoint{Version: 99, Scheduler: "pdFTSP", Nodes: 2, Slots: 12}
	if err := b.Restore(ck); err == nil {
		t.Fatal("version mismatch accepted")
	}
	ck = &Checkpoint{Version: checkpointVersion, Scheduler: "other", Nodes: 2, Slots: 12}
	if err := b.Restore(ck); err == nil {
		t.Fatal("scheduler mismatch accepted")
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Kill()
	if err := b.Restore(&Checkpoint{Version: checkpointVersion}); !errors.Is(err, ErrStarted) {
		t.Fatalf("post-Start restore: got %v", err)
	}
}

// TestRealClockStepRefused: Step is a virtual-clock affordance.
func TestRealClockStepRefused(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	opts := s.brokerOptions()
	opts.VirtualClock = false
	opts.SlotDuration = time.Hour // never ticks within the test
	b := startBroker(t, opts)
	defer b.Kill()
	if _, err := b.Step(1); !errors.Is(err, ErrRealClock) {
		t.Fatalf("got %v, want ErrRealClock", err)
	}
}

// TestClosedSlotReleasesHeldBids: once a slot has closed and its outcomes
// are read, the broker must not keep the slot's bids reachable — each
// heldBid carries the request context and the submission with the
// submitter's whole task and outcome slices. The
// recycled backing arrays in heldFree (and the round's live/bids views
// into them) must hold nothing but zero values.
func TestClosedSlotReleasesHeldBids(t *testing.T) {
	const slots, nodes, n = 8, 2, 500
	st := newStack(t, slots, nodes, 100, 3)
	if len(st.tasks) < n {
		t.Fatalf("workload has %d bids, need %d", len(st.tasks), n)
	}
	flood := append([]task.Task(nil), st.tasks[:n]...)
	for i := range flood {
		flood[i].Arrival = 0
		if flood[i].Deadline < 1 {
			flood[i].Deadline = 1
		}
	}
	opts := st.brokerOptions()
	opts.QueueSize = n + 8
	b := startBroker(t, opts)
	// Half through one collecting batch, half as ack-only bids of one.
	batchDone := make(chan error, 1)
	go func() {
		_, err := b.SubmitBatch(context.Background(), flood[:n/2])
		batchDone <- err
	}()
	ackAll(t, b, flood[n/2:], 4)
	for {
		s, err := b.Status()
		if err != nil {
			t.Fatal(err)
		}
		if s.Held == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := b.Step(1); err != nil {
		t.Fatal(err)
	}
	if err := <-batchDone; err != nil {
		t.Fatal(err)
	}
	for _, tk := range flood[n/2:] {
		decided(t, b, tk.ID)
	}
	arrays := 0
	if err := b.do(func() {
		for _, free := range b.heldFree {
			arrays++
			for i, hb := range free[:cap(free)] {
				if !reflect.DeepEqual(hb, heldBid{}) {
					t.Errorf("heldFree array keeps bid %d (task %d) of the closed slot reachable", i, hb.task.ID)
					return
				}
			}
		}
		if b.live != nil {
			t.Errorf("b.live still views the closed round (%d bids)", len(b.live))
		}
		for _, p := range b.bids[:cap(b.bids)] {
			if p != nil {
				t.Error("b.bids still points into the closed round")
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if arrays == 0 {
		t.Fatal("no recycled array to inspect; the test is vacuous")
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBrokerRefusesUnservedModel: a lone broker serves one model, so a
// bid naming another is refused at intake with ErrUnroutable (HTTP 400),
// as a fleet refuses it, instead of being priced with the served model's
// throughput. A bid naming the served model, or none, is held.
func TestBrokerRefusesUnservedModel(t *testing.T) {
	s := newStack(t, 8, 2, 3, 5)
	b := startBroker(t, s.brokerOptions())
	defer b.Kill()
	bid := func(id int, m lora.Model) task.Task {
		return task.Task{ID: id, Arrival: 1, Deadline: 7, Work: 5, MemGB: 2, Batch: 8, Bid: 50, ModelName: m}
	}
	batch := []task.Task{bid(1, lora.ModelGPT2Medium), bid(2, lora.ModelGPT2Small), bid(3, 0)}
	verdicts := make([]error, len(batch))
	if _, err := b.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(verdicts[0], ErrUnroutable) || httpStatus(verdicts[0]) != 400 {
		t.Fatalf("a gpt2-medium bid on a gpt2-small broker: verdict %v, want ErrUnroutable (400)", verdicts[0])
	}
	if verdicts[1] != nil || verdicts[2] != nil {
		t.Fatalf("bids for the served model refused: %v, %v", verdicts[1], verdicts[2])
	}
	if st, err := b.Status(); err != nil || st.Held != 2 {
		t.Fatalf("held %d (err %v), want 2", st.Held, err)
	}
}

// TestModelRoundTrips: every lora.Model, the zero one included, survives
// its text form, the wire, the journal and a saved workload unchanged;
// each of them refuses a name or code outside the catalog.
func TestModelRoundTrips(t *testing.T) {
	h := timeslot.NewHorizon(8)
	bid := func(m lora.Model) task.Task {
		return task.Task{ID: 3, Arrival: 1, Deadline: 7, Work: 5, MemGB: 2, Batch: 8, Bid: 50, ModelName: m}
	}
	for m := lora.Model(0); int(m) < lora.NumModels; m++ {
		tk := bid(m)
		text, err := m.MarshalText()
		var fromText lora.Model
		if err != nil || string(text) != m.String() || fromText.UnmarshalText(text) != nil || fromText != m {
			t.Errorf("model %d: text %q (err %v) reads back as %d", m, text, err, fromText)
		}

		body, err := json.Marshal(BidRequestFor(tk))
		var req BidRequest
		if err != nil || decodeBid(body, &req) != nil || req.Task() != tk {
			t.Errorf("model %d: wire %s (err %v) reads back as %+v", m, body, err, req.Task())
		}
		if named := bytes.Contains(body, []byte(`"model"`)); named != (m != 0) {
			t.Errorf("model %d: wire %s names a model: %v", m, body, named)
		}

		r := &decision.Reader{B: appendWALTask(nil, &tk)}
		if got := readWALTask(r); r.Err != nil || len(r.B) != 0 || got != tk {
			t.Errorf("model %d: journal record reads back as %+v (err %v, %d bytes left)", m, got, r.Err, len(r.B))
		}

		var buf bytes.Buffer
		if err := trace.SaveTasks(&buf, []task.Task{tk}); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`"ModelName": %q`, m.String())
		saved := buf.String()
		loaded, err := trace.LoadTasks(&buf, h)
		if err != nil || len(loaded) != 1 || loaded[0] != tk || !strings.Contains(saved, want) {
			t.Errorf("model %d: saved %s (want %s) loads back as %+v (err %v)", m, saved, want, loaded, err)
		}
	}

	unknown := lora.Model(lora.NumModels)
	var m lora.Model
	if _, err := unknown.MarshalText(); err == nil {
		t.Error("an unknown code has a name")
	}
	if err := m.UnmarshalText([]byte("llama-7b")); err == nil {
		t.Error("an unknown name has a code")
	}
	var req BidRequest
	if err := decodeBid([]byte(`{"deadline":7,"work":5,"mem_gb":2,"bid":50,"model":"llama-7b"}`), &req); err == nil {
		t.Error("the wire took an unknown model name")
	}
	if _, err := json.Marshal(BidRequestFor(bid(unknown))); err == nil {
		t.Error("the wire wrote an unknown model code")
	}
	tk := bid(unknown)
	r := &decision.Reader{B: appendWALTask(nil, &tk)}
	if readWALTask(r); r.Err == nil {
		t.Error("the journal read back an unknown model code")
	}
	if err := trace.SaveTasks(io.Discard, []task.Task{tk}); err == nil {
		t.Error("a workload with an unknown model code saved")
	}
	in := `[{"ID":3,"Arrival":1,"Deadline":7,"Work":5,"MemGB":2,"Batch":8,"Bid":50,"ModelName":"llama-7b"}]`
	if _, err := trace.LoadTasks(strings.NewReader(in), h); err == nil {
		t.Error("a workload naming an unknown model loaded")
	}
}
