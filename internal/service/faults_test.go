package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// newFaultStack builds a stack whose scheduler masks downed/full cells —
// outage recovery re-plans through the DP, so it must route around the
// downed node — with a workload that exercises the vendor path.
func newFaultStack(t testing.TB, slots, nodes int, rate float64, seed int64) *testStack {
	t.Helper()
	return newShardStack(t, slots, nodes, seed, shardWorkload(t, slots, rate, seed), true)
}

// withOutages gives b the scripted outage schedule fs: the broker-side
// twin of sim.Config.Failures. A serving broker cannot know its outages in
// advance, so Options has no such field, and a broker loses capacity only
// through its spot tier; the tests reach the failure tracker's outage path
// by rebuilding the engine New made with fs added. Call it before Restore,
// Resume or Start.
func withOutages(b *Broker, fs []sim.Failure) error {
	o := b.opts
	eng, err := sim.NewEngine(b.cl, b.sched, sim.EngineConfig{
		Model: o.Model, Market: o.Market, Failures: fs, Spot: o.Spot,
		Observer: o.Observer, RunLabel: o.RunLabel,
	}, b.decided)
	if err != nil {
		return err
	}
	eng.OnRefund(b.refundDecision)
	b.eng = eng
	return nil
}

// newBroker is New, then withOutages when outages are given.
func newBroker(t testing.TB, opts Options, outages ...sim.Failure) *Broker {
	t.Helper()
	b, err := New(opts)
	if err == nil && len(outages) > 0 {
		err = withOutages(b, outages)
	}
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

// TestBrokerFailureEquivalence: a broker given scripted node outages must
// stay bit-identical to sim.Run with the same Failures — refund flips,
// welfare, revenue, duals, and ledger. Run under -race.
func TestBrokerFailureEquivalence(t *testing.T) {
	const slots, nodes, workers = 24, 3, 6
	const rate = 8.0
	failures := []sim.Failure{
		{Node: 0, From: 8, To: 14},
		{Node: 1, From: 15, To: 40}, // tail clamped to the horizon
	}

	serve := newFaultStack(t, slots, nodes, rate, 31)
	twin := newFaultStack(t, slots, nodes, rate, 31)

	b := startBroker(t, serve.brokerOptions(), failures...)
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

	want, err := sim.Run(twin.cl, twin.sched, twin.tasks, sim.Config{
		Model: twin.model, Market: twin.mkt, Failures: failures, CollectDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.FailuresInjected != len(failures) {
		t.Fatalf("replay injected %d failures, want %d", want.FailuresInjected, len(failures))
	}
	if want.FailedTasks == 0 && want.RecoveredTasks == 0 {
		t.Fatal("fault plan disturbed nothing; the test is vacuous")
	}

	// Decisions are compared post-refund: DecisionFor reflects the flip
	// the tracker applied, exactly like want.Decisions[i].
	for i, tk := range serve.tasks {
		got, ok, err := b.DecisionFor(tk.ID)
		if err != nil || !ok {
			t.Fatalf("task %d: no decision (ok=%v err=%v)", tk.ID, ok, err)
		}
		w := want.Decisions[i]
		if got.Admitted != w.Admitted || got.Payment() != w.Payment() || got.Reason != w.Reason {
			t.Fatalf("task %d: broker (admitted=%v payment=%v reason=%q) vs sim (admitted=%v payment=%v reason=%q)",
				tk.ID, got.Admitted, got.Payment(), got.Reason, w.Admitted, w.Payment(), w.Reason)
		}
	}

	res := b.Result()
	if res.Welfare != want.Welfare || res.Revenue != want.Revenue ||
		res.Admitted != want.Admitted || res.Rejected != want.Rejected ||
		res.FailuresInjected != want.FailuresInjected ||
		res.RecoveredTasks != want.RecoveredTasks ||
		res.FailedTasks != want.FailedTasks ||
		res.RefundedValue != want.RefundedValue {
		t.Fatalf("accounting diverged:\nbroker %+v\nsim    %+v", res, want)
	}
	if !serve.sched.SnapshotDuals().Equal(twin.sched.SnapshotDuals()) {
		t.Fatal("final duals diverge from sim.Run")
	}
	if !reflect.DeepEqual(serve.cl.Snapshot(), twin.cl.Snapshot()) {
		t.Fatal("final ledgers diverge from sim.Run")
	}
}

// TestCheckpointKillRestoreMidOutage kills the broker while an outage is
// live (applied, with recovered continuations tracked and a second
// outage still pending) and restores a fresh one: the completed run must
// match an uninterrupted sim.Run with the same fault plan exactly.
func TestCheckpointKillRestoreMidOutage(t *testing.T) {
	const slots, nodes, killAt = 24, 3, 12
	const rate = 6.0
	failures := []sim.Failure{
		{Node: 0, From: 8, To: 16},  // live at the kill
		{Node: 2, From: 18, To: 22}, // still pending at the kill
	}
	path := filepath.Join(t.TempDir(), "outage.ckpt")

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
	a := startBroker(t, optsA, failures...)
	earlyChans := submitAll(t, a, early, 4)
	if _, err := a.Step(killAt); err != nil {
		t.Fatal(err)
	}
	for i := range early {
		if out := <-earlyChans[i]; out.Err != nil {
			t.Fatalf("early task %d: %v", early[i].ID, out.Err)
		}
	}
	a.Kill()

	restored := newFaultStack(t, slots, nodes, rate, 37)
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Failures == nil || ck.Failures.Next != 1 {
		t.Fatalf("checkpoint should carry one applied outage, got %+v", ck.Failures)
	}
	optsB := restored.brokerOptions()
	optsB.CheckpointPath = path
	b := newBroker(t, optsB, failures...)
	if err := b.Restore(ck); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The ledger restore must keep the outage mask: nothing may be
	// committed on node 0 inside the live outage window after resume.
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

	want, err := sim.Run(twin.cl, twin.sched, twin.tasks, sim.Config{
		Model: twin.model, Market: twin.mkt, Failures: failures, CollectDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := b.Result()
	if res.Welfare != want.Welfare || res.Revenue != want.Revenue ||
		res.FailedTasks != want.FailedTasks || res.RecoveredTasks != want.RecoveredTasks ||
		res.RefundedValue != want.RefundedValue {
		t.Fatalf("resumed run diverged:\nbroker %+v\nsim    %+v", res, want)
	}
	if !restored.sched.SnapshotDuals().Equal(twin.sched.SnapshotDuals()) {
		t.Fatal("final duals after mid-outage restore diverge from the uninterrupted replay")
	}
	if !reflect.DeepEqual(restored.cl.Snapshot(), twin.cl.Snapshot()) {
		t.Fatal("final ledger after mid-outage restore diverges from the uninterrupted replay")
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

// TestDegradedHealth: repeated checkpoint-write failures flip /healthz
// to 503 while bids keep flowing, and a recovered disk flips it back.
func TestDegradedHealth(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	path := filepath.Join(t.TempDir(), "degraded.ckpt")
	opts := s.brokerOptions()
	opts.CheckpointPath = path
	failing := true
	opts.CheckpointFault = func(slot int) error {
		if failing {
			return errors.New("injected: disk full")
		}
		return nil
	}
	b := startBroker(t, opts)
	defer b.Kill()
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	healthz := func() (int, Health) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if code, _ := healthz(); code != http.StatusOK {
		t.Fatalf("fresh broker healthz = %d", code)
	}
	if _, err := b.Step(3); err != nil { // three failed checkpoint writes
		t.Fatal(err)
	}
	code, h := healthz()
	if code != http.StatusServiceUnavailable || h.Status != "degraded" || h.Reason == "" {
		t.Fatalf("after 3 failed writes: code=%d health=%+v", code, h)
	}
	st, err := b.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointFailures != 3 || !st.Degraded || st.DegradedReason == "" {
		t.Fatalf("status: %+v", st)
	}
	if st.SlotsSinceCheckpoint != 3 {
		t.Fatalf("slots since checkpoint = %d, want 3", st.SlotsSinceCheckpoint)
	}
	if st.CheckpointError == "" {
		t.Fatalf("status should surface the checkpoint error, got %+v", st)
	}

	// Degraded ≠ down: the auction keeps deciding bids.
	tk := task.Task{ID: 1, Arrival: 4, Deadline: 10, Work: 5, MemGB: 2, Batch: 8, Bid: 5}
	ch, err := b.SubmitAsync(context.Background(), tk)
	if err != nil {
		t.Fatalf("degraded broker refused a bid: %v", err)
	}
	failing = false // disk recovers
	if _, err := b.Step(2); err != nil {
		t.Fatal(err)
	}
	if out := <-ch; out.Err != nil {
		t.Fatal(out.Err)
	}
	if code, h := healthz(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("after recovery: code=%d health=%+v", code, h)
	}
	st, err = b.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointFailures != 0 || st.Degraded || st.SlotsSinceCheckpoint != 0 {
		t.Fatalf("post-recovery status: %+v", st)
	}
	if _, err := ReadCheckpoint(path); err != nil {
		t.Fatalf("recovered disk never got a checkpoint: %v", err)
	}
}

// TestRetryAfterOn429: overload sheds with 429 plus a Retry-After hint.
func TestRetryAfterOn429(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	opts := s.brokerOptions()
	opts.QueueSize = 1
	b := startBroker(t, opts)
	defer b.Kill()
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	// Fill the single held slot directly so the HTTP bid below bounces.
	tk := task.Task{ID: 1, Arrival: 5, Deadline: 10, Work: 5, MemGB: 2, Batch: 8, Bid: 5}
	if _, err := b.SubmitAsync(context.Background(), tk); err != nil {
		t.Fatal(err)
	}
	body := `{"id": 2, "arrival": 5, "deadline": 10, "work": 5, "mem_gb": 2, "bid": 5}`
	resp, err := http.Post(srv.URL+"/v1/bids", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want %q (virtual clock: one slot)", got, "1")
	}
}
