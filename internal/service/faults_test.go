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
	"time"

	"github.com/pdftsp/pdftsp/internal/faults"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// newFaultStack builds a stack whose scheduler masks downed/full cells —
// outage recovery re-plans through the DP, so it must route around the
// downed node — with a workload that exercises the vendor path.
func newFaultStack(t testing.TB, slots, nodes int, rate float64, seed int64) *testStack {
	t.Helper()
	return newShardStack(t, slots, nodes, seed, shardWorkload(t, slots, rate, seed), true)
}

// faultQuotes wraps a stack's marketplace in the chaos vendor chain:
// seeded fault windows under a retry policy, with sleeps stubbed out.
func faultQuotes(s *testStack, plan []faults.VendorFault) vendor.Caller {
	noop := func(time.Duration) {}
	return vendor.NewRetrier(
		vendor.NewFlaky(s.mkt, plan, noop),
		vendor.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Budget: time.Second, Seed: 99, Sleep: noop},
	)
}

// TestBrokerFailureEquivalence is the tentpole's acceptance test: a
// broker given a fault plan (node outages + vendor fault windows behind
// a retrier) must stay bit-identical to sim.Run with the same Failures
// and Quotes — refund flips, welfare, revenue, duals, and ledger. Run
// under -race.
func TestBrokerFailureEquivalence(t *testing.T) {
	const slots, nodes, workers = 24, 3, 6
	const rate = 8.0
	failures := []sim.Failure{
		{Node: 0, From: 8, To: 14},
		{Node: 1, From: 15, To: 40}, // tail clamped to the horizon
	}
	vendorPlan := []faults.VendorFault{
		{Vendor: -1, From: 3, To: 6, FailAttempts: 1},    // transient: retrier rides it out
		{Vendor: -1, From: 12, To: 14, FailAttempts: -1}, // hard: prep bids bounce
		{Vendor: 2, From: 0, To: 23},                     // one vendor dark all run
	}

	serve := newFaultStack(t, slots, nodes, rate, 31)
	twin := newFaultStack(t, slots, nodes, rate, 31)

	opts := serve.brokerOptions()
	opts.Failures = failures
	opts.Quotes = faultQuotes(serve, vendorPlan)
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

	want, err := sim.Run(twin.cl, twin.sched, twin.tasks, sim.Config{
		Model: twin.model, Market: twin.mkt,
		Failures: failures, Quotes: faultQuotes(twin, vendorPlan),
		CollectDecisions: true,
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
	vendorDown := 0
	for i, tk := range serve.tasks {
		got, ok, err := b.DecisionFor(tk.ID)
		if err != nil || !ok {
			t.Fatalf("task %d: no decision (ok=%v err=%v)", tk.ID, ok, err)
		}
		w := want.Decisions[i]
		if got.Admitted != w.Admitted || got.Payment != w.Payment || got.Reason != w.Reason {
			t.Fatalf("task %d: broker (admitted=%v payment=%v reason=%q) vs sim (admitted=%v payment=%v reason=%q)",
				tk.ID, got.Admitted, got.Payment, got.Reason, w.Admitted, w.Payment, w.Reason)
		}
		if got.Reason == schedule.ReasonVendorDown {
			vendorDown++
		}
	}
	if vendorDown == 0 {
		t.Log("note: no bid landed in the hard vendor window")
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
	optsA.Failures = failures
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
	optsB.Failures = failures
	b, err := New(optsB)
	if err != nil {
		t.Fatal(err)
	}
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

// TestVendorDownRejection: a prep-requiring bid whose vendor calls stay
// down past the retry deadline is rejected with ReasonVendorDown, and
// the duals stay exactly where they were (the rejection is dual-neutral,
// like ReasonNoSchedule).
func TestVendorDownRejection(t *testing.T) {
	s := newStack(t, 12, 2, 2, 5)
	opts := s.brokerOptions()
	opts.Quotes = faultQuotes(s, []faults.VendorFault{
		{Vendor: -1, From: 0, To: 11, FailAttempts: -1}, // marketplace dark all run
	})
	b := startBroker(t, opts)
	defer b.Kill()

	before := s.sched.SnapshotDuals()
	tk := task.Task{ID: 700, Arrival: 2, Deadline: 10, Work: 5, MemGB: 2, Batch: 8, Bid: 50, NeedsPrep: true}
	ch, err := b.SubmitAsync(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(3); err != nil {
		t.Fatal(err)
	}
	out := <-ch
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Decision.Admitted {
		t.Fatal("bid admitted with no vendor quote")
	}
	if out.Decision.Reason != schedule.ReasonVendorDown {
		t.Fatalf("reason %q, want %q", out.Decision.Reason, schedule.ReasonVendorDown)
	}
	if !s.sched.SnapshotDuals().Equal(before) {
		t.Fatal("vendor-down rejection moved the dual prices")
	}

	// The same bid without prep sails through: only f_i = 1 bids depend
	// on the marketplace.
	tk2 := tk
	tk2.ID = 701
	tk2.Arrival = 4
	tk2.NeedsPrep = false
	ch2, err := b.SubmitAsync(context.Background(), tk2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(2); err != nil {
		t.Fatal(err)
	}
	if out := <-ch2; out.Err != nil || !out.Decision.Admitted {
		t.Fatalf("prep-free bid should be unaffected by the vendor outage: err=%v admitted=%v",
			out.Err, out.Decision.Admitted)
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
