package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/task"
)

// newBroker is New, failing the test on an error.
func newBroker(t testing.TB, opts Options) *Broker {
	t.Helper()
	b, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
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
